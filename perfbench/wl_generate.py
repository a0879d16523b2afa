"""``generate``: closed loop, one in-process caller of ``WM_Generate``.

Each op is ``WatermarkGenerator(GenerationConfig(strategy="optimal",
modulus_cap=131, budget_percent=2.0)).generate(tokens, secret_value=R)``
on a raw sequence of 1,000,000 occurrences over 1,000 tokens (the
paper's synthetic workload), alpha cycling through ``ALPHAS`` and a
fresh seeded secret per op. The loop runs whole alpha cycles, so every
run weighs the three skews equally.
"""

from __future__ import annotations

import subprocess
import sys
from collections import Counter

import common
import hostspeed
import inputs

ALPHAS = (0.5, 0.7, 1.0)
SIZE = 1_000_000
BUDGET = 2.0
CAP = 131
#: Set-up repetitions: this process plus fresh interpreters.
SETUP_PROBES = 2


def _sequences(seed: int, which=range(len(ALPHAS))):
    return {i: inputs.token_sequence(inputs.rng_for(seed, 1, i), ALPHAS[i], SIZE, "tok") for i in which}


def _setup(sequence, seed: int):
    """Imports plus one untimed warm-up generate; returns (generator, result, s)."""
    start = common.now()
    from repro.core.config import GenerationConfig
    from repro.core.generator import WatermarkGenerator

    generator = WatermarkGenerator(
        GenerationConfig(strategy="optimal", modulus_cap=CAP, budget_percent=BUDGET)
    )
    warm = generator.generate(sequence, secret_value=inputs.secret_value(inputs.rng_for(seed, 2)))
    return generator, warm, common.now() - start


def setup_probe(seed: int) -> float:
    """One set-up in a fresh interpreter (``run.py --setup-probe generate``)."""
    sequence = _sequences(seed, [len(ALPHAS) - 1])[len(ALPHAS) - 1]
    return _setup(sequence, seed)[2]


def _correct(result) -> bool:
    """The secret accepts the watermarked tokens on every stored pair,
    within the distortion budget."""
    secret = result.secret
    pairs = [(pair.first, pair.second) for pair in secret.pairs]
    if not pairs or result.watermarked_tokens is None:
        return False
    moduli = [common.pair_modulus(a, b, secret.secret, secret.modulus_cap) for a, b in pairs]
    counts = Counter(result.watermarked_tokens)
    return (
        common.expected_accepted(counts, pairs, moduli, threshold=0, min_fraction=1.0)
        and result.distortion_percent <= BUDGET
    )


def run(seed: int, seconds: float, trace: bool) -> None:
    host = common.HostContext()
    sequences = _sequences(seed)
    probe = hostspeed.Probe("generate")
    probe.measure()
    mark = probe.start()
    generator, warm, _ = _setup(sequences[len(ALPHAS) - 1], seed)
    setup_spans = [probe.stop(mark)]
    probe.measure()
    correct = _correct(warm)
    for _ in range(SETUP_PROBES):
        # The child times its own set-up; the interval around it only
        # supplies the stolen time and the host speed.
        mark = probe.start()
        out = subprocess.run(
            [sys.executable, str(common.BENCH_DIR / "run.py"), "--setup-probe", "generate", "--seed", str(seed)],
            cwd=str(common.ROOT), env=common.program_env(), capture_output=True, text=True, timeout=120, check=True,
        )
        _, end, stolen = probe.stop(mark)
        setup_spans.append((end - float(out.stdout.split()[-1]), end, stolen))
        probe.measure()

    if trace:
        import tracing

        tracing.install()
    secrets = inputs.rng_for(seed, 3)
    ops, failed, attempted = [], 0, 0  # an Interval per op, None if it failed
    phase_start = common.now()
    while common.now() - phase_start < seconds or attempted % len(ALPHAS):
        sequence = sequences[attempted % len(ALPHAS)]
        secret = inputs.secret_value(secrets)
        attempted += 1
        mark = probe.start()
        try:
            result = generator.generate(sequence, secret_value=secret)
        except Exception:  # noqa: BLE001 - a raising op is a failed op
            result = None
        interval = probe.stop(mark)
        if result is not None and _correct(result):
            ops.append(interval)
        else:
            failed += 1
            ops.append(None)
        del result
        probe.measure()
    latencies = [probe.scale(op) * 1e3 if op else float("inf") for op in ops]
    setups = [probe.scale(span, hostspeed.SETUP) for span in setup_spans]
    metrics = {
        "setup_s": (common.median(setups), "s"),
        "peak_rss_mb": (common.vmhwm_mb(), "MiB"),
        "op_p50_ms": (common.op_p50(latencies), "ms"),
        "ops_per_s": (common.rate(attempted - failed, [v / 1e3 for v in latencies]), "1/s"),
    }
    detail = {
        "workload": "generate",
        "setup_s_samples": setups,
        "setup_s_raw": [end - start for start, end, _ in setup_spans],
        "op_ms": common.summary(latencies),
        "op_ms_samples": [round(value, 3) for value in latencies],
        "op_wall_ms_raw": common.summary([(op[1] - op[0]) * 1e3 for op in ops if op]),
        "stolen_s": sum(op[2] for op in ops if op),
        "probe": probe.summary(ops),
        "host": host.finish(),
    }
    if trace:
        import layers
        import tracing

        detail["end_to_end"] = {name: value for name, (value, _unit) in metrics.items()}
        metrics = probe.scale_times(layers.compute(tracing.RECORDER.spans, phase_start))
    common.emit(correct and failed == 0, attempted, failed, metrics, detail)
