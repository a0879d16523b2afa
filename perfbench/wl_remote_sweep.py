"""``remote-sweep``: closed loop, one caller, two ``freqywm worker`` processes.

Each op is ``detect_many(batch, secret, policy=ExecutionPolicy(
scheduler="remote", addresses=...))`` over 64 suspect histograms the
workers have not seen before: half are the owner's watermarked copy
with every unpaired token's count perturbed, half are unrelated draws
over the same tokens. All sweeps share one secret. The next batch is
built between sweeps, outside the timed call.
"""

from __future__ import annotations

import socket

import numpy as np

import common
import hostspeed
import inputs

SUSPECTS = 64
OWNER_SIZE = 1_000_000
WORKERS = 2
SETUPS = 3
#: Every unseen suspect's blob stays in the blob stores' LRU (256 MiB
#: each), so memory grows with every sweep; peak RSS is read after this
#: many sweeps, so that it measures the same work on a fast or slow host
#: (a run on a slow host goes on until it has made them).
RSS_SWEEPS = 50


class _Batches:
    """Seeded suspect batches with their expected verdicts."""

    def __init__(self, seed: int) -> None:
        from repro.core.generator import WatermarkGenerator
        from repro.core.histogram import TokenHistogram

        self.names = inputs.token_names("own")
        rng = inputs.rng_for(seed, 20)
        counts = inputs.power_law_counts(rng, 1.0, OWNER_SIZE, self.names)
        result = WatermarkGenerator().generate(
            TokenHistogram.from_counts(counts), secret_value=inputs.secret_value(rng)
        )
        self.secret = result.secret
        self.pairs = [(p.first, p.second) for p in self.secret.pairs]
        self.moduli = [common.pair_modulus(a, b, self.secret.secret, self.secret.modulus_cap) for a, b in self.pairs]
        watermarked = result.watermarked_histogram.as_dict()
        self.base = np.array([watermarked.get(name, 0) for name in self.names], dtype=np.int64)
        paired = {token for pair in self.pairs for token in pair}
        self.free = np.array([name not in paired for name in self.names])
        self.rng = inputs.rng_for(seed, 21)
        self._histogram = TokenHistogram

    def next(self):
        """64 fresh suspects (program histograms) and their verdicts."""
        suspects, expected = [], []
        for index in range(SUSPECTS):
            if index % 2 == 0:
                vector = self.base.copy()
                redrawn = self.rng.multinomial(int(vector[self.free].sum()), np.full(int(self.free.sum()), 1 / self.free.sum()))
                vector[self.free] = np.maximum(1, (vector[self.free] + redrawn) // 2)
            else:
                vector = self.rng.multinomial(OWNER_SIZE, inputs.power_law_probabilities(1.0))
            counts = {name: count for name, count in zip(self.names, vector.tolist()) if count > 0}
            suspects.append(self._histogram.from_counts(counts))
            expected.append(common.expected_accepted(counts, self.pairs, self.moduli, 0))
        return suspects, expected


def _peak_rss(procs) -> float:
    """Highest VmHWM of this process and the workers, in MiB."""
    return max([common.vmhwm_mb()] + [common.vmhwm_mb(proc.pid) for proc in procs])


def _spawn_workers(children, tmp, attempt, trace, probe):
    """Spawn the workers; returns (procs, addresses, span files, set-up Interval, ready s)."""
    from repro.service.wire import HEARTBEAT_FUNCTION, TaskRequest, encode_line

    mark = probe.start()
    start = mark[0]
    procs, paths, logs, spans = [], [], [], []
    for worker in range(WORKERS):
        path = tmp / f"w{attempt}-{worker}.sock"
        log = tmp / f"w{attempt}-{worker}.log"
        span_file = tmp / f"w{attempt}-{worker}.spans" if trace else None
        procs.append(children.spawn_cli(["worker", "--socket", str(path)], log, span_file))
        paths.append(path)
        logs.append(log)
        spans.append(span_file)
    ready, answered = [], []
    for proc, path, log in zip(procs, paths, logs):
        ready.append(common.wait_for_text(log, "listening on", proc, timeout=60.0) - start)
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.connect(str(path))
            heartbeat = TaskRequest(request_id="probe", function=HEARTBEAT_FUNCTION)
            sock.sendall(encode_line(heartbeat).encode("utf-8") + b"\n")
            with sock.makefile("rb") as reader:
                if not reader.readline():
                    raise RuntimeError(f"worker {path} closed the probe connection")
        answered.append(common.now())
    return procs, [f"unix:{path}" for path in paths], spans, probe.stop(mark, max(answered)), ready


def run(seed: int, seconds: float, trace: bool) -> None:
    from repro.core.batch import detect_many
    from repro.exec.policy import ExecutionPolicy

    host = common.HostContext()
    tmp = common.scratch_dir()
    batches = _Batches(seed)
    batch, expected = batches.next()
    probe = hostspeed.Probe("remote-sweep")
    probe.measure()
    children = common.Children()
    setup_spans, ready, span_files = [], [], []
    try:
        for attempt in range(SETUPS):
            procs, addresses, spans, setup, ready_s = _spawn_workers(children, tmp, attempt, trace, probe)
            probe.measure()
            setup_spans.append(setup)
            ready.extend(ready_s)
            span_files.extend(spans)
            if attempt < SETUPS - 1:
                for proc in procs:
                    children.stop(proc)
        policy = ExecutionPolicy(scheduler="remote", addresses=addresses)
        recorder = None
        if trace:
            import tracing

            tracing.install()
            recorder = tracing.RECORDER
        # (Interval, or None if the sweep failed; probe measurements before it)
        sweeps, failed, attempted, peak = [], 0, 0, None
        phase_start = common.now()
        while common.now() - phase_start < seconds or attempted < RSS_SWEEPS:
            attempted += 1
            mark = probe.start()
            try:
                verdicts = [r.accepted for r in detect_many(batch, batches.secret, policy=policy).results]
            except Exception:  # noqa: BLE001 - a raising sweep is a failed op
                verdicts = None
            interval = probe.stop(mark)
            ok = verdicts == expected
            failed += not ok
            sweeps.append((interval if ok else None, len(probe.times)))
            if attempted == RSS_SWEEPS:
                peak = _peak_rss(procs)
            if recorder is not None:
                recorder.paused = True
            batch, expected = batches.next()
            probe.tick()
            if recorder is not None:
                recorder.paused = False
        for proc in procs:
            children.stop(proc)
    finally:
        children.close()
    # A sweep (~25 ms) is short against the 10 ms steal tick, so stolen
    # time is subtracted per window: the sweeps between two probe
    # measurements (~0.25 s). A window's value is its mean sweep time.
    windows = {}
    for interval, window in sweeps:
        windows.setdefault(window, []).append(probe.scale(interval) * 1e3 if interval else float("inf"))
    window_ms = [sum(values) / len(values) for values in windows.values()]
    setups = [probe.scale(span, hostspeed.SETUP) for span in setup_spans]
    metrics = {
        "setup_s": (common.median(setups), "s"),
        "peak_rss_mb": (peak, "MiB"),
        "op_p50_ms": (common.op_p50(window_ms), "ms"),
        "ops_per_s": (common.rate((attempted - failed) * SUSPECTS, [probe.scale(i) for i, _ in sweeps if i]), "1/s"),
    }
    detail = {
        "workload": "remote-sweep",
        "setup_s_samples": setups,
        "setup_s_raw": [end - start for start, end, _ in setup_spans],
        "worker_ready_s": ready,
        "sweep_window_ms": common.summary(window_ms),
        "sweep_wall_ms_raw": common.summary([(i[1] - i[0]) * 1e3 for i, _ in sweeps if i]),
        "stolen_s": sum(i[2] for i, _ in sweeps if i),
        "probe": probe.summary([i for i, _ in sweeps]),
        "host": host.finish(),
    }
    if trace:
        import layers
        import tracing

        spans = list(tracing.RECORDER.spans)
        spans += [span for path in span_files for span in tracing.load(path)]
        detail["end_to_end"] = {name: value for name, (value, _unit) in metrics.items()}
        metrics = probe.scale_times(layers.compute(spans, phase_start, {"exec.worker_ready_s": common.median(ready)}))
    common.emit(failed == 0, attempted, failed, metrics, detail)
