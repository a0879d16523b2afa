"""Detection service throughput — cached detector vs one-shot.

Not a paper figure: this benchmark guards the service layer (PR 3)
against functional and performance regression.

The workload is the ISSUE 3 acceptance scenario: **200 single-dataset
requests against one (cached) secret**. The baseline answers them the
way a stateless deployment would — one
:func:`~repro.core.detector.detect_watermark` call per request, paying
detector construction (SHA-256 moduli for every stored pair) and one
single-dataset vectorized pass each time. The service answers the same
200 requests through :class:`~repro.service.SyncDetectionService`:
detector built once (LRU cache), each request answered by one
``detect_many`` pass over its suspect.

Asserted, in both smoke and full scale:

* verdict parity — the service answers are identical to the one-shot
  answers, request by request;
* the cache — all 200 requests are answered by the one detector built
  when the secret was registered;
* **throughput ≥ 3x** over sequential one-shot detection.

Run directly (``python benchmarks/bench_service.py [--smoke]``) or via
pytest; the CI smoke job includes the timing in ``BENCH_smoke.json``.
"""

from __future__ import annotations

import os
import time

from repro.core.detector import detect_watermark
from repro.core.eligibility import generate_eligible_pairs
from repro.core.histogram import TokenHistogram
from repro.core.knapsack import select_within_budget
from repro.core.matching import vertex_disjoint
from repro.core.secrets import WatermarkSecret
from repro.datasets.synthetic import generate_power_law_tokens
from repro.service import SyncDetectionService
from repro.utils.rng import ensure_rng

from bench_utils import experiment_banner

SECRET = 0x5EED5EED
MODULUS_CAP = 13
BUDGET = 2.0
REQUESTS = 200
MIN_SPEEDUP = 3.0


def _smoke() -> bool:
    return os.environ.get("REPRO_BENCH_SCALE", "").lower() == "smoke"


def _time(function, *args, **kwargs):
    start = time.perf_counter()
    value = function(*args, **kwargs)
    return time.perf_counter() - start, value


def _workload(request_count: int, suspect_size: int):
    """One secret with a healthy pair count plus pre-built suspect histograms."""
    base = generate_power_law_tokens(
        0.6, n_tokens=800, sample_size=300_000, rng=20_263
    )
    histogram = TokenHistogram.from_tokens(base)
    candidates = vertex_disjoint(
        generate_eligible_pairs(histogram, SECRET, MODULUS_CAP, max_candidates=600)
    )
    selection = select_within_budget(histogram, candidates, BUDGET)
    assert selection.selected, "workload produced no watermarkable pairs"
    secret = WatermarkSecret.build(
        [item.pair for item in selection.selected], SECRET, MODULUS_CAP
    )
    vocabulary = list(histogram.tokens)
    rng = ensure_rng(424_242)
    suspects = []
    for _ in range(request_count):
        indices = rng.integers(0, len(vocabulary), size=suspect_size)
        suspects.append(
            TokenHistogram.from_tokens([vocabulary[int(i)] for i in indices])
        )
    return secret, suspects


def test_service_throughput_200_cached_secret_requests():
    """Service throughput with a cached detector >= 3x sequential one-shot."""
    suspect_size = 1_500 if _smoke() else 10_000
    secret, suspects = _workload(REQUESTS, suspect_size)

    # Warm the histogram array caches so both paths measure detection,
    # not lazy array construction (both would pay it on first touch).
    for suspect in suspects:
        suspect.arrays()

    def sequential_one_shot():
        return [detect_watermark(suspect, secret) for suspect in suspects]

    sequential_seconds, baseline = _time(sequential_one_shot)

    with SyncDetectionService() as service:
        service.register_secret(secret)  # warm: the cache holds the detector
        service_seconds, answered = _time(service.detect_all, suspects, secret)
        stats = service.stats
        cache_stats = service.cache_stats()

    # Verdict parity, request by request (bit-identical counters).
    assert [
        (r.accepted, r.accepted_pairs, r.required_pairs, r.total_pairs)
        for r in answered
    ] == [
        (r.accepted, r.accepted_pairs, r.required_pairs, r.total_pairs)
        for r in baseline
    ]
    # Every request reached the service and hit the cached detector.
    assert stats.requests == REQUESTS
    assert cache_stats.misses == 1

    speedup = sequential_seconds / max(service_seconds, 1e-9)
    experiment_banner(
        "Detection service throughput",
        f"{REQUESTS} requests x {suspect_size}-token suspects, "
        f"{len(secret.pairs)} stored pairs, one cached secret",
    )
    print(  # noqa: T201
        f"  sequential one-shot: {sequential_seconds * 1000:.1f} ms   "
        f"service (cached detector): {service_seconds * 1000:.1f} ms   "
        f"speedup: {speedup:.1f}x"
    )
    print(  # noqa: T201
        f"  requests: {stats.requests}, detector builds: {cache_stats.misses}, "
        f"cache hit rate {cache_stats.hit_rate:.2%}"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"service throughput regressed: {speedup:.2f}x < {MIN_SPEEDUP}x "
        f"({sequential_seconds:.3f}s one-shot vs {service_seconds:.3f}s service)"
    )


def main(argv=None) -> int:
    """CLI entry point: ``python benchmarks/bench_service.py [--smoke]``."""
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run the reduced smoke workload (sets REPRO_BENCH_SCALE=smoke)",
    )
    arguments = parser.parse_args(argv)
    if arguments.smoke:
        os.environ["REPRO_BENCH_SCALE"] = "smoke"
    test_service_throughput_200_cached_secret_requests()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
