"""Streaming ingestion and sharded screening — the scale-out subsystem.

Not a paper figure: this benchmark guards the streaming + sharding layer
(PR 2) against functional and performance regression.

* **Streaming ingestion**: a chunked
  :class:`~repro.core.streaming.StreamingHistogramBuilder` pass over the
  token stream must produce a histogram *bit-identical* to the one-shot
  ``TokenHistogram.from_tokens`` build, and must not cost more than a
  small constant factor over it (the Counter-based chunk counting is
  typically faster than the one-shot Python loop).
* **Sharded screening**: the 100-dataset raw-token screening workload —
  where per-dataset histogram building dominates and parallelises — run
  through :func:`~repro.core.batch.dispatch_detection` on a warm 4-worker
  local scheduler must return verdicts identical (and identically
  ordered) to in-process ``detect_many``, and must beat it on wall clock when the machine
  actually has cores to shard across.

Run directly (``python benchmarks/bench_streaming.py``) or via pytest;
the CI smoke job includes both timings in ``BENCH_smoke.json``.
"""

from __future__ import annotations

import os
import time

from repro.core.batch import detect_many, dispatch_detection
from repro.core.config import DetectionConfig
from repro.core.eligibility import generate_eligible_pairs
from repro.core.histogram import TokenHistogram
from repro.core.knapsack import select_within_budget
from repro.core.matching import vertex_disjoint
from repro.core.secrets import WatermarkSecret
from repro.exec.policy import ExecutionPolicy
from repro.exec.scheduler import create_scheduler, default_worker_count
from repro.core.streaming import StreamingHistogramBuilder, histogram_from_chunks
from repro.datasets.synthetic import generate_power_law_tokens
from repro.utils.rng import ensure_rng

from bench_utils import experiment_banner

SECRET = 0x5EED5EED
MODULUS_CAP = 7
BUDGET = 2.0
SHARD_WORKERS = 4
SUSPECT_DATASETS = 100


def _smoke() -> bool:
    return os.environ.get("REPRO_BENCH_SCALE", "").lower() == "smoke"


def _time(function, *args, **kwargs):
    start = time.perf_counter()
    value = function(*args, **kwargs)
    return time.perf_counter() - start, value


def _token_stream(sample_size: int):
    return generate_power_law_tokens(
        0.6, n_tokens=1_000, sample_size=sample_size, rng=20_262
    )


def test_streaming_ingestion_parity_and_pace():
    """Chunked ingestion is bit-identical to one-shot and keeps pace."""
    sample_size = 200_000 if _smoke() else 1_000_000
    chunk_size = 20_000
    tokens = _token_stream(sample_size)
    chunks = [tokens[start : start + chunk_size] for start in range(0, len(tokens), chunk_size)]

    one_shot_seconds, one_shot = _time(TokenHistogram.from_tokens, tokens)
    streaming_seconds, streamed = _time(histogram_from_chunks, chunks)

    # Bit-identical: same token order, same count array (ISSUE 2 parity).
    assert streamed == one_shot
    assert streamed.tokens == one_shot.tokens
    assert streamed.counts_array().tolist() == one_shot.counts_array().tolist()

    # Map-reduce merge of two half-stream builders gives the same result.
    left, right = StreamingHistogramBuilder(), StreamingHistogramBuilder()
    for index, chunk in enumerate(chunks):
        (left if index % 2 == 0 else right).add_tokens(chunk)
    assert StreamingHistogramBuilder.merge_all([left, right]).build() == one_shot

    experiment_banner(
        "Streaming ingestion",
        f"{sample_size} occurrences in {len(chunks)} chunks of {chunk_size}",
    )
    print(  # noqa: T201
        f"  one-shot build: {one_shot_seconds * 1000:.1f} ms   "
        f"streaming build: {streaming_seconds * 1000:.1f} ms   "
        f"ratio: {streaming_seconds / max(one_shot_seconds, 1e-9):.2f}x"
    )
    # Chunked ingestion must stay within 2x of one-shot (+2 ms timer slack);
    # the Counter fast path usually makes it faster, not slower.
    assert streaming_seconds <= one_shot_seconds * 2.0 + 0.002, (
        f"streaming ingestion regressed: {streaming_seconds:.4f}s vs "
        f"one-shot {one_shot_seconds:.4f}s"
    )


def _screening_workload(suspect_count: int, suspect_size: int):
    """A secret plus raw-token suspects (histogram build dominates)."""
    base = _token_stream(400_000 if _smoke() else 600_000)
    histogram = TokenHistogram.from_tokens(base)
    candidates = vertex_disjoint(
        generate_eligible_pairs(histogram, SECRET, MODULUS_CAP, max_candidates=400)
    )
    selection = select_within_budget(histogram, candidates, BUDGET)
    assert selection.selected, "workload produced no watermarkable pairs"
    secret = WatermarkSecret.build(
        [item.pair for item in selection.selected], SECRET, MODULUS_CAP
    )
    vocabulary = list(histogram.tokens)
    rng = ensure_rng(99)
    suspects = []
    for _ in range(suspect_count):
        indices = rng.integers(0, len(vocabulary), size=suspect_size)
        # Reuse the vocabulary's str objects so pickle memoisation keeps
        # the dispatch payload small, as a real loader would.
        suspects.append([vocabulary[int(i)] for i in indices])
    return secret, suspects


def test_sharded_screening_100_datasets():
    """4-worker sharded screening: identical verdicts, faster on multi-core."""
    suspect_size = 5_000 if _smoke() else 50_000
    secret, suspects = _screening_workload(SUSPECT_DATASETS, suspect_size)
    config = DetectionConfig(pair_threshold=2)

    in_process_seconds, baseline = _time(detect_many, suspects, secret, config)
    with create_scheduler(ExecutionPolicy(workers=SHARD_WORKERS)) as scheduler:
        # Warm the worker processes (and their per-worker detectors).
        dispatch_detection(scheduler, secret, config, suspects[:4])
        sharded_seconds, sharded = _time(
            dispatch_detection, scheduler, secret, config, suspects
        )

    # Verdict parity and ordering: exact, not statistical.
    assert sharded.accepted_flags == baseline.accepted_flags
    assert [result.accepted_pairs for result in sharded.results] == [
        result.accepted_pairs for result in baseline.results
    ]

    cores = default_worker_count()
    speedup = in_process_seconds / max(sharded_seconds, 1e-9)
    experiment_banner(
        "Sharded screening",
        f"{len(suspects)} raw-token suspects x {suspect_size} tokens, "
        f"{len(secret.pairs)} stored pairs, {SHARD_WORKERS} workers",
    )
    print(  # noqa: T201
        f"  in-process detect_many: {in_process_seconds * 1000:.1f} ms   "
        f"sharded: {sharded_seconds * 1000:.1f} ms   "
        f"speedup: {speedup:.2f}x ({cores} cores visible)"
    )
    if cores >= 2 and not _smoke():
        # Asserted only at full scale: the smoke workload (5k-token
        # suspects) is small enough that dispatch overhead can mask the
        # win on a loaded shared runner, and a perf assert that flakes
        # is worse than none. At default/paper scale histogram building
        # dominates and the sharded path must win outright.
        assert speedup > 1.0, (
            f"sharded screening lost to in-process on a {cores}-core machine: "
            f"{in_process_seconds:.3f}s -> {sharded_seconds:.3f}s"
        )
    else:
        print(  # noqa: T201
            "  (speedup assertion gated: needs >=2 visible cores and "
            "full-scale workload; parity asserted above)"
        )


if __name__ == "__main__":
    test_streaming_ingestion_parity_and_pace()
    test_sharded_screening_100_datasets()
