#!/usr/bin/env python3
"""Streaming ingestion + sharded batch watermarking service.

A data provider operates a watermarking service at production scale:

1. **Streaming ingestion** — the asset (here: a synthetic click log
   written to disk in chunks, standing in for a file too large to load
   at once) is ingested chunk by chunk. Two
   :class:`~repro.core.streaming.StreamingHistogramBuilder` workers each
   count half of the stream and their partial histograms are merged
   map-reduce style; the result is bit-identical to a one-shot build.
2. **Streaming watermarking** — generation runs in histogram-only mode
   and the watermarked token file is written by a second streaming pass
   (:func:`~repro.core.transform.apply_deltas_streaming`), so the raw
   dataset is never resident in memory.
3. **Sharded screening** — 1 000 suspected datasets (leaked subsamples
   mixed with unrelated decoys) are screened in parallel with
   ``detect_many(..., policy=ExecutionPolicy(workers=N))``, and the
   verdicts are checked to be identical — and identically ordered — to
   the in-process ``detect_many`` path.

Run with:  python examples/streaming_service.py
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

from repro.attacks.sampling import rescale_suspect, subsample_histogram
from repro.core.batch import detect_many
from repro.core.config import DetectionConfig, GenerationConfig
from repro.core.generator import WatermarkGenerator
from repro.core.histogram import TokenHistogram
from repro.exec.policy import ExecutionPolicy
from repro.exec.scheduler import default_worker_count
from repro.core.streaming import StreamingHistogramBuilder
from repro.core.transform import apply_deltas_streaming, histogram_deltas
from repro.datasets.loaders import iter_token_chunks, iter_tokens, save_token_file
from repro.datasets.synthetic import generate_power_law_tokens
from repro.utils.rng import ensure_rng

#: Tokens written to (and streamed back from) the on-disk click log.
STREAM_SIZE = 400_000
#: Tokens per ingestion chunk — the memory bound of the streaming pass.
CHUNK_SIZE = 20_000
#: Suspected datasets screened by the sharded path.
SUSPECTS = 1_000


def write_click_log(path: Path) -> None:
    """Simulate a log that arrives in chunks and never fits in memory."""
    tokens = generate_power_law_tokens(
        0.6, n_tokens=800, sample_size=STREAM_SIZE, rng=42
    )
    with path.open("w", encoding="utf-8") as handle:
        for start in range(0, len(tokens), CHUNK_SIZE):
            handle.write("\n".join(tokens[start : start + CHUNK_SIZE]) + "\n")


def ingest_map_reduce(path: Path) -> TokenHistogram:
    """Chunked two-worker ingestion with a map-reduce merge."""
    workers = [StreamingHistogramBuilder(), StreamingHistogramBuilder()]
    for index, chunk in enumerate(iter_token_chunks(path, chunk_size=CHUNK_SIZE)):
        workers[index % len(workers)].add_tokens(chunk)
    merged = StreamingHistogramBuilder.merge_all(workers)
    print(
        f"  ingested {merged.total_count} occurrences / "
        f"{merged.distinct_tokens} distinct tokens in "
        f"{merged.chunks_ingested} chunks across {len(workers)} builders"
    )
    return merged.build()


def build_suspects(watermarked: TokenHistogram, count: int) -> list:
    """Leaked subsamples (rescaled, per the paper's defence) mixed with decoys."""
    rng = ensure_rng(7)
    original_size = watermarked.total_count()
    suspects = []
    for index in range(count):
        if index % 4 == 3:  # every fourth suspect is an unrelated decoy
            decoys = generate_power_law_tokens(
                0.6,
                n_tokens=300,
                sample_size=20_000,
                rng=10_000 + index,
                token_prefix="decoy",
            )
            suspects.append(TokenHistogram.from_tokens(decoys))
        else:
            fraction = 0.5 + 0.4 * rng.random()
            sampled = subsample_histogram(watermarked, fraction, rng=rng)
            suspects.append(rescale_suspect(sampled, original_size))
    return suspects


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="freqywm-streaming-"))
    log_path = workdir / "clicklog.txt"
    watermarked_path = workdir / "clicklog.watermarked.txt"

    print("--- phase 1: streaming ingestion ---")
    write_click_log(log_path)
    start = time.perf_counter()
    histogram = ingest_map_reduce(log_path)
    print(f"  streaming build: {time.perf_counter() - start:.2f}s "
          f"(peak memory bounded by {CHUNK_SIZE}-token chunks)")

    print("\n--- phase 2: streaming watermark generation ---")
    generator = WatermarkGenerator(
        GenerationConfig(budget_percent=2.0, modulus_cap=61, max_candidates=400),
        rng=2_026,
    )
    result = generator.generate(histogram)  # histogram-only mode
    deltas = histogram_deltas(histogram, result.watermarked_histogram)
    save_token_file(
        apply_deltas_streaming(iter_tokens(log_path), deltas, histogram, rng=2_027),
        watermarked_path,
    )
    print(f"  embedded {result.pair_count} pairs, "
          f"similarity {result.similarity_percent:.4f}%, "
          f"{result.total_changes} token edits streamed to disk")

    print(f"\n--- phase 3: sharded screening of {SUSPECTS} suspects ---")
    suspects = build_suspects(result.watermarked_histogram, SUSPECTS)
    config = DetectionConfig(pair_threshold=2)

    start = time.perf_counter()
    baseline = detect_many(suspects, result.secret, config)
    in_process = time.perf_counter() - start
    print(f"  in-process detect_many : {in_process:.2f}s")

    workers = max(2, min(4, default_worker_count()))
    start = time.perf_counter()
    sharded = detect_many(
        suspects, result.secret, config, policy=ExecutionPolicy(workers=workers)
    )
    sharded_seconds = time.perf_counter() - start
    print(f"  sharded ({workers} workers) : {sharded_seconds:.2f}s "
          f"({default_worker_count()} cores visible; the sharded path wins "
          "once histogram building dominates on a multi-core box)")

    assert baseline.accepted_flags == sharded.accepted_flags, "verdict mismatch!"
    assert [r.accepted_pairs for r in baseline] == [
        r.accepted_pairs for r in sharded
    ], "evidence mismatch!"
    print(
        f"  verdict parity: OK — {sharded.accepted_count}/{len(sharded)} suspects "
        f"verified (expected ~{3 * SUSPECTS // 4} leaked copies)"
    )


if __name__ == "__main__":
    main()
