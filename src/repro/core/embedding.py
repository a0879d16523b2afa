"""Batch embedding: the task bodies and report behind ``embed_many``.

Two independent levers compose, both driven from
:mod:`repro.core.batch`:

* **In-process amortisation** —
  :meth:`repro.core.generator.WatermarkGenerator.generate_many` shares
  the SHA-256 pair-modulus derivations (per owner secret) and the
  histogram-side eligibility precomputation (per dataset) across a whole
  batch, with outputs bit-identical to the sequential loop;
* **Worker sharding** — :func:`repro.core.batch.embed_many` and
  :func:`~repro.core.batch.embed_files` partition a batch across
  scheduler workers: every worker builds its
  :class:`~repro.core.generator.WatermarkGenerator` once per ``init_key``
  via the ``embed.state`` initializer registered here, chunks are
  dispatched in input order, and results come back in input order — on
  the local scheduler or a remote worker fleet.

Sharded embedding requires the generator's randomness source to be a
plain seed (or ``None``): an ``int`` seed reproduces per dataset rather
than threading one mutable stream through the batch, so the outcome is
independent of which worker embeds which dataset — exactly the property
that makes the sharded results equal to the sequential ones. A live
:class:`numpy.random.Generator` cannot give that guarantee and is
rejected.

``tests/test_embedding.py`` asserts batched/sharded parity (including a
hypothesis sweep over arbitrary dataset lists) and
``benchmarks/bench_embed_many.py`` tracks the amortisation speedup.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.config import GenerationConfig
from repro.core.generator import WatermarkGenerator, WatermarkResult
from repro.core.histogram import TokenHistogram
from repro.core.tokens import TokenValue
from repro.exec.scheduler import register_initializer, register_task_function

#: A dataset to embed: a raw token sequence or a pre-built histogram.
EmbedData = Union[Sequence[TokenValue], TokenHistogram]


def generator_fingerprint(
    config: Optional[GenerationConfig], seed: Optional[int]
) -> str:
    """Stable cache key for a ``(config, seed)`` generator build.

    The scheduler caches initializer products per ``init_key`` — two
    batches sharing a configuration and seed share one worker-side
    generator, while any differing field forces a rebuild.
    """
    resolved = config or GenerationConfig()
    payload = json.dumps(
        {"config": asdict(resolved), "seed": seed},
        sort_keys=True,
        default=str,
    )
    return "gen-" + hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _build_generator(
    config: Optional[GenerationConfig], seed: Optional[int]
) -> WatermarkGenerator:
    """``embed.state`` initializer: build the per-worker generator."""
    return WatermarkGenerator(config, rng=seed)


def _embed_chunk(
    generator: WatermarkGenerator,
    payload: Tuple[List[EmbedData], Optional[List[Optional[int]]]],
) -> List[WatermarkResult]:
    """``embed.chunk`` task: one ``generate_many`` pass over a chunk."""
    chunk, secret_values = payload
    return generator.generate_many(chunk, secret_values=secret_values)


def _embed_one_file(
    generator: WatermarkGenerator,
    path: Path,
    output_dir: Path,
    secret_dir: Path,
) -> Dict[str, object]:
    """Watermark one token file, writing the edited file and its secret.

    With a seeded generator the per-file randomness is re-derived from
    ``(seed, file name)``: a constant seed re-applied verbatim would
    hand every file the *same* secret ``R``, and the per-buyer tracing
    workflow collapses the moment one recipient's secret list reveals
    the ``R`` behind everyone else's watermark. Deriving per file keeps
    the run reproducible (same seed + same file -> same watermark)
    while every file still gets an independent secret.
    """
    # Imported lazily: repro.datasets depends on repro.core, so the
    # dependency must stay one-way at module-import time.
    from repro.datasets.loaders import load_token_file, save_token_file
    from repro.utils.rng import derive_rng

    if generator._rng_source is not None:
        generator = WatermarkGenerator(
            generator.config,
            rng=derive_rng(generator._rng_source, "embed-file", path.name),
        )
    tokens = load_token_file(path)
    result = generator.generate(tokens)
    output_path = output_dir / path.name
    secret_path = secret_dir / (path.name + ".json")
    assert result.watermarked_tokens is not None  # raw-token mode
    save_token_file(result.watermarked_tokens, output_path)
    result.secret.save(secret_path)
    summary = result.summary()
    summary["input"] = str(path)
    summary["output"] = str(output_path)
    summary["secret_file"] = str(secret_path)
    return summary


def _embed_file_chunk(
    generator: WatermarkGenerator,
    payload: Tuple[List[Path], Path, Path],
) -> List[Dict[str, object]]:
    """``embed.files`` task: watermark one chunk of token files."""
    paths, output_dir, secret_dir = payload
    return [
        _embed_one_file(generator, path, output_dir, secret_dir)
        for path in paths
    ]


register_initializer("embed.state", _build_generator)
register_task_function("embed.chunk", _embed_chunk)
register_task_function("embed.files", _embed_file_chunk)


@dataclass(frozen=True)
class BatchEmbeddingReport:
    """Outcome of embedding a batch of datasets.

    Attributes
    ----------
    results:
        One :class:`~repro.core.generator.WatermarkResult` per input
        dataset, in input order.
    """

    results: Tuple[WatermarkResult, ...]

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def __getitem__(self, index: int) -> WatermarkResult:
        return self.results[index]

    @property
    def secrets(self) -> Tuple[object, ...]:
        """Per-dataset secret lists ``L_sc``, aligned with the input order."""
        return tuple(result.secret for result in self.results)

    @property
    def watermarked_histograms(self) -> Tuple[TokenHistogram, ...]:
        """Per-dataset watermarked histograms, aligned with the input order."""
        return tuple(result.watermarked_histogram for result in self.results)

    def summary(self) -> Dict[str, object]:
        """Flat summary used by the CLI and benchmarks."""
        total = len(self.results)
        return {
            "datasets": total,
            "selected_pairs_total": sum(result.pair_count for result in self.results),
            "mean_selected_pairs": (
                sum(result.pair_count for result in self.results) / total
                if total
                else 0.0
            ),
            "mean_distortion_percent": (
                sum(result.distortion_percent for result in self.results) / total
                if total
                else 0.0
            ),
            "total_changes": sum(result.total_changes for result in self.results),
        }


__all__ = [
    "EmbedData",
    "BatchEmbeddingReport",
    "generator_fingerprint",
]
