"""Multi-watermarking: successive watermarks on the same dataset.

Section VI motivates watermarking a dataset several times — legitimately,
to track provenance across a processing pipeline or to fingerprint each
buyer, or maliciously, as the re-watermarking attack of Section V-D. This
module supports the legitimate uses:

* :class:`MultiWatermarker` applies ``n`` successive watermarks (each with
  its own secret) and reports how the cumulative distortion evolves — the
  paper observes that 10 successive watermarks at ``b = 2`` cost only
  ~0.003 % similarity.
* :class:`ProvenanceChain` keeps the per-stage secrets in order and checks
  which prefix of the chain is still detectable in a suspected dataset,
  which also gives the chronological ordering needed to defeat a
  re-watermarking attack (the genuine owner's watermark is detectable in
  the attacker's version but not vice versa).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Union

from repro.core.batch import detect_many_secrets
from repro.core.cache import DetectorCache
from repro.core.config import DetectionConfig, GenerationConfig
from repro.core.generator import WatermarkGenerator, WatermarkResult
from repro.core.histogram import TokenHistogram
from repro.core.secrets import WatermarkSecret
from repro.core.similarity import similarity_percent
from repro.core.tokens import TokenValue
from repro.exceptions import GenerationError
from repro.utils.rng import RngLike, derive_rng


@dataclass(frozen=True)
class WatermarkRound:
    """One stage of a multi-watermarking run."""

    index: int
    result: WatermarkResult
    cumulative_similarity_percent: float


@dataclass
class MultiWatermarkResult:
    """Outcome of applying several successive watermarks.

    ``rounds[i]`` holds the i-th embedding and the similarity of the
    dataset *after* that embedding relative to the very first original.
    """

    original_histogram: TokenHistogram
    rounds: List[WatermarkRound] = field(default_factory=list)
    #: Shared cache of per-round detectors (one stage = one secret);
    #: unbounded because the working set is exactly the chain length.
    detector_cache: DetectorCache = field(
        default_factory=lambda: DetectorCache(capacity=None),
        repr=False,
        compare=False,
    )

    @property
    def final_histogram(self) -> TokenHistogram:
        """Histogram after the last embedding round."""
        if not self.rounds:
            return self.original_histogram
        return self.rounds[-1].result.watermarked_histogram

    @property
    def final_similarity_percent(self) -> float:
        """Similarity of the final version against the original."""
        return similarity_percent(
            self.original_histogram.as_dict(), self.final_histogram.as_dict()
        )

    @property
    def secrets(self) -> List[WatermarkSecret]:
        """Secrets of every round, oldest first."""
        return [watermark_round.result.secret for watermark_round in self.rounds]

    def detect_round(
        self,
        round_index: int,
        data: Union[Sequence[TokenValue], TokenHistogram],
        *,
        config: Optional[DetectionConfig] = None,
    ):
        """Run detection for the watermark embedded at ``round_index``.

        The per-round detector comes from the shared cache, so sweeping
        detection across rounds and dataset versions pays each round's
        moduli precomputation once.
        """
        secret = self.rounds[round_index].result.secret
        return self.detector_cache.get(secret, config).detect(data)


class MultiWatermarker:
    """Apply several successive FreqyWM watermarks to one dataset.

    Parameters
    ----------
    config:
        Generation configuration used by every round.
    protect_previous_rounds:
        When True, every round excludes the tokens already carrying an
        earlier round's watermark (via ``excluded_tokens``), so later
        embeddings never perturb earlier pairs. This keeps the whole
        provenance chain verifiable at the strict threshold ``t = 0`` and
        is the recommended setting for pipeline-stage tracking; with the
        default False the rounds are fully independent, matching the
        paper's Section VI experiment.
    """

    def __init__(
        self,
        config: Optional[GenerationConfig] = None,
        *,
        protect_previous_rounds: bool = False,
        rng: RngLike = None,
    ) -> None:
        self.config = config or GenerationConfig()
        self.protect_previous_rounds = protect_previous_rounds
        self._rng_source = rng

    def watermark(
        self,
        data: Union[Sequence[TokenValue], TokenHistogram],
        rounds: int,
    ) -> MultiWatermarkResult:
        """Embed ``rounds`` successive watermarks, each with a fresh secret."""
        if rounds < 1:
            raise GenerationError("at least one watermarking round is required")
        histogram = (
            data if isinstance(data, TokenHistogram) else TokenHistogram.from_tokens(data)
        )
        outcome = MultiWatermarkResult(original_histogram=histogram)
        current = histogram
        protected_tokens: List[str] = list(self.config.excluded_tokens)
        for index in range(rounds):
            round_rng = (
                derive_rng(self._rng_source, "multiwm", str(index))
                if self._rng_source is not None
                else None
            )
            round_config = self.config
            if self.protect_previous_rounds:
                round_config = replace(
                    self.config, excluded_tokens=tuple(protected_tokens)
                )
            generator = WatermarkGenerator(round_config, rng=round_rng)
            result = generator.generate(current)
            result = replace(result, secret=result.secret.with_metadata(round=index))
            cumulative = similarity_percent(histogram.as_dict(), result.watermarked_histogram.as_dict())
            outcome.rounds.append(
                WatermarkRound(
                    index=index,
                    result=result,
                    cumulative_similarity_percent=cumulative,
                )
            )
            if self.protect_previous_rounds:
                for pair in result.secret.pairs:
                    protected_tokens.extend(pair.as_tuple())
            current = result.watermarked_histogram
        return outcome


@dataclass
class ProvenanceChain:
    """Chronologically ordered watermark secrets for one dataset lineage.

    The chain supports the paper's two multi-watermark use cases: tracking
    which processing stages a dataset version has passed through, and
    ordering competing ownership claims (the earlier watermark survives in
    every later version, while a later watermark is absent from earlier
    versions).
    """

    secrets: List[WatermarkSecret] = field(default_factory=list)
    #: Shared cache of per-stage detectors; unbounded because the
    #: working set is exactly the chain length (times threshold configs).
    detector_cache: DetectorCache = field(
        default_factory=lambda: DetectorCache(capacity=None),
        repr=False,
        compare=False,
    )

    def append(self, secret: WatermarkSecret) -> None:
        """Record a new watermarking stage at the end of the chain."""
        self.secrets.append(secret)

    def __len__(self) -> int:
        return len(self.secrets)

    def detectable_prefix(
        self,
        data: Union[Sequence[TokenValue], TokenHistogram],
        *,
        config: Optional[DetectionConfig] = None,
    ) -> int:
        """Length of the longest chain prefix whose watermarks all verify.

        A dataset produced after stage ``i`` carries the watermarks of all
        stages ``<= i`` (modulo later distortion), so the detectable prefix
        length identifies how far along the pipeline the version is.
        """
        detection_config = config or DetectionConfig(pair_threshold=1)
        histogram = (
            data if isinstance(data, TokenHistogram) else TokenHistogram.from_tokens(data)
        )
        prefix = 0
        for secret in self.secrets:
            result = self.detector_cache.get(secret, detection_config).detect(histogram)
            if not result.accepted:
                break
            prefix += 1
        return prefix

    def detection_report(
        self,
        data: Union[Sequence[TokenValue], TokenHistogram],
        *,
        config: Optional[DetectionConfig] = None,
    ) -> List[Dict[str, object]]:
        """Per-stage detection summaries for a suspected dataset version.

        All stages are verified in **one** batched vectorized pass
        (:func:`repro.core.batch.detect_many_secrets`) — the dataset's
        frequencies are looked up once for the union of every stage's
        pair members; summaries are identical to per-stage detection.
        """
        detection_config = config or DetectionConfig(pair_threshold=1)
        histogram = (
            data if isinstance(data, TokenHistogram) else TokenHistogram.from_tokens(data)
        )
        report: List[Dict[str, object]] = []
        for index, result in enumerate(
            detect_many_secrets(histogram, self.secrets, detection_config)
        ):
            entry = result.summary()
            entry["round"] = index
            report.append(entry)
        return report


__all__ = [
    "WatermarkRound",
    "MultiWatermarkResult",
    "MultiWatermarker",
    "ProvenanceChain",
]
