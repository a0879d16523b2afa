"""Attack-robustness evaluation harness.

The Section V experiments all share the same skeleton: watermark a
reference dataset (synthetic power-law, α = 0.5, z = 131, b = 2 in the
paper), run a family of attacks with swept parameters, and report how the
detection behaves. :class:`RobustnessEvaluator` packages that skeleton so
benchmarks, examples and tests stay short and consistent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.attacks.destroy import (
    BoundaryNoiseAttack,
    PercentageNoiseAttack,
    reordering_success_rates,
    sweep_thresholds,
)
from repro.attacks.rewatermark import RewatermarkAttack, RewatermarkOutcome
from repro.attacks.sampling import SamplingDetectionPoint, evaluate_sampling_attack
from repro.core.cache import DetectorCache
from repro.core.config import GenerationConfig
from repro.core.generator import WatermarkGenerator, WatermarkResult
from repro.core.histogram import TokenHistogram
from repro.obs.trace import span as trace_span
from repro.utils.rng import RngLike, derive_rng


@dataclass
class RobustnessReport:
    """Aggregated output of a full robustness evaluation run.

    Where the evaluation spent its time is in its spans: one
    ``robustness.<family>`` span per attack family (see
    :meth:`RobustnessEvaluator.evaluate`).
    """

    watermark: WatermarkResult
    sampling: List[SamplingDetectionPoint] = field(default_factory=list)
    destroy_threshold_sweeps: Dict[str, list] = field(default_factory=dict)
    reordering_success: Dict[float, float] = field(default_factory=dict)
    rewatermark: Optional[RewatermarkOutcome] = None


class RobustnessEvaluator:
    """Run the paper's attack suite against one watermarked dataset.

    One private :class:`~repro.core.cache.DetectorCache` is shared
    across every attack family, so the owner's detector (per threshold
    setting) is constructed once for the whole evaluation instead of
    once per sweep point — verdicts are unchanged, only the redundant
    detector builds disappear.
    """

    def __init__(
        self,
        generation: Optional[GenerationConfig] = None,
        *,
        rng: RngLike = None,
    ) -> None:
        self.generation = generation or GenerationConfig()
        self._rng_source = rng
        # Unbounded: the working set is one secret times a handful of
        # threshold settings, already bounded by the sweep parameters.
        self._detectors = DetectorCache(capacity=None)

    def _rng(self, label: str):
        if self._rng_source is None:
            return None
        return derive_rng(self._rng_source, "robustness", label)

    def watermark(self, histogram: TokenHistogram) -> WatermarkResult:
        """Embed the reference watermark the attacks will target."""
        generator = WatermarkGenerator(self.generation, rng=self._rng("generate"))
        return generator.generate(histogram)

    def evaluate(
        self,
        histogram: TokenHistogram,
        *,
        sampling_fractions: Sequence[float] = (0.01, 0.05, 0.1, 0.2, 0.5, 0.9),
        sampling_thresholds: Sequence[int] = (0, 1, 2, 4, 10),
        destroy_thresholds: Sequence[int] = (0, 1, 2, 4, 10),
        reordering_percents: Sequence[float] = (10, 30, 50, 60, 80, 90),
        include_rewatermark: bool = True,
        repetitions: int = 3,
    ) -> RobustnessReport:
        """Watermark ``histogram`` and run every attack family against it.

        Each family runs in one ``robustness.<family>`` span, in this
        order: ``sampling``, ``destroy-no-attack``,
        ``destroy-random-within-bounds``,
        ``destroy-percentage-within-bounds``, ``destroy-reordering`` and
        ``rewatermark``. The detector builds of a family show as its
        ``core.detector_build`` child spans.
        """
        result = self.watermark(histogram)
        report = RobustnessReport(watermark=result)
        watermarked = result.watermarked_histogram
        secret = result.secret

        with trace_span("robustness.sampling"):
            report.sampling = evaluate_sampling_attack(
                watermarked,
                secret,
                fractions=sampling_fractions,
                thresholds=sampling_thresholds,
                repetitions=repetitions,
                rng=self._rng("sampling"),
                detector_cache=self._detectors,
            )

        with trace_span("robustness.destroy-no-attack"):
            report.destroy_threshold_sweeps["no-attack"] = sweep_thresholds(
                watermarked,
                secret,
                destroy_thresholds,
                attack=None,
                detector_cache=self._detectors,
            )
        with trace_span("robustness.destroy-random-within-bounds"):
            report.destroy_threshold_sweeps["random-within-bounds"] = sweep_thresholds(
                watermarked,
                secret,
                destroy_thresholds,
                attack=BoundaryNoiseAttack(rng=self._rng("destroy-random")),
                repetitions=repetitions,
                detector_cache=self._detectors,
            )
        with trace_span("robustness.destroy-percentage-within-bounds"):
            report.destroy_threshold_sweeps["percentage-within-bounds"] = (
                sweep_thresholds(
                    watermarked,
                    secret,
                    destroy_thresholds,
                    attack=PercentageNoiseAttack(1.0, rng=self._rng("destroy-percent")),
                    repetitions=repetitions,
                    detector_cache=self._detectors,
                )
            )

        with trace_span("robustness.destroy-reordering"):
            report.reordering_success = reordering_success_rates(
                watermarked,
                secret,
                percents=reordering_percents,
                repetitions=repetitions,
                rng=self._rng("destroy-reorder"),
                detector_cache=self._detectors,
            )

        if include_rewatermark:
            with trace_span("robustness.rewatermark"):
                attack = RewatermarkAttack(
                    self.generation,
                    rng=self._rng("rewatermark"),
                    detector_cache=self._detectors,
                )
                report.rewatermark = attack.run(watermarked, secret)
        return report


__all__ = ["RobustnessReport", "RobustnessEvaluator"]
