"""Judge protocol for ownership disputes — Section V-D.

When a pirate re-watermarks an honestly watermarked dataset, both parties
can show a secret that verifies on *some* version of the data. The paper
resolves the dispute with a trusted judge: each party submits its secret
list and its claimed watermarked dataset, the judge runs the detection
algorithm for every (secret, dataset) combination (four runs for two
parties), and the genuine owner is the party whose secret verifies on
**both** datasets — its watermark predates the attacker's copy and is
therefore present everywhere, whereas the attacker's watermark is absent
from the owner's earlier version.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from repro.core.cache import DetectorCache
from repro.core.config import DetectionConfig
from repro.core.detector import DetectionResult
from repro.core.histogram import TokenHistogram
from repro.core.secrets import WatermarkSecret
from repro.core.tokens import TokenValue
from repro.exceptions import DisputeError

if False:  # pragma: no cover - import cycle guard, typing aid only
    from repro.dispute.registry import WatermarkRegistry


@dataclass(frozen=True)
class OwnershipClaim:
    """One party's submission to the judge."""

    claimant: str
    secret: WatermarkSecret
    claimed_data: TokenHistogram

    @classmethod
    def from_tokens(
        cls, claimant: str, secret: WatermarkSecret, tokens: Sequence[TokenValue]
    ) -> "OwnershipClaim":
        """Build a claim from a raw token sequence."""
        return cls(
            claimant=claimant,
            secret=secret,
            claimed_data=TokenHistogram.from_tokens(tokens),
        )


@dataclass(frozen=True)
class Verdict:
    """The judge's decision and the evidence matrix behind it.

    ``detections[claimant_a][claimant_b]`` is the detection of claimant
    a's secret on claimant b's submitted dataset.
    """

    winner: Optional[str]
    reason: str
    detections: Dict[str, Dict[str, DetectionResult]] = field(default_factory=dict)

    @property
    def resolved(self) -> bool:
        """True when the judge could single out one rightful owner."""
        return self.winner is not None


class Judge:
    """Trusted third party arbitrating competing ownership claims.

    The primary decision rule is the paper's: the rightful owner is the
    unique claimant whose secret verifies on **every** submitted dataset.
    In practice a re-watermarking attacker's secret can *partially* verify
    on the owner's earlier version, because the optimal selection happily
    includes pairs that were already aligned by chance and those pairs
    survive backwards in time. When the primary rule is ambiguous the
    judge therefore falls back to a margin rule: each claimant is scored
    by the *minimum* accepted-pair fraction its secret achieves across all
    submitted datasets, and the claimant with the clearly highest score
    wins (the genuine owner's pairs verify almost fully everywhere, while
    a forger's verify only at the chance-alignment rate on data predating
    its watermark). ``margin`` controls how clear the separation must be.
    """

    def __init__(
        self,
        detection: Optional[DetectionConfig] = None,
        *,
        margin: float = 0.15,
        registry: Optional["WatermarkRegistry"] = None,
        detector_cache: Optional[DetectorCache] = None,
    ) -> None:
        self.detection = detection or DetectionConfig(pair_threshold=0)
        if not 0.0 <= margin < 1.0:
            raise DisputeError("margin must lie in [0, 1)")
        self.margin = margin
        self.registry = registry
        # Unbounded by default: a judge's working set is the claimants of
        # the disputes it arbitrates, and re-arbitrating (with amended
        # claims, say) must not rebuild any claimant's detector.
        self.detector_cache = (
            detector_cache if detector_cache is not None else DetectorCache(capacity=None)
        )

    def arbitrate(self, claims: Sequence[OwnershipClaim]) -> Verdict:
        """Run cross-detections for every claim pair and decide the owner."""
        if len(claims) < 2:
            raise DisputeError("arbitration needs at least two competing claims")
        names = [claim.claimant for claim in claims]
        if len(set(names)) != len(names):
            raise DisputeError("claimants must have distinct names")

        detections: Dict[str, Dict[str, DetectionResult]] = {}
        for claimant in claims:
            detector = self.detector_cache.get(claimant.secret, self.detection)
            detections[claimant.claimant] = {
                other.claimant: detector.detect(other.claimed_data) for other in claims
            }

        universal = [
            claimant.claimant
            for claimant in claims
            if all(result.accepted for result in detections[claimant.claimant].values())
        ]
        if len(universal) == 1:
            return Verdict(
                winner=universal[0],
                reason=(
                    f"only {universal[0]}'s secret verifies on every submitted dataset"
                ),
                detections=detections,
            )
        if not universal:
            return Verdict(
                winner=None,
                reason="no claimant's secret verifies on every submitted dataset",
                detections=detections,
            )

        # Fallback margin rule over the ambiguous (multi-universal) case.
        scores = {
            name: min(result.accepted_fraction for result in detections[name].values())
            for name in names
        }
        ranked = sorted(scores.items(), key=lambda item: -item[1])
        best_name, best_score = ranked[0]
        runner_up_score = ranked[1][1]
        if best_score >= runner_up_score + self.margin:
            return Verdict(
                winner=best_name,
                reason=(
                    f"{best_name}'s secret verifies {best_score:.0%} of its pairs on every "
                    f"dataset versus {runner_up_score:.0%} for the next claimant"
                ),
                detections=detections,
            )

        # Final tie-break: chronological order in the immutable watermark
        # registry (the paper's index). A forger that cherry-picks pairs
        # already aligned in the victim's data can make its secret verify
        # everywhere, but it cannot have registered that secret before the
        # genuine owner published its version.
        if self.registry is not None:
            chronological = self._registry_order(universal, claims)
            if chronological is not None:
                winner, index = chronological
                return Verdict(
                    winner=winner,
                    reason=(
                        f"{winner}'s watermark fingerprint was registered first "
                        f"(registry entry #{index})"
                    ),
                    detections=detections,
                )
        return Verdict(
            winner=None,
            reason=(
                "multiple claimants verify on every dataset with no clear margin: "
                + ", ".join(sorted(universal))
            ),
            detections=detections,
        )

    def _registry_order(
        self, candidate_names: Sequence[str], claims: Sequence[OwnershipClaim]
    ) -> Optional[tuple]:
        """Earliest-registered candidate by secret fingerprint, if any."""
        fingerprint_by_name = {
            claim.claimant: claim.secret.fingerprint()
            for claim in claims
            if claim.claimant in candidate_names
        }
        earliest: Optional[tuple] = None
        for entry in self.registry.entries:
            for name, fingerprint in fingerprint_by_name.items():
                if entry.fingerprint == fingerprint:
                    if earliest is None or entry.index < earliest[1]:
                        earliest = (name, entry.index)
        return earliest


__all__ = ["OwnershipClaim", "Verdict", "Judge"]
