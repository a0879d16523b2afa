"""Frequency-modification rule (the watermark embedding arithmetic).

Once a pair ``(tk_i, tk_j)`` (higher-frequency member first) with modulus
``s_ij`` has been selected, the watermark drives the frequency difference
to a multiple of ``s_ij``. With ``r = (f_i - f_j) mod s_ij``:

* if ``r == 0`` the pair is already aligned and nothing changes;
* if ``r <= s_ij / 2`` the difference is *reduced* by ``r``: the higher
  token loses ``ceil(r / 2)`` appearances and the lower token gains
  ``floor(r / 2)``;
* otherwise the difference is *increased* by ``s_ij - r`` to reach the
  next multiple: the higher token gains ``ceil((s_ij - r) / 2)`` and the
  lower token loses ``floor((s_ij - r) / 2)``.

Either way no token moves by more than ``ceil(s_ij / 2)``, which is what
the eligibility boundary rule guarantees room for — hence the ranking
constraint always survives the modification. The paper's running example
(YouTube 1098 / Instagram 537, ``s_ij = 129``) maps to the second case and
produces exactly the -23/+22 adjustment shown in Figure 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.core.eligibility import EligiblePair
from repro.core.histogram import TokenHistogram
from repro.core.tokens import TokenPair
from repro.exceptions import GenerationError


@dataclass(frozen=True)
class PairAdjustment:
    """The frequency deltas that watermark one pair.

    ``delta_first`` applies to the pair's higher-frequency token and
    ``delta_second`` to the lower-frequency one. ``cost`` is the total
    number of appearance insertions plus removals (``|delta_first| +
    |delta_second|``).
    """

    pair: TokenPair
    modulus: int
    delta_first: int
    delta_second: int

    @property
    def cost(self) -> int:
        """Total appearance changes implied by this adjustment."""
        return abs(self.delta_first) + abs(self.delta_second)

    def as_deltas(self) -> Dict[str, int]:
        """Token->delta mapping suitable for ``TokenHistogram.with_updates``."""
        return {self.pair.first: self.delta_first, self.pair.second: self.delta_second}


def plan_adjustment(
    frequency_first: int,
    frequency_second: int,
    modulus: int,
    pair: TokenPair,
) -> PairAdjustment:
    """Compute the adjustment aligning one pair to its modulus.

    ``frequency_first`` must be greater than or equal to
    ``frequency_second`` (the pair convention); the returned deltas make
    ``(f'_first - f'_second) mod modulus == 0``.
    """
    if modulus < 2:
        raise GenerationError(f"pair modulus must be >= 2, got {modulus}")
    if frequency_first < frequency_second:
        raise GenerationError(
            "pair convention violated: first token must have the larger frequency "
            f"({frequency_first} < {frequency_second})"
        )
    difference = frequency_first - frequency_second
    remainder = difference % modulus
    if remainder == 0:
        return PairAdjustment(pair=pair, modulus=modulus, delta_first=0, delta_second=0)
    if remainder <= modulus // 2:
        # Shrink the difference by `remainder`.
        delta_first = -math.ceil(remainder / 2)
        delta_second = remainder + delta_first
    else:
        # Grow the difference up to the next multiple of the modulus.
        growth = modulus - remainder
        delta_first = math.ceil(growth / 2)
        delta_second = delta_first - growth
    return PairAdjustment(
        pair=pair, modulus=modulus, delta_first=delta_first, delta_second=delta_second
    )


def plan_deltas(
    first: np.ndarray, second: np.ndarray, moduli: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized :func:`plan_adjustment` arithmetic over many pairs.

    For each pair, split the cheaper of the shrink distance ``r`` and the
    growth distance ``modulus - r`` across both tokens (first token gets
    the ``ceil`` half) so that ``(f_i - f_j) mod modulus == 0`` afterwards.
    Already-aligned pairs get zero deltas. Returns ``(delta_first,
    delta_second)``, bit-identical to :func:`plan_adjustment` per pair.
    """
    remainder = (first - second) % moduli
    growth = moduli - remainder
    shrink = remainder <= moduli // 2
    delta_first = np.where(shrink, -((remainder + 1) // 2), (growth + 1) // 2)
    delta_second = np.where(shrink, remainder + delta_first, delta_first - growth)
    aligned = remainder == 0
    delta_first = np.where(aligned, 0, delta_first)
    delta_second = np.where(aligned, 0, delta_second)
    return delta_first, delta_second


def plan_adjustments(
    histogram: TokenHistogram,
    selected: Sequence[EligiblePair],
) -> List[PairAdjustment]:
    """Plan the adjustments for every selected pair against ``histogram``.

    The ceil/floor arithmetic of :func:`plan_adjustment` is evaluated for
    all pairs at once by :func:`plan_deltas`; the result is identical to
    calling :func:`plan_adjustment` per pair.
    """
    if not selected:
        return []
    arrays = histogram.arrays()
    first = arrays.frequencies(item.pair.first for item in selected)
    second = arrays.frequencies(item.pair.second for item in selected)
    moduli = np.fromiter(
        (item.modulus for item in selected), dtype=np.int64, count=len(selected)
    )
    if np.any(moduli < 2):
        bad = selected[int(np.nonzero(moduli < 2)[0][0])]
        raise GenerationError(f"pair modulus must be >= 2, got {bad.modulus}")
    if np.any(first < second):
        index = int(np.nonzero(first < second)[0][0])
        raise GenerationError(
            "pair convention violated: first token must have the larger frequency "
            f"({int(first[index])} < {int(second[index])})"
        )
    delta_first, delta_second = plan_deltas(first, second, moduli)
    return [
        PairAdjustment(
            pair=item.pair,
            modulus=item.modulus,
            delta_first=int(delta_first[index]),
            delta_second=int(delta_second[index]),
        )
        for index, item in enumerate(selected)
    ]


def combined_deltas(adjustments: Iterable[PairAdjustment]) -> Dict[str, int]:
    """Merge per-pair adjustments into a single token->delta mapping.

    Selected pairs never share a token (they come from a matching), but the
    merge is written defensively to sum deltas if they ever did.
    """
    deltas: Dict[str, int] = {}
    for adjustment in adjustments:
        for token, delta in adjustment.as_deltas().items():
            deltas[token] = deltas.get(token, 0) + delta
    return deltas


def apply_adjustments(
    histogram: TokenHistogram,
    adjustments: Sequence[PairAdjustment],
) -> TokenHistogram:
    """Return a new histogram with all adjustments applied."""
    return histogram.with_updates(combined_deltas(adjustments))


def verify_alignment(
    histogram: TokenHistogram,
    adjustments: Sequence[PairAdjustment],
) -> bool:
    """Check that every adjusted pair satisfies the modulo-zero rule.

    Used as a post-condition by the generator and extensively by the test
    suite: after applying ``adjustments`` to ``histogram`` the difference
    of every pair must be congruent to zero modulo the pair's modulus.
    """
    if not adjustments:
        return True
    watermarked = apply_adjustments(histogram, adjustments)
    arrays = watermarked.arrays()
    first = arrays.frequencies(adjustment.pair.first for adjustment in adjustments)
    second = arrays.frequencies(adjustment.pair.second for adjustment in adjustments)
    moduli = np.fromiter(
        (adjustment.modulus for adjustment in adjustments),
        dtype=np.int64,
        count=len(adjustments),
    )
    return bool(np.all((first - second) % moduli == 0))


def total_cost(adjustments: Sequence[PairAdjustment]) -> int:
    """Total number of appearance changes across all adjustments."""
    return sum(adjustment.cost for adjustment in adjustments)


__all__ = [
    "PairAdjustment",
    "plan_adjustment",
    "plan_adjustments",
    "plan_deltas",
    "combined_deltas",
    "apply_adjustments",
    "verify_alignment",
    "total_cost",
]
