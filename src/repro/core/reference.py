"""Seed (dict-loop) implementations kept as executable specification.

The vectorized engine (:mod:`repro.core.arrays`, the array-backed
histogram, :class:`repro.core.similarity.SimilarityTracker`, the batched
detector) and the C-speed token passes (the batched histogram count,
the sliced dataset edit) replaced the original pure-Python hot paths of
this reproduction. The originals are preserved here, byte-for-byte in
behaviour, for two purposes:

* **golden parity tests** — ``tests/test_engine_parity.py`` asserts the
  vectorized engine produces identical generation and detection outcomes
  on randomized and adversarial inputs;
* **benchmarks** — ``benchmarks/bench_engine_scaling.py`` measures the
  speedup of the engine against these reference implementations.

Nothing in the production pipeline imports this module; it must never be
"optimised", or the parity tests lose their anchor.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Union

from repro.core.config import DetectionConfig
from repro.core.detector import DetectionResult, PairEvidence
from repro.core.eligibility import EligiblePair
from repro.core.hashing import pair_modulus
from repro.core.histogram import TokenHistogram
from repro.core.knapsack import BudgetedSelection
from repro.core.modification import PairAdjustment, plan_adjustment
from repro.core.secrets import WatermarkSecret
from repro.core.similarity import similarity_percent
from repro.core.tokens import TokenValue, canonical_token
from repro.exceptions import (
    DetectionError,
    GenerationError,
    HistogramError,
    MatchingError,
)
from repro.utils.rng import RngLike, ensure_rng


def histogram_from_tokens_reference(tokens: Iterable[TokenValue]) -> TokenHistogram:
    """The seed ``Preprocess`` count: one canonicalisation per occurrence.

    This is the per-occurrence ``canonical_token`` + ``dict.get`` loop
    that the batched ``Counter`` routine behind
    :meth:`repro.core.histogram.TokenHistogram.from_tokens` and
    :class:`repro.core.streaming.StreamingHistogramBuilder` replaced.
    """
    counts: Dict[str, int] = {}
    for value in tokens:
        token = canonical_token(value)
        counts[token] = counts.get(token, 0) + 1
    if not counts:
        raise HistogramError("cannot build a histogram from an empty dataset")
    return TokenHistogram(counts)


def apply_deltas_reference(
    tokens: Sequence[TokenValue],
    deltas: Mapping[str, int],
    *,
    rng: RngLike = None,
) -> List[str]:
    """The seed ``Create`` edit: three per-element passes over the tokens.

    A canonical copy of the sequence, a per-position removal scan and a
    per-position keep filter — the passes that
    :func:`repro.core.transform.apply_deltas_to_tokens` replaced with C
    speed ones, drawing the same random numbers in the same order. A
    string occurrence is kept as given (a ``numpy.str_`` stays one);
    every other value becomes its canonical token string.
    """
    generator = ensure_rng(rng)
    canonical = [
        token if isinstance(token, str) else canonical_token(token) for token in tokens
    ]

    # Plan removals: choose random occurrence indices per token.
    removal_indices: set = set()
    positions_by_token: Dict[str, List[int]] = {}
    removals = {token: -delta for token, delta in deltas.items() if delta < 0}
    if removals:
        for index, token in enumerate(canonical):
            if token in removals:
                positions_by_token.setdefault(token, []).append(index)
        for token, count in removals.items():
            positions = positions_by_token.get(token, [])
            if len(positions) < count:
                raise GenerationError(
                    f"cannot remove {count} appearances of {token!r}: only "
                    f"{len(positions)} present"
                )
            chosen = generator.choice(len(positions), size=count, replace=False)
            removal_indices.update(positions[i] for i in chosen)

    result = [token for index, token in enumerate(canonical) if index not in removal_indices]

    # Plan insertions: new appearances land at random positions.
    additions = {token: delta for token, delta in deltas.items() if delta > 0}
    for token, count in additions.items():
        for _ in range(count):
            position = int(generator.integers(0, len(result) + 1))
            result.insert(position, token)
    return result


def select_within_budget_reference(
    histogram: TokenHistogram,
    candidates: Sequence[EligiblePair],
    budget: float,
    *,
    metric: str = "cosine",
    order_by_cost: bool = True,
    max_pairs: Optional[int] = None,
) -> BudgetedSelection:
    """The seed budget selection: full similarity recompute per candidate.

    This is the O(n·m) loop the incremental-tracker rewrite in
    :func:`repro.core.knapsack.select_within_budget` replaced — every
    candidate pair triggers a full union-alignment and metric evaluation
    over all n tokens.
    """
    if budget < 0 or budget > 100:
        raise MatchingError(f"budget b must be within [0, 100], got {budget}")
    minimum_similarity = 100.0 - budget
    original_counts = histogram.as_dict()
    ordered = (
        sorted(candidates, key=lambda item: (item.cost, item.pair))
        if order_by_cost
        else list(candidates)
    )

    selected: List[EligiblePair] = []
    adjustments: List[PairAdjustment] = []
    rejected: List[EligiblePair] = []
    working = histogram
    current_similarity = 100.0

    for item in ordered:
        if max_pairs is not None and len(selected) >= max_pairs:
            rejected.append(item)
            continue
        adjustment = plan_adjustment(
            working.frequency(item.pair.first),
            working.frequency(item.pair.second),
            item.modulus,
            item.pair,
        )
        if adjustment.cost == 0:
            # Already aligned: watermarking this pair is free.
            selected.append(item)
            adjustments.append(adjustment)
            continue
        tentative = working.with_updates(adjustment.as_deltas())
        tentative_similarity = similarity_percent(
            original_counts, tentative.as_dict(), metric=metric
        )
        if tentative_similarity + 1e-12 >= minimum_similarity:
            selected.append(item)
            adjustments.append(adjustment)
            working = tentative
            current_similarity = tentative_similarity
        else:
            rejected.append(item)

    return BudgetedSelection(
        selected=tuple(selected),
        adjustments=tuple(adjustments),
        rejected=tuple(rejected),
        similarity_percent=current_similarity,
    )


def detect_reference(
    data: Union[Sequence[TokenValue], TokenHistogram],
    secret: WatermarkSecret,
    config: Optional[DetectionConfig] = None,
) -> DetectionResult:
    """The seed ``WM_Detect`` loop: per-pair hashing on every call.

    Every invocation recomputes ``s_ij`` for every stored pair (two
    SHA-256 evaluations each) and walks the pairs in a Python loop —
    exactly what the seed ``WatermarkDetector.detect`` did before moduli
    caching and the vectorized verification pass.
    """
    if len(secret.pairs) == 0:
        raise DetectionError("the secret list contains no watermarked pairs")
    config = config or DetectionConfig()
    histogram = (
        data if isinstance(data, TokenHistogram) else TokenHistogram.from_tokens(data)
    )
    evidence: List[PairEvidence] = []
    accepted_pairs = 0
    for pair in secret.pairs:
        modulus = pair_modulus(pair.first, pair.second, secret.secret, secret.modulus_cap)
        threshold = config.threshold_for(modulus)
        present = pair.first in histogram and pair.second in histogram
        if not present:
            evidence.append(
                PairEvidence(
                    pair=pair,
                    present=False,
                    modulus=modulus,
                    remainder=None,
                    threshold=threshold,
                    accepted=False,
                )
            )
            continue
        if modulus < 2:
            # A modulus of 0 or 1 carries no information (the generation
            # algorithm never selects such pairs); treat the pair as
            # unverifiable so forged secrets cannot exploit it.
            evidence.append(
                PairEvidence(
                    pair=pair,
                    present=True,
                    modulus=modulus,
                    remainder=None,
                    threshold=threshold,
                    accepted=False,
                )
            )
            continue
        difference = histogram.frequency(pair.first) - histogram.frequency(pair.second)
        remainder = difference % modulus
        if config.symmetric_tolerance:
            accepted = min(remainder, modulus - remainder) <= threshold
        else:
            accepted = remainder <= threshold
        if accepted:
            accepted_pairs += 1
        evidence.append(
            PairEvidence(
                pair=pair,
                present=True,
                modulus=modulus,
                remainder=remainder,
                threshold=threshold,
                accepted=accepted,
            )
        )
    required = config.required_pairs(len(secret.pairs))
    return DetectionResult(
        accepted=accepted_pairs >= required,
        accepted_pairs=accepted_pairs,
        required_pairs=required,
        total_pairs=len(secret.pairs),
        evidence=tuple(evidence),
    )


__all__ = [
    "histogram_from_tokens_reference",
    "apply_deltas_reference",
    "select_within_budget_reference",
    "detect_reference",
]
