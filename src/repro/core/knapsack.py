"""Equally-valued 0/1 knapsack under the similarity budget (QKP).

After Maximum Weight Matching proposes a vertex-disjoint set of cheap
pairs, the budget constraint still has to be enforced: the similarity
between the original and watermarked histograms must stay at or above
``(100 - b)%``. Because every pair is worth exactly one unit of watermark
strength, this is the *equally valued* 0/1 knapsack the paper describes —
NP-hard in general but solvable greedily when all values are equal: take
items in increasing order of weight (embedding cost) until the budget is
exhausted, which maximises the number of items packed.

The "weight" of a pair is not additive in a simple scalar, however — it is
the similarity drop its frequency adjustment causes, which depends on the
already-applied adjustments. The selector therefore applies adjustments
incrementally, measuring the similarity of the running histogram after
each candidate, exactly as an owner running the algorithm would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.eligibility import EligiblePair
from repro.core.histogram import TokenHistogram
from repro.core.modification import PairAdjustment, plan_adjustment
from repro.core.similarity import SimilarityTracker
from repro.exceptions import MatchingError
from repro.obs.trace import span as trace_span


@dataclass(frozen=True)
class BudgetedSelection:
    """Result of the budget-constrained pair selection.

    Attributes
    ----------
    selected:
        Pairs kept within the budget, in the order they were accepted.
    adjustments:
        The frequency adjustment planned for each selected pair.
    rejected:
        Candidate pairs that were skipped because accepting them would
        have pushed the similarity below ``(100 - budget)%``.
    similarity_percent:
        Similarity between the original histogram and the histogram with
        all selected adjustments applied.
    """

    selected: Tuple[EligiblePair, ...]
    adjustments: Tuple[PairAdjustment, ...]
    rejected: Tuple[EligiblePair, ...]
    similarity_percent: float


def select_within_budget(
    histogram: TokenHistogram,
    candidates: Sequence[EligiblePair],
    budget: float,
    *,
    metric: str = "cosine",
    order_by_cost: bool = True,
    max_pairs: Optional[int] = None,
) -> BudgetedSelection:
    """Select the largest subset of ``candidates`` respecting the budget.

    Parameters
    ----------
    histogram:
        The original histogram similarity is measured against.
    candidates:
        Vertex-disjoint eligible pairs (typically the MWM output, or the
        sorted/ shuffled eligible list for the heuristics).
    budget:
        The distortion budget ``b`` in percent; the selection keeps
        ``similarity >= 100 - budget``.
    metric:
        Similarity metric name (see :mod:`repro.core.similarity`).
    order_by_cost:
        When True (the optimal and greedy paths) candidates are visited in
        increasing embedding cost; when False (the random heuristic) they
        are visited in the given order.
    max_pairs:
        Optional hard cap on the number of selected pairs; candidates past
        the cap are reported as rejected. The paper's objective is "as many
        pairs as the budget allows", but owners tracking many dataset
        versions may prefer a fixed, small watermark per version.

    Notes
    -----
    Candidates whose adjustment would overdraw the budget are skipped but
    later, cheaper-in-context candidates are still considered; with
    cost-ordered input this matches the greedy optimum for equally valued
    items while being robust to the non-additivity of the similarity drop.

    The similarity constraint is evaluated through a
    :class:`repro.core.similarity.SimilarityTracker`, so each candidate
    costs an O(1) aggregate delta (preview, then commit on acceptance)
    instead of the seed implementation's full O(n) metric recompute per
    candidate; see :mod:`repro.core.reference` for the original loop.
    """
    if budget < 0 or budget > 100:
        raise MatchingError(f"budget b must be within [0, 100], got {budget}")
    with trace_span("core.knapsack") as stage:
        minimum_similarity = 100.0 - budget
        ordered = (
            sorted(candidates, key=lambda item: (item.cost, item.pair))
            if order_by_cost
            else list(candidates)
        )

        selected: List[EligiblePair] = []
        adjustments: List[PairAdjustment] = []
        rejected: List[EligiblePair] = []
        tracker = SimilarityTracker(histogram, metric=metric)
        current_similarity = 100.0

        for item in ordered:
            if max_pairs is not None and len(selected) >= max_pairs:
                rejected.append(item)
                continue
            adjustment = plan_adjustment(
                tracker.current_count(item.pair.first),
                tracker.current_count(item.pair.second),
                item.modulus,
                item.pair,
            )
            if adjustment.cost == 0:
                # Already aligned: watermarking this pair is free.
                selected.append(item)
                adjustments.append(adjustment)
                continue
            tentative_similarity = tracker.peek_percent(adjustment.as_deltas())
            if tentative_similarity + 1e-12 >= minimum_similarity:
                selected.append(item)
                adjustments.append(adjustment)
                tracker.apply(adjustment.as_deltas())
                current_similarity = tentative_similarity
            else:
                rejected.append(item)
        if stage.recording:
            stage.set_attribute("candidates", len(ordered))
            stage.set_attribute("kept", len(selected))

    return BudgetedSelection(
        selected=tuple(selected),
        adjustments=tuple(adjustments),
        rejected=tuple(rejected),
        similarity_percent=current_similarity,
    )


def knapsack_capacity_report(selection: BudgetedSelection, budget: float) -> dict:
    """Small summary dictionary used by benchmarks and the CLI."""
    return {
        "selected_pairs": len(selection.selected),
        "rejected_pairs": len(selection.rejected),
        "similarity_percent": selection.similarity_percent,
        "budget_percent": budget,
        "budget_used_percent": 100.0 - selection.similarity_percent,
        "total_cost": sum(adjustment.cost for adjustment in selection.adjustments),
    }


__all__ = ["BudgetedSelection", "select_within_budget", "knapsack_capacity_report"]
