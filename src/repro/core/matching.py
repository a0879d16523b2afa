"""Pair-selection strategies: optimal (MWM + QKP), greedy, and random.

The paper evaluates three ways of turning the eligible-pair list ``L_e``
into the watermarked-pair list ``L_wm`` under the distortion budget ``b``:

* **Optimal** — build the eligible-pair graph, run Maximum Weight Matching
  (many pairs, minimal total remainder), then run the equally-valued 0/1
  knapsack over the matched edges so the similarity budget is respected.
* **Greedy** — sort all eligible pairs by their remainder (embedding
  cost) ascending and keep adding pairs, skipping any that would reuse a
  token or exceed the budget.
* **Random** — like greedy but visiting eligible pairs in random order.

All strategies return a :class:`SelectionResult`; the matcher registry at
the bottom lets the generator, the CLI and the benchmarks refer to them by
name ("optimal", "greedy", "random").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.eligibility import EligiblePair
from repro.core.graph import build_pair_graph, matching_is_valid, maximum_weight_matching
from repro.core.histogram import TokenHistogram
from repro.core.knapsack import select_within_budget
from repro.core.modification import PairAdjustment
from repro.exceptions import MatchingError
from repro.obs.trace import span as trace_span
from repro.utils.rng import RngLike, ensure_rng


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of a pair-selection strategy.

    Attributes
    ----------
    strategy:
        Name of the strategy that produced the result.
    selected:
        The final watermarked pairs ``L_wm`` (vertex-disjoint, within budget).
    adjustments:
        Planned frequency adjustment per selected pair.
    eligible_count:
        Size of the eligible list the strategy started from.
    matched_count:
        Pairs proposed before the budget stage (MWM output size for the
        optimal strategy; equals ``len(selected) + skipped`` for heuristics).
    similarity_percent:
        Similarity of the adjusted histogram versus the original.
    """

    strategy: str
    selected: Tuple[EligiblePair, ...]
    adjustments: Tuple[PairAdjustment, ...]
    eligible_count: int
    matched_count: int
    similarity_percent: float

    def __len__(self) -> int:
        return len(self.selected)


MatcherFunction = Callable[..., SelectionResult]


def vertex_disjoint(pairs: Sequence[EligiblePair]) -> List[EligiblePair]:
    """Filter ``pairs`` keeping only pairs that do not reuse a token.

    First-come-first-kept over the given order — the shared helper behind
    the greedy/random heuristics, the parity tests and the benchmarks.
    """
    used: set = set()
    kept: List[EligiblePair] = []
    for item in pairs:
        if item.pair.first in used or item.pair.second in used:
            continue
        used.add(item.pair.first)
        used.add(item.pair.second)
        kept.append(item)
    return kept


def optimal_matching(
    histogram: TokenHistogram,
    eligible: Sequence[EligiblePair],
    budget: float,
    *,
    metric: str = "cosine",
    rng: RngLike = None,
    max_pairs: Optional[int] = None,
) -> SelectionResult:
    """Optimal selection: Maximum Weight Matching followed by the knapsack."""
    if not eligible:
        return SelectionResult(
            strategy="optimal",
            selected=(),
            adjustments=(),
            eligible_count=0,
            matched_count=0,
            similarity_percent=100.0,
        )
    graph = build_pair_graph(eligible)
    with trace_span("core.mwm") as stage:
        matched = maximum_weight_matching(graph)
        if stage.recording:
            stage.set_attribute("edges", graph.number_of_edges())
            stage.set_attribute("matched", len(matched))
    if not matching_is_valid(matched):
        raise MatchingError("maximum weight matching produced overlapping pairs")
    selection = select_within_budget(
        histogram, matched, budget, metric=metric, max_pairs=max_pairs
    )
    return SelectionResult(
        strategy="optimal",
        selected=selection.selected,
        adjustments=selection.adjustments,
        eligible_count=len(eligible),
        matched_count=len(matched),
        similarity_percent=selection.similarity_percent,
    )


def greedy_matching(
    histogram: TokenHistogram,
    eligible: Sequence[EligiblePair],
    budget: float,
    *,
    metric: str = "cosine",
    rng: RngLike = None,
    max_pairs: Optional[int] = None,
) -> SelectionResult:
    """Greedy heuristic: ascending-remainder scan with vertex-disjoint filter."""
    ordered = sorted(eligible, key=lambda item: (item.cost, item.pair))
    disjoint = vertex_disjoint(ordered)
    selection = select_within_budget(
        histogram, disjoint, budget, metric=metric, order_by_cost=True, max_pairs=max_pairs
    )
    return SelectionResult(
        strategy="greedy",
        selected=selection.selected,
        adjustments=selection.adjustments,
        eligible_count=len(eligible),
        matched_count=len(disjoint),
        similarity_percent=selection.similarity_percent,
    )


def random_matching(
    histogram: TokenHistogram,
    eligible: Sequence[EligiblePair],
    budget: float,
    *,
    metric: str = "cosine",
    rng: RngLike = None,
    max_pairs: Optional[int] = None,
) -> SelectionResult:
    """Random heuristic: like greedy but in a random visiting order."""
    generator = ensure_rng(rng)
    shuffled = list(eligible)
    generator.shuffle(shuffled)
    disjoint = vertex_disjoint(shuffled)
    selection = select_within_budget(
        histogram, disjoint, budget, metric=metric, order_by_cost=False, max_pairs=max_pairs
    )
    return SelectionResult(
        strategy="random",
        selected=selection.selected,
        adjustments=selection.adjustments,
        eligible_count=len(eligible),
        matched_count=len(disjoint),
        similarity_percent=selection.similarity_percent,
    )


_MATCHERS: Dict[str, MatcherFunction] = {
    "optimal": optimal_matching,
    "greedy": greedy_matching,
    "random": random_matching,
}


def available_strategies() -> Tuple[str, ...]:
    """Names of the registered selection strategies."""
    return tuple(sorted(_MATCHERS))


def get_matcher(name: str) -> MatcherFunction:
    """Look up a selection strategy by name."""
    try:
        return _MATCHERS[name.lower()]
    except KeyError:
        raise MatchingError(
            f"unknown selection strategy {name!r}; available: {available_strategies()}"
        ) from None


def select_pairs(
    histogram: TokenHistogram,
    eligible: Sequence[EligiblePair],
    budget: float,
    *,
    strategy: str = "optimal",
    metric: str = "cosine",
    rng: RngLike = None,
    max_pairs: Optional[int] = None,
) -> SelectionResult:
    """Run the named selection strategy (``OptMatch`` in Algorithm I)."""
    matcher = get_matcher(strategy)
    return matcher(histogram, eligible, budget, metric=metric, rng=rng, max_pairs=max_pairs)


__all__ = [
    "SelectionResult",
    "vertex_disjoint",
    "optimal_matching",
    "greedy_matching",
    "random_matching",
    "available_strategies",
    "get_matcher",
    "select_pairs",
]
