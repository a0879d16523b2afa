"""Graph representation of the eligible-pair set.

Section III-B2 reduces optimal pair selection to Maximum Weight Matching
on an undirected graph ``G = (V, E)`` where vertices are tokens, edges are
eligible pairs, and the weight of edge ``(v_i, v_j)`` is::

    w(e) = T - ((f_i - f_j) mod s_ij)

with ``T`` a constant larger than any remainder (the paper suggests any
value above the largest frequency difference among eligible pairs). Under
this weighting a *maximum*-weight matching simultaneously favours many
edges and small remainders, i.e. many watermarked pairs that are cheap to
embed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.core.eligibility import EligiblePair
from repro.core.tokens import TokenPair
from repro.exceptions import MatchingError

# networkx is imported inside the functions that build and match the
# graph: processes that never run MWM (the service, workers) skip it.
if TYPE_CHECKING:
    import networkx as nx


def choose_weight_offset(pairs: Sequence[EligiblePair]) -> int:
    """Pick the constant ``T`` used to convert remainders into weights.

    Any value strictly larger than every remainder (equivalently, every
    frequency difference) works; we use ``max difference + max modulus + 1``
    so weights stay positive even for degenerate inputs.
    """
    if not pairs:
        return 1
    max_difference = max(item.frequency_difference for item in pairs)
    max_modulus = max(item.modulus for item in pairs)
    return max_difference + max_modulus + 1


def build_pair_graph(
    pairs: Sequence[EligiblePair],
    *,
    weight_offset: Optional[int] = None,
) -> nx.Graph:
    """Build the weighted eligible-pair graph.

    Each edge stores three attributes: ``weight`` (``T - cost``, what MWM
    maximises), ``cost`` (the number of appearance changes needed to
    watermark the pair) and ``eligible`` (the originating
    :class:`EligiblePair` object, so downstream stages can recover the
    modulus without recomputing hashes).
    """
    import networkx as nx

    offset = choose_weight_offset(pairs) if weight_offset is None else weight_offset
    graph = nx.Graph()
    for item in pairs:
        if item.cost >= offset:
            raise MatchingError(
                "weight offset T must exceed every pair cost; "
                f"got T={offset} <= cost={item.cost}"
            )
        graph.add_edge(
            item.pair.first,
            item.pair.second,
            weight=offset - item.cost,
            cost=item.cost,
            eligible=item,
        )
    return graph


def maximum_weight_matching(graph: nx.Graph) -> List[EligiblePair]:
    """Run Maximum Weight Matching and return the matched eligible pairs.

    ``maxcardinality=True`` mirrors the paper's objective of selecting as
    many pairs as possible: among maximum-cardinality matchings, the one
    with the largest total weight (smallest total cost) is returned.
    """
    if graph.number_of_edges() == 0:
        return []
    import networkx as nx

    matching = nx.max_weight_matching(graph, maxcardinality=True, weight="weight")
    matched: List[EligiblePair] = []
    for endpoint_a, endpoint_b in matching:
        data = graph.get_edge_data(endpoint_a, endpoint_b)
        matched.append(data["eligible"])
    matched.sort(key=lambda item: (item.cost, item.pair))
    return matched


def matching_is_valid(pairs: Sequence[EligiblePair]) -> bool:
    """Check that no token appears in more than one selected pair."""
    seen: set = set()
    for item in pairs:
        if item.pair.first in seen or item.pair.second in seen:
            return False
        seen.add(item.pair.first)
        seen.add(item.pair.second)
    return True


def pairs_by_token(pairs: Sequence[EligiblePair]) -> Dict[str, TokenPair]:
    """Map each token participating in a matching to its pair."""
    index: Dict[str, TokenPair] = {}
    for item in pairs:
        index[item.pair.first] = item.pair
        index[item.pair.second] = item.pair
    return index


__all__ = [
    "choose_weight_offset",
    "build_pair_graph",
    "maximum_weight_matching",
    "matching_is_valid",
    "pairs_by_token",
]
