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

:func:`build_pair_graph` returns a :class:`PairGraph`: tokens numbered
by first appearance in the pair order, one edge per pair (a repeated
pair raises :class:`MatchingError`). :func:`maximum_weight_matching`
solves it with the in-repo blossom solver of :mod:`repro.core.blossom`,
which returns the pairs NetworkX's ``max_weight_matching`` returns for
the same graph and checks its optimality certificate on every call.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.blossom import Edge, max_weight_matching
from repro.core.eligibility import EligiblePair
from repro.core.tokens import TokenPair
from repro.exceptions import MatchingError


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


class PairGraph:
    """The weighted eligible-pair graph.

    Vertices are tokens, numbered by first appearance in the pair order
    (each pair's ``first`` before its ``second``). Edge ``k`` is
    ``pairs[k]``, stored as ``edges[k] = (first id, second id, T - cost)``.
    """

    __slots__ = ("tokens", "pairs", "edges", "_vertex_ids", "_edge_ids")

    def __init__(self, pairs: Sequence[EligiblePair], offset: int) -> None:
        vertex_ids: Dict[str, int] = {}
        edge_ids: Dict[Tuple[int, int], int] = {}
        edges: List[Edge] = []
        for item in pairs:
            if item.cost >= offset:
                raise MatchingError(
                    "weight offset T must exceed every pair cost; "
                    f"got T={offset} <= cost={item.cost}"
                )
            first = vertex_ids.setdefault(item.pair.first, len(vertex_ids))
            second = vertex_ids.setdefault(item.pair.second, len(vertex_ids))
            key = (first, second) if first < second else (second, first)
            if key in edge_ids:
                raise MatchingError(
                    f"pair {item.pair.as_tuple()} repeats an edge of the pair graph"
                )
            edge_ids[key] = len(edges)
            edges.append((first, second, offset - item.cost))
        self.tokens: Tuple[str, ...] = tuple(vertex_ids)
        self.pairs: Tuple[EligiblePair, ...] = tuple(pairs)
        self.edges: Tuple[Edge, ...] = tuple(edges)
        self._vertex_ids = vertex_ids
        self._edge_ids = edge_ids

    def number_of_edges(self) -> int:
        """Number of eligible pairs (edges)."""
        return len(self.edges)

    def edge(self, first: str, second: str) -> int:
        """Id of the edge joining two tokens, in either order (KeyError if none)."""
        u, v = self._vertex_ids[first], self._vertex_ids[second]
        return self._edge_ids[(u, v) if u < v else (v, u)]


def build_pair_graph(
    pairs: Sequence[EligiblePair],
    *,
    weight_offset: Optional[int] = None,
) -> PairGraph:
    """Build the weighted eligible-pair graph.

    Each edge carries its :class:`EligiblePair` (so downstream stages can
    recover the modulus without recomputing hashes) and the weight
    ``T - cost`` that MWM maximises. A pair whose tokens another pair
    already joins (in either order) raises :class:`MatchingError`.
    """
    offset = choose_weight_offset(pairs) if weight_offset is None else weight_offset
    return PairGraph(pairs, offset)


def maximum_weight_matching(graph: PairGraph) -> List[EligiblePair]:
    """Run Maximum Weight Matching and return the matched eligible pairs.

    Maximum cardinality mirrors the paper's objective of selecting as
    many pairs as possible: among maximum-cardinality matchings, the one
    with the largest total weight (smallest total cost) is returned. The
    solver (:mod:`repro.core.blossom`) checks its optimality certificate
    on every call.
    """
    matched = [
        graph.pairs[k] for k in max_weight_matching(len(graph.tokens), graph.edges)
    ]
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
    "PairGraph",
    "choose_weight_offset",
    "build_pair_graph",
    "maximum_weight_matching",
    "matching_is_valid",
    "pairs_by_token",
]
