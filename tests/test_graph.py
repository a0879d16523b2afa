"""Unit tests for the eligible-pair graph and maximum weight matching."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.core.blossom import verify_optimum
from repro.core.eligibility import EligiblePair, generate_eligible_pairs
from repro.core.graph import (
    build_pair_graph,
    choose_weight_offset,
    matching_is_valid,
    maximum_weight_matching,
    pairs_by_token,
)
from repro.core.hashing import generate_secret
from repro.core.tokens import TokenPair
from repro.datasets.synthetic import generate_power_law_histogram
from repro.exceptions import MatchingError

SECRET = 424242
Z = 131


def _pair(first: str, second: str, modulus: int, remainder: int, difference: int) -> EligiblePair:
    return EligiblePair(
        pair=TokenPair(first, second),
        modulus=modulus,
        remainder=remainder,
        frequency_difference=difference,
    )


class TestGraphConstruction:
    def test_weight_offset_exceeds_costs(self):
        pairs = [_pair("a", "b", 100, 40, 140), _pair("c", "d", 50, 10, 60)]
        offset = choose_weight_offset(pairs)
        assert all(offset > item.cost for item in pairs)

    def test_empty_offset(self):
        assert choose_weight_offset([]) == 1

    def test_edges_carry_cost_and_eligible(self):
        pairs = [_pair("a", "b", 100, 40, 140)]
        graph = build_pair_graph(pairs)
        edge = graph.edge("a", "b")
        assert graph.pairs[edge].cost == 40
        assert graph.pairs[edge] is pairs[0]
        assert graph.edges[edge][2] > 0

    def test_invalid_offset_rejected(self):
        pairs = [_pair("a", "b", 100, 40, 140)]
        with pytest.raises(MatchingError):
            build_pair_graph(pairs, weight_offset=10)

    def test_repeated_pair_rejected(self):
        # A second pair on the same two tokens, in either order, would
        # silently replace the first edge's pair.
        for second in (_pair("b", "a", 100, 40, 140), _pair("a", "b", 100, 40, 140)):
            with pytest.raises(MatchingError):
                build_pair_graph([_pair("a", "b", 100, 10, 110), second])


class TestMaximumWeightMatching:
    def test_matching_is_vertex_disjoint(self, skewed_histogram):
        eligible = generate_eligible_pairs(skewed_histogram, SECRET, Z)
        graph = build_pair_graph(eligible)
        matched = maximum_weight_matching(graph)
        assert matching_is_valid(matched)
        assert matched  # a skewed histogram yields at least one matched pair

    def test_prefers_cheap_edges_on_conflict(self):
        # Triangle a-b-c: only one edge can be chosen; the cheapest must win.
        pairs = [
            _pair("a", "b", 100, 10, 110),
            _pair("b", "c", 100, 40, 140),
            _pair("a", "c", 100, 30, 130),
        ]
        matched = maximum_weight_matching(build_pair_graph(pairs))
        assert len(matched) == 1
        assert matched[0].pair == TokenPair("a", "b")

    def test_max_cardinality_beats_single_heavy_edge(self):
        # Path a-b-c-d: picking the middle edge alone is lighter-cost but
        # max-cardinality matching must take the two outer edges.
        pairs = [
            _pair("a", "b", 100, 30, 130),
            _pair("b", "c", 100, 1, 101),
            _pair("c", "d", 100, 30, 130),
        ]
        matched = maximum_weight_matching(build_pair_graph(pairs))
        assert len(matched) == 2
        assert {item.pair for item in matched} == {TokenPair("a", "b"), TokenPair("c", "d")}

    def test_empty_graph(self):
        assert maximum_weight_matching(build_pair_graph([])) == []


class TestHelpers:
    def test_matching_is_valid_detects_overlap(self):
        overlapping = [_pair("a", "b", 10, 1, 11), _pair("b", "c", 10, 1, 11)]
        assert not matching_is_valid(overlapping)

    def test_pairs_by_token(self):
        pairs = [_pair("a", "b", 10, 1, 11), _pair("c", "d", 10, 1, 11)]
        index = pairs_by_token(pairs)
        assert index["a"] == TokenPair("a", "b")
        assert index["d"] == TokenPair("c", "d")


class TestCertificate:
    """The optimality certificate raises instead of asserting, so it also
    holds under ``python -O``."""

    def test_optimal_matching_passes(self):
        verify_optimum([(0, 1, 5)], [1, 0], [5, 5], {0: None, 1: None}, {})

    def test_non_tight_matched_edge_fails(self):
        with pytest.raises(MatchingError, match="matched edge 0 has slack 2"):
            verify_optimum([(0, 1, 5)], [1, 0], [6, 6], {0: None, 1: None}, {})

    def test_negative_slack_fails(self):
        edges = [(0, 1, 5), (1, 2, 9)]
        with pytest.raises(MatchingError, match="edge 1 has negative slack"):
            verify_optimum(edges, [1, 0, -1], [5, 5, 0], dict.fromkeys(range(3)), {})


def _cost_pair(first: str, second: str, cost: int) -> EligiblePair:
    return _pair(first, second, 100, cost, 100 + cost)


@st.composite
def _graphs(draw, max_vertices):
    """Eligible pairs on ``v0..v{n-1}``: distinct unordered token pairs in
    a random insertion order and endpoint order, small costs (many ties)."""
    # A plain Random seeded from the draw: Hypothesis-driven random calls
    # favour simple values and would rarely build dense, tied graphs.
    rnd = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rnd.shuffle(possible)
    pairs = []
    for i, j in possible[: rnd.randint(1, min(len(possible), 4 * n))]:
        if rnd.random() < 0.5:
            i, j = j, i
        pairs.append(_cost_pair(f"v{i}", f"v{j}", rnd.randint(0, 3)))
    return pairs


def _networkx_pairs(pairs):
    """networkx's matching of the same graph, built in the same edge order."""
    nx = pytest.importorskip("networkx")
    offset = choose_weight_offset(pairs)
    graph = nx.Graph()
    for item in pairs:
        graph.add_edge(item.pair.first, item.pair.second, weight=offset - item.cost)
    return {frozenset(edge) for edge in nx.max_weight_matching(graph, maxcardinality=True)}


def _matched_pairs(pairs):
    matched = maximum_weight_matching(build_pair_graph(pairs))
    return {frozenset(item.pair.as_tuple()) for item in matched}


def _best_matching(pairs):
    """(cardinality, total cost) of the best matching, by enumeration."""
    best = (0, 0)

    def extend(start, used, size, cost):
        nonlocal best
        best = max(best, (size, -cost))
        for index in range(start, len(pairs)):
            first, second = pairs[index].pair.as_tuple()
            if first not in used and second not in used:
                extend(index + 1, used | {first, second}, size + 1, cost + pairs[index].cost)

    extend(0, frozenset(), 0, 0)
    return best[0], -best[1]


class TestSolverOracle:
    @settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(pairs=_graphs(40))
    def test_matches_networkx_on_tied_weights(self, pairs):
        assert _matched_pairs(pairs) == _networkx_pairs(pairs)

    @pytest.mark.parametrize("alpha", [0.5, 0.7, 1.0])
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_matches_networkx_on_workload_graphs(self, seed, alpha):
        histogram = generate_power_law_histogram(alpha, mode="sampled", rng=seed)
        pairs = generate_eligible_pairs(histogram, generate_secret(rng=seed), Z)
        assert len(pairs) > 1000
        assert _matched_pairs(pairs) == _networkx_pairs(pairs)

    @settings(max_examples=200, deadline=None)
    @given(pairs=_graphs(8))
    def test_maximum_cardinality_then_minimum_cost(self, pairs):
        matched = maximum_weight_matching(build_pair_graph(pairs))
        assert matching_is_valid(matched)
        assert (len(matched), sum(item.cost for item in matched)) == _best_matching(pairs)


def test_generate_does_not_load_networkx():
    """An optimal generate solves MWM in-repo; networkx is a test oracle only."""
    source = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")])))
    probe = (
        "import sys\n"
        "from repro.core.config import GenerationConfig\n"
        "from repro.core.generator import WatermarkGenerator\n"
        "from repro.datasets.synthetic import generate_power_law_tokens\n"
        "tokens = generate_power_law_tokens(0.7, n_tokens=200, sample_size=50_000, rng=3)\n"
        "result = WatermarkGenerator(GenerationConfig(strategy='optimal')).generate(tokens, secret_value=7)\n"
        "assert result.selection.matched_count > 0\n"
        "print('networkx' in sys.modules)\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert completed.stdout.strip() == "False", completed.stdout + completed.stderr
