"""Unit tests for histogram similarity metrics and ranking helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.similarity import (
    align_frequencies,
    available_metrics,
    cosine_similarity,
    distortion_percent,
    get_metric,
    histogram_similarity,
    jaccard_similarity,
    l1_similarity,
    l2_similarity,
    rank_changes,
    ranking,
    ranking_preserved,
    similarity_percent,
)


class TestAlignment:
    def test_union_of_tokens_with_zero_fill(self):
        left, right = align_frequencies({"a": 3, "b": 1}, {"b": 2, "c": 5})
        assert left.tolist() == [3.0, 1.0, 0.0]
        assert right.tolist() == [0.0, 2.0, 5.0]

    def test_deterministic_order(self):
        first = align_frequencies({"b": 1, "a": 2}, {"a": 2, "b": 1})
        second = align_frequencies({"a": 2, "b": 1}, {"b": 1, "a": 2})
        assert np.array_equal(first[0], second[0])


class TestMetricValues:
    def test_identical_histograms_have_similarity_one(self):
        counts = {"a": 10, "b": 3}
        for metric in available_metrics():
            assert histogram_similarity(counts, counts, metric=metric) == pytest.approx(1.0)

    def test_cosine_orthogonal(self):
        assert cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_cosine_zero_vectors(self):
        assert cosine_similarity(np.zeros(2), np.zeros(2)) == 1.0
        assert cosine_similarity(np.zeros(2), np.array([1.0, 0.0])) == 0.0

    def test_l1_similarity_disjoint(self):
        assert l1_similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_l2_similarity_in_unit_interval(self):
        value = l2_similarity(np.array([5.0, 1.0]), np.array([4.0, 2.0]))
        assert 0.0 < value < 1.0

    def test_jaccard(self):
        value = jaccard_similarity(np.array([2.0, 2.0]), np.array([1.0, 3.0]))
        assert value == pytest.approx((1 + 2) / (2 + 3))


class TestRegistry:
    def test_get_metric_case_insensitive(self):
        assert get_metric("COSINE") is cosine_similarity

    def test_unknown_metric(self):
        with pytest.raises(KeyError):
            get_metric("no-such-metric")


class TestPercentHelpers:
    def test_similarity_and_distortion_sum_to_100(self):
        original = {"a": 100, "b": 50}
        other = {"a": 90, "b": 60}
        assert similarity_percent(original, other) + distortion_percent(
            original, other
        ) == pytest.approx(100.0)

    def test_small_change_small_distortion(self):
        original = {f"t{i}": 1000 - i for i in range(100)}
        modified = dict(original)
        modified["t0"] += 1
        assert distortion_percent(original, modified) < 0.01


class TestRanking:
    def test_ranking_descending(self):
        assert ranking({"a": 1, "b": 5, "c": 3}) == ("b", "c", "a")

    def test_rank_changes_counts_moved_tokens(self):
        original = {"a": 5, "b": 4, "c": 3}
        swapped = {"a": 5, "b": 3, "c": 4}
        assert rank_changes(original, swapped) == 2

    def test_rank_changes_token_missing_counts_as_changed(self):
        assert rank_changes({"a": 5, "b": 1}, {"a": 5}) >= 1

    def test_ranking_preserved_allows_ties(self):
        # "b" catches up to "c" in count; the non-increasing order survives
        # but the exact rank permutation changes (tie broken lexicographically).
        original = {"a": 10, "c": 8, "b": 5}
        tied = {"a": 10, "c": 8, "b": 8}
        assert ranking_preserved(original, tied)
        assert not ranking_preserved(original, tied, strict=True)

    def test_ranking_preserved_detects_inversion(self):
        original = {"a": 10, "b": 8}
        inverted = {"a": 7, "b": 8}
        assert not ranking_preserved(original, inverted)
