"""Unit tests for the token histogram and its ranking boundaries."""

from __future__ import annotations

import math

import pytest

from repro.core.histogram import (
    TokenCounts,
    TokenHistogram,
    checked_counts,
    pairwise_rank_gaps,
)
from repro.exceptions import HistogramError


class TestConstruction:
    def test_from_tokens_counts_occurrences(self):
        histogram = TokenHistogram.from_tokens(["a", "b", "a", "c", "a", "b"])
        assert histogram.frequency("a") == 3
        assert histogram.frequency("b") == 2
        assert histogram.frequency("c") == 1

    def test_from_counts(self):
        histogram = TokenHistogram.from_counts({"x": 5, "y": 2})
        assert histogram.frequency("x") == 5

    def test_empty_dataset_rejected(self):
        with pytest.raises(HistogramError):
            TokenHistogram.from_tokens([])

    def test_zero_counts_dropped(self):
        histogram = TokenHistogram.from_counts({"x": 5, "y": 0})
        assert "y" not in histogram
        assert len(histogram) == 1

    def test_all_zero_counts_rejected(self):
        with pytest.raises(HistogramError):
            TokenHistogram.from_counts({"x": 0})

    def test_negative_count_rejected(self):
        with pytest.raises(HistogramError):
            TokenHistogram.from_counts({"x": -1})

    def test_non_integer_count_rejected(self):
        with pytest.raises(HistogramError):
            TokenHistogram.from_counts({"x": 1.5})

    def test_integral_float_count_accepted(self):
        histogram = TokenHistogram.from_counts({"x": 3.0})
        assert histogram.frequency("x") == 3

    def test_non_string_tokens_canonicalised(self):
        histogram = TokenHistogram.from_tokens([1, 1, 2])
        assert histogram.frequency("1") == 2

    def test_alias_keys_sum_on_every_constructor(self):
        """Keys that canonicalise to one token add up, however the
        histogram is built."""
        assert TokenHistogram.from_counts({1: 3, "1": 2}).as_dict() == {"1": 5}
        assert TokenHistogram({1: 3, "1": 2}).as_dict() == {"1": 5}
        assert TokenHistogram.from_tokens([1, 1, 1, "1", "1"]).as_dict() == {"1": 5}
        assert checked_counts({1.0: 2, b"1": 1, "1": 4}) == {"1": 7}

    @pytest.mark.parametrize("count", [2**63, 2**64 + 5, float(2**63)])
    @pytest.mark.parametrize("key", ["big", 7])
    def test_count_outside_int64_rejected(self, count, key):
        counts = {"small": 3, key: count}
        with pytest.raises(HistogramError, match="int64"):
            TokenHistogram.from_counts(counts)
        with pytest.raises(HistogramError, match="int64"):
            checked_counts(counts)

    def test_int64_bound_applies_after_aliases_sum(self):
        assert checked_counts({"a": 2**63 - 1}) == {"a": 2**63 - 1}
        with pytest.raises(HistogramError, match="int64"):
            checked_counts({"1": 2**62, 1: 2**62})

    def test_checked_counts_is_idempotent(self):
        checked = checked_counts({"a": 2, "b": 0, 3: 1})
        assert isinstance(checked, TokenCounts)
        assert checked == {"a": 2, "3": 1}
        assert checked_counts(checked) is checked


class TestOrderingAndAccess:
    def test_tokens_sorted_by_descending_frequency(self, running_example_histogram):
        tokens = running_example_histogram.tokens
        assert tokens[0] == "youtube.com"
        assert tokens[1] == "facebook.com"
        frequencies = running_example_histogram.frequencies()
        assert list(frequencies) == sorted(frequencies, reverse=True)

    def test_tie_break_is_lexicographic(self):
        histogram = TokenHistogram.from_counts({"b": 10, "a": 10})
        assert histogram.tokens == ("a", "b")

    def test_rank(self, running_example_histogram):
        assert running_example_histogram.rank("youtube.com") == 0
        assert running_example_histogram.rank("instagram.com") == 3
        assert running_example_histogram.rank("missing") is None

    def test_total_count(self, running_example_histogram):
        assert running_example_histogram.total_count() == 1098 + 980 + 674 + 537 + 64 + 53 + 53

    def test_top(self, running_example_histogram):
        assert running_example_histogram.top(2) == [
            ("youtube.com", 1098),
            ("facebook.com", 980),
        ]

    def test_membership_and_iteration(self, running_example_histogram):
        assert "bbc.com" in running_example_histogram
        assert list(running_example_histogram)[0] == "youtube.com"

    def test_equality(self):
        a = TokenHistogram.from_counts({"x": 1, "y": 2})
        b = TokenHistogram.from_counts({"y": 2, "x": 1})
        assert a == b


class TestBoundaries:
    def test_paper_boundary_rules(self, running_example_histogram):
        bounds = running_example_histogram.boundaries()
        # Most frequent token can grow without limit.
        assert math.isinf(bounds["youtube.com"].upper)
        # u_i = f_{i-1} - f_i for interior tokens.
        assert bounds["facebook.com"].upper == 1098 - 980
        assert bounds["google.com"].upper == 980 - 674
        # l_i = f_i - f_{i+1}.
        assert bounds["facebook.com"].lower == 980 - 674
        assert bounds["instagram.com"].lower == 537 - 64
        # Last token (tie at 53): lower boundary equals its own frequency.
        last = running_example_histogram.tokens[-1]
        assert bounds[last].lower == 53

    def test_tied_tokens_have_zero_slack_between_them(self):
        histogram = TokenHistogram.from_counts({"a": 10, "b": 10, "c": 5})
        bounds = histogram.boundaries()
        assert bounds["b"].upper == 0  # cannot grow past the tied neighbour

    def test_allows_change(self):
        histogram = TokenHistogram.from_counts({"a": 100, "b": 50, "c": 10})
        bounds = histogram.boundaries()
        assert bounds["b"].allows_change(40)
        assert not bounds["b"].allows_change(60)


class TestMutation:
    def test_with_updates_applies_deltas(self, running_example_histogram):
        updated = running_example_histogram.with_updates(
            {"youtube.com": -23, "instagram.com": +22}
        )
        assert updated.frequency("youtube.com") == 1075
        assert updated.frequency("instagram.com") == 559
        # Original is untouched (immutability of the public API).
        assert running_example_histogram.frequency("youtube.com") == 1098

    def test_with_updates_drops_zeroed_tokens(self):
        histogram = TokenHistogram.from_counts({"a": 2, "b": 5})
        updated = histogram.with_updates({"a": -2})
        assert "a" not in updated

    def test_with_updates_rejects_negative_result(self):
        histogram = TokenHistogram.from_counts({"a": 2, "b": 5})
        with pytest.raises(HistogramError):
            histogram.with_updates({"a": -3})

    def test_scaled_preserves_ranking(self, running_example_histogram):
        scaled = running_example_histogram.scaled(0.1)
        assert scaled.tokens[0] == "youtube.com"
        assert scaled.frequency("youtube.com") == 110

    def test_scaled_rejects_non_positive_factor(self, running_example_histogram):
        with pytest.raises(HistogramError):
            running_example_histogram.scaled(0.0)


class TestHelpers:
    def test_pairwise_rank_gaps(self):
        histogram = TokenHistogram.from_counts({"a": 10, "b": 7, "c": 7, "d": 1})
        assert pairwise_rank_gaps(histogram) == [3, 0, 6]
