"""Unit tests for token canonicalisation and pair handling."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.histogram import TokenHistogram
from repro.core.tokens import (
    MULTI_ATTRIBUTE_SEPARATOR,
    CodedTokens,
    TokenPair,
    as_token_pair,
    canonical_token,
    compose_token,
    decompose_token,
    unique_tokens,
)
from repro.exceptions import HistogramError


class TestCanonicalToken:
    def test_string_passthrough(self):
        token = "youtube.com"
        assert canonical_token(token) is token

    def test_str_subclass_becomes_exact_str(self):
        canonical = canonical_token(np.str_("youtube.com"))
        assert type(canonical) is str and canonical == "youtube.com"

    def test_bytes_decoded(self):
        assert canonical_token(b"abc") == "abc"

    def test_integer(self):
        assert canonical_token(42) == "42"

    def test_integral_float_collapses_to_int(self):
        assert canonical_token(42.0) == "42"

    def test_non_integral_float(self):
        assert canonical_token(3.5) == "3.5"

    def test_tuple_composition_is_injective(self):
        assert canonical_token(("a", "bc")) != canonical_token(("ab", "c"))

    def test_list_same_as_tuple(self):
        assert canonical_token(["a", "b"]) == canonical_token(("a", "b"))


class TestComposeDecompose:
    def test_roundtrip(self):
        token = compose_token(("37", "Private"))
        assert decompose_token(token) == ("37", "Private")

    def test_separator_not_printable(self):
        assert MULTI_ATTRIBUTE_SEPARATOR not in "37Private"

    def test_single_attribute(self):
        assert decompose_token(compose_token(("x",))) == ("x",)


class TestTokenPair:
    def test_rejects_identical_tokens(self):
        with pytest.raises(ValueError):
            TokenPair("a", "a")

    def test_ordered_puts_higher_frequency_first(self):
        pair = TokenPair.ordered("low", "high", 10, 500)
        assert pair.first == "high"
        assert pair.second == "low"

    def test_ordered_tie_breaks_lexicographically(self):
        pair = TokenPair.ordered("beta", "alpha", 10, 10)
        assert (pair.first, pair.second) == ("alpha", "beta")
        # And it is deterministic regardless of argument order.
        assert TokenPair.ordered("alpha", "beta", 10, 10) == pair

    def test_contains_and_other(self):
        pair = TokenPair("a", "b")
        assert pair.contains("a") and pair.contains("b")
        assert pair.other("a") == "b"
        assert pair.other("b") == "a"
        with pytest.raises(KeyError):
            pair.other("c")

    def test_hashable_and_usable_as_dict_key(self):
        mapping = {TokenPair("a", "b"): 1}
        assert mapping[TokenPair("a", "b")] == 1

    def test_as_tuple(self):
        assert TokenPair("a", "b").as_tuple() == ("a", "b")


class TestHelpers:
    def test_unique_tokens_preserves_first_seen_order(self):
        assert unique_tokens(["b", "a", "b", "c", "a"]) == ("b", "a", "c")

    def test_as_token_pair_from_tuple(self):
        pair = as_token_pair(("x", "y"))
        assert isinstance(pair, TokenPair)
        assert pair.as_tuple() == ("x", "y")

    def test_as_token_pair_passthrough(self):
        pair = TokenPair("x", "y")
        assert as_token_pair(pair) is pair


def _two_pass_coding(tokens):
    """Reference read: a ``dict.fromkeys`` vocabulary, then a lookup per token."""
    distinct = None
    if isinstance(tokens, (list, tuple)):
        try:
            distinct = dict.fromkeys(tokens)
        except TypeError:
            pass
    if distinct is None or not all(isinstance(key, str) for key in distinct):
        tokens = [token if isinstance(token, str) else canonical_token(token) for token in tokens]
        distinct = dict.fromkeys(tokens)
    index = {token: code for code, token in enumerate(distinct)}
    return tokens, [index[token] for token in tokens], index


_strings = st.text(alphabet="ab1é", max_size=2)
_any_values = st.one_of(
    _strings,
    _strings.map(np.str_),
    st.sampled_from([1, True, 1.0, "1"]),  # hash-equal, and "1" is 1's canonical form
    st.binary(max_size=2),
    st.tuples(_strings, st.integers(0, 2)),
    st.lists(_strings, max_size=2),  # unhashable
)


def _sequences(values):
    """Lists and tuples of ``values``."""
    return st.lists(values, max_size=25).flatmap(
        lambda items: st.sampled_from([items, tuple(items)])
    )


def _typed(values):
    """Values with their types, since ``1 == True == 1.0``."""
    return [(type(value), value) for value in values]


class TestCodedTokens:
    def test_a_list_of_strings_is_read_as_is(self):
        tokens = ["b", np.str_("a"), "b", "c"]
        read, codes, index = CodedTokens(tokens).coded()
        assert read is tokens
        assert codes.dtype == np.int32 and codes.tolist() == [0, 1, 0, 2]
        assert list(index) == ["b", "a", "c"]

    def test_other_values_are_canonicalised_and_strings_kept(self):
        coded = CodedTokens(iter([1, np.str_("1"), ("a", "b"), b"x"]))
        read, codes, index = coded.coded()
        assert read == ["1", "1", "a\x1fb", "x"]
        assert type(read[1]) is np.str_
        assert codes.tolist() == [0, 0, 1, 2]
        # The sequence view is the read tokens, read once.
        assert len(coded) == 4 and coded[2] == "a\x1fb" and list(coded) == read
        assert coded.coded() is coded.coded()

    @settings(max_examples=150, deadline=None)
    @given(
        tokens=st.one_of(
            _sequences(st.one_of(_strings, _strings.map(np.str_))), _sequences(_any_values)
        )
    )
    @example(tokens=[])
    @example(tokens=())
    @example(tokens=["1", 1, True, 1.0])
    @example(tokens=[1, True, 1.0])
    @example(tokens=["a", ["a"]])
    def test_matches_the_two_pass_read(self, tokens):
        expected_tokens, expected_codes, expected_index = _two_pass_coding(tokens)
        read, codes, index = CodedTokens(tokens).coded()
        assert (read is tokens) == (expected_tokens is tokens)
        assert _typed(read) == _typed(expected_tokens)
        assert codes.dtype == np.int32 and codes.tolist() == expected_codes
        assert type(index) is dict
        assert _typed(index) == _typed(expected_index)
        assert list(index.values()) == list(range(len(index)))

    @settings(max_examples=150, deadline=None)
    @given(tokens=_sequences(_any_values))
    @example(tokens=["1", 1, True, 1.0])
    @example(tokens=("b", np.str_("a"), "a", b"b"))
    @example(tokens=["a", ["a"], "a\x1f"])
    def test_a_list_is_counted_as_the_batched_path_counts_it(self, tokens):
        # A list or tuple is counted from its codes; an iterator of the
        # same tokens takes the batched Counter path.
        if not tokens:
            with pytest.raises(HistogramError):
                TokenHistogram.from_tokens(tokens)
            return
        coded = TokenHistogram.from_tokens(tokens)
        batched = TokenHistogram.from_tokens(iter(tokens))
        assert _typed(coded.tokens) == _typed(batched.tokens)
        assert coded.counts_array().tolist() == batched.counts_array().tolist()
        assert coded.counts_array().dtype == batched.counts_array().dtype
