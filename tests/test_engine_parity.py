"""Golden parity tests: the vectorized engine versus the seed dict paths.

The array engine (array-backed :class:`TokenHistogram`, the incremental
:class:`SimilarityTracker`, the cached/vectorized detector and the
tracker-based knapsack) must produce *identical* generation and detection
outcomes to the seed implementation preserved in
:mod:`repro.core.reference`. These property-based tests drive both paths
over randomized histograms and adversarial edge cases (empty data,
all-equal frequencies, missing pair tokens) and assert exact agreement.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.batch import detect_many, dispatch_detection
from repro.core.config import DetectionConfig
from repro.core.detector import (
    WatermarkDetector,
    count_matrix,
    gather_counts,
    suspect_counts,
)
from repro.core.eligibility import generate_eligible_pairs
from repro.core.histogram import TokenBoundaries, TokenHistogram
from repro.core.knapsack import select_within_budget
from repro.core.matching import vertex_disjoint
from repro.core.reference import (
    apply_deltas_reference,
    detect_reference,
    histogram_from_tokens_reference,
    select_within_budget_reference,
)
from repro.core.secrets import WatermarkSecret
from repro.core.similarity import (
    SimilarityTracker,
    available_metrics,
    histogram_similarity,
)
from repro.core.streaming import DEFAULT_CHUNK_SIZE
from repro.core.tokens import CodedTokens
from repro.core.transform import histogram_deltas, transform_dataset
from repro.exceptions import HistogramError
from repro.exec.scheduler import LocalScheduler

import parity_harness as harness

SECRET = 0xFEEDFACE
Z = 61

_settings = settings(
    max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

_counts = st.dictionaries(
    keys=st.text(
        alphabet="abcdefghijklmnopqrstuvwxyz0123456789.-", min_size=1, max_size=10
    ),
    values=st.integers(min_value=1, max_value=50_000),
    min_size=2,
    max_size=25,
)


class TestHistogramParity:
    @_settings
    @given(counts=_counts)
    def test_ordering_matches_dict_sort(self, counts):
        histogram = TokenHistogram.from_counts(counts)
        expected = sorted(counts, key=lambda token: (-counts[token], token))
        assert list(histogram.tokens) == expected
        assert histogram.frequencies() == tuple(counts[token] for token in expected)
        assert histogram.as_dict() == counts

    @_settings
    @given(counts=_counts)
    def test_boundaries_match_seed_definition(self, counts):
        histogram = TokenHistogram.from_counts(counts)
        order = list(histogram.tokens)
        bounds = histogram.boundaries()
        for index, token in enumerate(order):
            frequency = counts[token]
            if index == 0:
                assert math.isinf(bounds[token].upper)
            else:
                assert bounds[token].upper == float(counts[order[index - 1]] - frequency)
            if index == len(order) - 1:
                assert bounds[token].lower == frequency
            else:
                assert bounds[token].lower == frequency - counts[order[index + 1]]

    @_settings
    @given(counts=_counts, factor=st.floats(min_value=0.01, max_value=10.0))
    def test_scaled_matches_dict_rounding(self, counts, factor):
        histogram = TokenHistogram.from_counts(counts)
        scaled = histogram.scaled(factor)
        expected = {
            token: max(1, int(round(count * factor))) for token, count in counts.items()
        }
        assert scaled.as_dict() == expected

    def test_empty_histogram_rejected(self):
        with pytest.raises(HistogramError):
            TokenHistogram({})
        with pytest.raises(HistogramError):
            TokenHistogram.from_tokens([])

    def test_all_equal_frequencies_have_zero_slack_and_no_eligible_pairs(self):
        histogram = TokenHistogram.from_counts({f"t{i}": 500 for i in range(8)})
        slack = histogram.arrays().slack()
        # Every token but the last has zero slack (equal neighbours).
        assert list(slack[:-1]) == [0] * 7
        assert generate_eligible_pairs(histogram, SECRET, Z) == []


class TestSimilarityTrackerParity:
    @_settings
    @given(
        counts=_counts,
        deltas=st.lists(
            st.tuples(st.integers(0, 24), st.integers(-30, 30)), max_size=12
        ),
        metric=st.sampled_from(sorted(available_metrics())),
    )
    def test_incremental_matches_full_recompute(self, counts, deltas, metric):
        histogram = TokenHistogram.from_counts(counts)
        tokens = list(histogram.tokens)
        tracker = SimilarityTracker(histogram, metric=metric)
        current = dict(histogram.as_dict())
        for token_index, delta in deltas:
            token = tokens[token_index % len(tokens)]
            if current.get(token, 0) + delta < 0:
                continue
            peeked = tracker.peek({token: delta})
            applied = tracker.apply({token: delta})
            current[token] = current.get(token, 0) + delta
            assert applied == peeked
            full = histogram_similarity(histogram.as_dict(), current, metric=metric)
            assert applied == pytest.approx(full, abs=1e-12)

    def test_negative_counts_rejected_like_with_updates(self):
        tracker = SimilarityTracker({"a": 3, "b": 1})
        with pytest.raises(HistogramError):
            tracker.peek({"a": -4})
        with pytest.raises(HistogramError):
            tracker.apply({"missing": -1})

    def test_identical_state_is_exactly_one(self):
        tracker = SimilarityTracker({"a": 7, "b": 7})
        assert tracker.similarity() == 1.0
        tracker.apply({"a": 2})
        tracker.apply({"a": -2})
        assert tracker.similarity() == 1.0


class TestSelectionParity:
    @_settings
    @given(
        counts=_counts,
        budget=st.sampled_from([0.0, 0.05, 0.5, 2.0, 10.0, 100.0]),
        metric=st.sampled_from(sorted(available_metrics())),
    )
    def test_budget_selection_matches_reference(self, counts, budget, metric):
        histogram = TokenHistogram.from_counts(counts)
        candidates = vertex_disjoint(generate_eligible_pairs(histogram, SECRET, Z))
        engine = select_within_budget(histogram, candidates, budget, metric=metric)
        reference = select_within_budget_reference(
            histogram, candidates, budget, metric=metric
        )
        assert engine.selected == reference.selected
        assert engine.adjustments == reference.adjustments
        assert engine.rejected == reference.rejected
        assert engine.similarity_percent == pytest.approx(
            reference.similarity_percent, abs=1e-9
        )

    @_settings
    @given(counts=_counts, max_pairs=st.integers(min_value=1, max_value=5))
    def test_max_pairs_cap_matches_reference(self, counts, max_pairs):
        histogram = TokenHistogram.from_counts(counts)
        candidates = vertex_disjoint(generate_eligible_pairs(histogram, SECRET, Z))
        engine = select_within_budget(histogram, candidates, 5.0, max_pairs=max_pairs)
        reference = select_within_budget_reference(
            histogram, candidates, 5.0, max_pairs=max_pairs
        )
        assert engine.selected == reference.selected
        assert engine.rejected == reference.rejected


class TestDetectionParity:
    @_settings
    @given(
        counts=_counts,
        noise=st.lists(st.tuples(st.integers(0, 24), st.integers(-5, 5)), max_size=8),
        threshold=st.integers(min_value=0, max_value=3),
        symmetric=st.booleans(),
    )
    def test_detect_matches_reference(self, counts, noise, threshold, symmetric):
        case = harness.build_watermarked_case(counts)
        if case is None:
            return
        histogram, secret = case
        # Perturb the histogram (dropping tokens is allowed) to exercise
        # missing-pair-token and near-threshold paths.
        deltas = {}
        tokens = list(histogram.tokens)
        for token_index, delta in noise:
            token = tokens[token_index % len(tokens)]
            deltas[token] = delta
        suspected = harness.perturbed(histogram, deltas)
        config = DetectionConfig(
            pair_threshold=threshold, symmetric_tolerance=symmetric
        )
        # The harness checks the engine against the reference dict loop —
        # verdict, counts and evidence.
        harness.assert_detection_parity(suspected, secret, config)

    def test_missing_pair_tokens_fail_that_pair(self):
        histogram = TokenHistogram.from_counts({"a": 900, "b": 500, "c": 200, "d": 40})
        candidates = vertex_disjoint(generate_eligible_pairs(histogram, SECRET, Z))
        if not candidates:
            pytest.skip("no eligible pairs for this secret")
        from repro.core.secrets import WatermarkSecret

        secret = WatermarkSecret.build([candidates[0].pair], SECRET, Z)
        removed = {token: -histogram.frequency(token) for token in [candidates[0].pair.first]}
        suspected = histogram.with_updates(removed)
        engine = WatermarkDetector(secret).detect(suspected)
        reference = detect_reference(suspected, secret)
        assert engine.evidence == reference.evidence
        assert not engine.evidence[0].present
        assert engine.evidence[0].remainder is None


class TestBatchDetectionParity:
    @_settings
    @given(counts=_counts, batch=st.integers(min_value=1, max_value=6))
    def test_detect_many_matches_per_dataset_detect(self, counts, batch):
        case = harness.build_watermarked_case(counts)
        if case is None:
            return
        histogram, secret = case
        suspects = [histogram.scaled(1.0 + 0.1 * index) for index in range(batch)]
        # Harness: detect_many (and the in-process chunked dispatch path)
        # against the reference loop, per dataset.
        harness.assert_batch_parity(suspects, secret, chunk_size=max(1, batch // 2))

    def test_detect_many_empty_batch(self):
        from repro.core.secrets import WatermarkSecret
        from repro.core.tokens import TokenPair

        secret = WatermarkSecret.build([TokenPair("a", "b")], SECRET, Z)
        report = detect_many([], secret)
        assert len(report) == 0
        assert report.accepted_count == 0

    def test_detect_many_accepts_raw_sequences_and_histograms(self):
        tokens = ["a"] * 300 + ["b"] * 120 + ["c"] * 50
        histogram = TokenHistogram.from_tokens(tokens)
        candidates = vertex_disjoint(generate_eligible_pairs(histogram, SECRET, 7))
        if not candidates:
            pytest.skip("no eligible pairs for this secret")
        from repro.core.secrets import WatermarkSecret

        secret = WatermarkSecret.build([candidates[0].pair], SECRET, 7)
        report = detect_many([tokens, histogram], secret)
        assert report.results[0].accepted_pairs == report.results[1].accepted_pairs


def _gather_cases():
    """A histogram's counts, plus query tokens with repeats and strangers."""
    return _counts.flatmap(
        lambda counts: st.tuples(
            st.just(counts),
            st.lists(
                st.sampled_from(sorted(counts) + ["absent", "", "zz-missing"]),
                max_size=40,
            ),
        )
    )


#: The token inputs the lookups take: lists, tuples and iterators (the
#: modification stage passes generators).
_INPUT_FORMS = (list, tuple, iter, lambda query: (token for token in query))


class TestGatherParity:
    """``HistogramArrays.positions`` and ``frequencies`` (one C-level
    ``index.get`` pass) and the count matrix built from them equal a
    per-token ``dict.get`` reference."""

    @_settings
    @given(case=_gather_cases())
    def test_positions_and_frequencies_match_dict_get(self, case):
        counts, query = case
        arrays = TokenHistogram.from_counts(counts).arrays()
        ranks = {
            token: rank
            for rank, token in enumerate(sorted(counts, key=lambda t: (-counts[t], t)))
        }
        expected_positions = [ranks.get(token, -1) for token in query]
        expected_counts = [counts.get(token, 0) for token in query]
        for form in _INPUT_FORMS:
            positions = arrays.positions(form(query))
            frequencies = arrays.frequencies(form(query))
            for values, expected in (
                (positions, expected_positions),
                (frequencies, expected_counts),
            ):
                assert values.dtype == np.int64
                assert values.shape == (len(query),)
                assert values.tolist() == expected

    def test_empty_input_is_an_empty_int64_array(self):
        arrays = TokenHistogram.from_counts({"a": 3, "b": 1}).arrays()
        for form in _INPUT_FORMS:
            for lookup in (arrays.positions, arrays.frequencies):
                values = lookup(form([]))
                assert values.dtype == np.int64
                assert values.shape == (0,)

    @_settings
    @given(
        batch=st.lists(st.tuples(_counts, st.booleans()), max_size=6),
        columns=st.lists(
            st.text(alphabet="abcdefghij", min_size=1, max_size=3), max_size=12
        ),
    )
    def test_count_matrix_stacks_gather_counts_rows(self, batch, columns):
        suspects = [
            TokenHistogram.from_counts(counts) if as_histogram else dict(counts)
            for counts, as_histogram in batch
        ]
        matrix = count_matrix(suspects, columns)
        assert matrix.dtype == np.int64
        assert matrix.shape == (len(suspects), len(columns))
        for row, (counts, _) in zip(matrix, batch):
            assert row.tolist() == [counts.get(token, 0) for token in columns]
        expected = [gather_counts(suspect, columns) for suspect in suspects]
        if expected:
            assert np.array_equal(matrix, np.stack(expected))

    @_settings
    @given(
        batch=st.lists(_gather_cases(), min_size=1, max_size=5),
        as_numpy=st.booleans(),
    )
    def test_histogram_rows_match_the_arrays_view_gather(self, batch, as_numpy):
        """A histogram row read through its rank dict equals the row its
        ``HistogramArrays`` view gathers: absent tokens, a row with no
        column present, and ``numpy.str_`` columns included."""
        histograms = [TokenHistogram.from_counts(counts) for counts, _ in batch]
        histograms.append(TokenHistogram.from_counts({"only-stranger": 3}))
        columns = [token for _, query in batch for token in query] + ["absent"]
        if as_numpy:
            columns = list(np.array(columns, dtype=str))
            assert all(type(token) is np.str_ for token in columns)
        matrix = count_matrix(histograms, columns)
        expected = np.stack(
            [histogram.arrays().frequencies(columns) for histogram in histograms]
        )
        assert matrix.dtype == np.int64
        assert matrix.shape == expected.shape
        assert np.array_equal(matrix, expected)
        assert not matrix[-1].any()
        for histogram in histograms:
            assert histogram.counts_of(columns).tolist() == [
                histogram.frequency(token) for token in columns
            ]

    @_settings
    @given(
        batch=st.lists(st.tuples(_counts, st.sampled_from(["histogram", "mapping"])), max_size=6),
        picks=st.lists(st.integers(min_value=0), max_size=12),
        strangers=st.lists(st.sampled_from(["absent", "zz-missing"]), max_size=2),
        one_column=st.booleans(),
    )
    def test_itemgetter_rows_match_gather_counts(self, batch, picks, strangers, one_column):
        """Histogram rows read by one prebuilt ``itemgetter`` equal the
        ``gather_counts(suspect_counts(d), columns)`` row, in batches that
        mix histograms with mappings, hold every column or miss some, and
        read one column."""
        universe = sorted({token for counts, _ in batch for token in counts}) or ["a"]
        columns = [universe[pick % len(universe)] for pick in picks] + strangers
        if one_column:
            columns = columns[:1]
        suspects = [
            TokenHistogram.from_counts(counts) if kind == "histogram" else dict(counts)
            for counts, kind in batch
        ]
        matrix = count_matrix(suspects, columns)
        assert matrix.dtype == np.int64
        assert matrix.shape == (len(suspects), len(columns))
        for row, suspect in zip(matrix, suspects):
            assert row.tolist() == gather_counts(suspect_counts(suspect), columns).tolist()


#: Token universe of the counts-path cases: digit strings, so that int,
#: integral-float, bytes and one-tuple keys all alias them.
_COUNT_TOKENS = [str(index) for index in range(10)]


def _alias(token: str, form: str):
    """``token`` as a key of kind ``form`` that canonicalises back to it."""
    number = int(token)
    return {
        "str": token,
        "int": number,
        "float": float(number),
        "bytes": token.encode(),
        "tuple": (token,),
    }[form]


def _draw_counts(draw, *, occupied: bool = False):
    """A counts mapping over :data:`_COUNT_TOKENS` with keys of every
    aliasing kind, split aliases and zero counts; ``occupied`` keeps at
    least one occurrence, so the mapping is a valid suspect."""
    counts = {}
    present = draw(
        st.lists(st.sampled_from(_COUNT_TOKENS), unique=True, min_size=int(occupied), max_size=8)
    )
    for position, token in enumerate(present):
        total = draw(st.integers(min_value=int(occupied and position == 0), max_value=40))
        forms = draw(
            st.lists(
                st.sampled_from(["str", "int", "float", "bytes", "tuple"]),
                min_size=1,
                max_size=2,
                unique=True,
            )
        )
        # Two aliases split the count between them; they must add up. The
        # int and float aliases are one dict key (1 == 1.0), so their
        # shares add up on that key instead of the second replacing the
        # first.
        share = draw(st.integers(min_value=0, max_value=total))
        for form, count in zip(forms, (share, total - share) if len(forms) == 2 else (total,)):
            key = _alias(token, form)
            counts[key] = counts.get(key, 0) + count
    return counts


def _draw_secret(draw) -> WatermarkSecret:
    """A secret of one to five pairs over :data:`_COUNT_TOKENS`."""
    pair = st.tuples(st.sampled_from(_COUNT_TOKENS), st.sampled_from(_COUNT_TOKENS)).filter(
        lambda members: members[0] != members[1]
    )
    return WatermarkSecret.build(
        draw(st.lists(pair, min_size=1, max_size=5)),
        draw(st.integers(min_value=1, max_value=2**40)),
        draw(st.sampled_from([3, 5, 7])),
    )


@st.composite
def _counts_cases(draw):
    """A counts mapping with aliased, zero and missing tokens, secrets
    over the same universe, and a detection config."""
    counts = _draw_counts(draw)
    secrets = [_draw_secret(draw) for _ in range(draw(st.integers(min_value=1, max_value=3)))]
    config = DetectionConfig(
        pair_threshold=draw(st.integers(min_value=0, max_value=2)),
        min_accepted_fraction=draw(st.sampled_from([0.3, 0.5, 1.0])),
        symmetric_tolerance=draw(st.booleans()),
    )
    return counts, secrets, config


class TestCountsPathParity:
    """A token->count mapping is read only at the secret's tokens; every
    reader must still answer what the reference answers for its
    histogram."""

    @_settings
    @given(case=_counts_cases())
    def test_counts_readers_match_reference(self, case):
        counts, secrets, config = case
        harness.assert_counts_parity(counts, secrets, config)

    @pytest.mark.parametrize(
        "counts",
        [
            {"0": 3, "1": -1},
            {"0": 3, 1: True},
            {"0": 3, "1": 2.5},
            {"0": 0, 1: 0.0},
            {},
            {"0": 3, "9": 2**63},
        ],
        ids=["negative", "bool", "non-integral-float", "all-zero", "empty", "beyond-int64"],
    )
    def test_malformed_counts_raise_on_every_path(self, counts):
        secret = WatermarkSecret.build([("0", "1"), ("2", "3")], SECRET, 7)
        assert harness.assert_counts_parity(counts, [secret]) is None


@st.composite
def _mixed_batches(draw):
    """One secret, a config and a batch of suspects in every form.

    Each suspect is a histogram, a token->count mapping (keys of every
    aliasing kind, split aliases, zero counts), a mapping holding none
    of the secret's tokens, or a raw token list."""
    secret = _draw_secret(draw)
    config = DetectionConfig(
        pair_threshold=draw(st.integers(min_value=0, max_value=2)),
        symmetric_tolerance=draw(st.booleans()),
    )
    suspects = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        kind = draw(st.sampled_from(["histogram", "mapping", "foreign", "tokens"]))
        if kind == "foreign":
            suspects.append({f"foreign-{index}": draw(st.integers(1, 10)) for index in range(3)})
            continue
        counts = _draw_counts(draw, occupied=True)
        histogram = TokenHistogram.from_counts(counts)
        if kind == "histogram":
            suspects.append(histogram)
        elif kind == "mapping":
            suspects.append(counts)
        else:
            suspects.append(
                [token for token, count in histogram.as_dict().items() for _ in range(count)]
            )
    return suspects, secret, config


class _NoTasks(LocalScheduler):
    """A scheduler that fails the test if any task reaches it."""

    def run(self, tasks, **kwargs):
        raise AssertionError(f"{len(tasks)} task(s) were sent")


class TestProjectedDispatchParity:
    """Chunked dispatch reads histogram and mapping chunks at the
    secret's columns on the driver (``detect.counts``) and ships token
    lists whole (``detect.chunk``); both must answer what the reference
    answers, evidence included, at every chunk size."""

    @_settings
    @given(case=_mixed_batches())
    def test_mixed_batch_matches_reference_at_every_chunk_size(self, case):
        suspects, secret, config = case
        for collect_evidence in (False, True):
            for chunk_size in range(1, len(suspects) + 1):
                harness.assert_batch_parity(
                    suspects,
                    secret,
                    config,
                    chunk_size=chunk_size,
                    collect_evidence=collect_evidence,
                )

    @pytest.mark.parametrize(
        "counts",
        [{"0": 3, "1": -1}, {"0": 3, 1: True}, {"0": 0, 1: 0.0}],
        ids=["negative", "bool", "all-zero"],
    )
    def test_malformed_mapping_fails_on_the_driver(self, counts):
        secret = WatermarkSecret.build([("0", "1"), ("2", "3")], SECRET, 7)
        good = TokenHistogram.from_counts({"0": 4, "1": 2})
        with pytest.raises(HistogramError):
            dispatch_detection(_NoTasks(1), secret, None, [good, counts], chunk_size=1)


#: Raw token values of every kind ``canonical_token`` accepts, including
#: pairs that collide only after canonicalisation (``1`` / ``True`` /
#: ``1.0`` / ``"1"``, ``b"a"`` / ``"a"``, lists / tuples).
_scalar_values = st.one_of(
    st.sampled_from(["a", "b", "1", "True", "2", ""]),
    st.integers(min_value=-1, max_value=2),
    st.sampled_from([1.0, 2.0, 0.5, -0.0]),
    st.booleans(),
    st.binary(max_size=2),
    st.sampled_from(["a", "1", "b"]).map(np.str_),
)
_token_values = st.one_of(
    _scalar_values,
    st.tuples(_scalar_values, _scalar_values),
    st.lists(_scalar_values, max_size=2),
)
_str_tokens = st.lists(st.sampled_from("abcdef"), min_size=1, max_size=80)


@st.composite
def _edit_cases(draw, tokens_strategy):
    """``(tokens, deltas, seed)``: removals up to every occurrence of a
    token, additions to existing and to new tokens, in a drawn order."""
    tokens = draw(tokens_strategy)
    counts = histogram_from_tokens_reference(tokens).as_dict()
    deltas = {}
    for token in draw(st.permutations(sorted(counts))):
        delta = draw(st.integers(min_value=-counts[token], max_value=3))
        if delta:
            deltas[token] = delta
    for index in range(draw(st.integers(min_value=0, max_value=2))):
        deltas[f"new{index}"] = draw(st.integers(min_value=1, max_value=3))
    return tokens, deltas, draw(st.integers(min_value=0, max_value=2**32 - 1))


def _assert_transform_case(tokens, deltas, seed):
    """``transform_dataset`` from the tokens' histogram to the histogram
    the deltas reach (kept non-empty), against the reference edit."""
    original = histogram_from_tokens_reference(tokens)
    counts = original.as_dict()
    for token, delta in deltas.items():
        counts[token] = counts.get(token, 0) + delta
    if not any(counts.values()):
        counts["new"] = 1
    harness.assert_transform_parity(tokens, original, TokenHistogram.from_counts(counts), seed)


class TestTokenCountParity:
    @_settings
    @given(values=st.lists(_token_values, min_size=1, max_size=60))
    def test_from_tokens_matches_reference(self, values):
        harness.assert_count_parity(values)

    @_settings
    @given(values=_str_tokens)
    def test_all_str_tokens_match_reference(self, values):
        harness.assert_count_parity(values)

    @pytest.mark.parametrize(
        "values, expected",
        [
            ([1, True], {"1": 1, "True": 1}),
            ([1, 1.0, "1"], {"1": 3}),
            ([b"a", "a"], {"a": 2}),
            ([["a", "b"], ("a", "b")], {"a\x1fb": 2}),
            (
                ["1", 1, np.str_("1"), 1.0, True, np.str_("a"), "a", b"a", ("a",), ["a"]],
                {"1": 4, "True": 1, "a": 5},
            ),
        ],
    )
    def test_values_that_collide_only_before_canonicalisation(self, values, expected):
        assert harness.assert_count_parity(values).as_dict() == expected

    def test_recount_at_the_default_batch_boundary(self):
        # The first batch ends with an int, the second mixes types.
        values = ["a"] * (DEFAULT_CHUNK_SIZE - 1) + [1, True, "1", b"a", 1.0]
        counted = harness.assert_count_parity(values)
        assert counted.as_dict() == {"a": DEFAULT_CHUNK_SIZE, "1": 3, "True": 1}


class TestTokenEditParity:
    @_settings
    @given(case=_edit_cases(_str_tokens))
    def test_all_str_edit_matches_reference(self, case):
        harness.assert_edit_parity(*case)

    @_settings
    @given(case=_edit_cases(st.lists(_token_values, min_size=1, max_size=60)))
    def test_mixed_type_edit_matches_reference(self, case):
        harness.assert_edit_parity(*case)

    def test_new_token_and_full_removal_over_many_seeds(self):
        tokens = ["a"] * 40 + ["b"] * 25 + ["c"] * 7 + ["d"] * 3
        np.random.default_rng(5).shuffle(tokens)
        deltas = {"c": -7, "a": -4, "z": 3, "b": 2}
        for seed in range(40):
            edited = harness.assert_edit_parity(tokens, deltas, seed)
            assert "c" not in edited and edited.count("z") == 3

    def test_over_removal_fails_like_reference(self):
        message = harness.assert_edit_parity(["a", "b", "a"], {"b": -1, "a": -3}, 1)
        assert "cannot remove 3 appearances of 'a'" in message

    @_settings
    @given(case=_edit_cases(_str_tokens))
    def test_all_str_transform_matches_reference(self, case):
        _assert_transform_case(*case)

    @_settings
    @given(case=_edit_cases(st.lists(_token_values, min_size=1, max_size=60)))
    def test_mixed_type_transform_matches_reference(self, case):
        _assert_transform_case(*case)

    def test_transform_of_tuple_tokens(self):
        tokens = [("a", "b"), ("a", "c"), ("a", "b"), ["a", "b"], ("d",)] * 4
        original = TokenHistogram.from_tokens(tokens)
        target = TokenHistogram.from_counts({"a\x1fb": 10, "a\x1fc": 2, "z": 3})
        for seed in range(10):
            edited = harness.assert_transform_parity(tokens, original, target, seed)
            assert TokenHistogram.from_tokens(edited) == target

    def test_transform_of_tokens_outside_the_histogram(self):
        # ``original`` need not be the histogram of ``tokens``: "q" is
        # not in it, and its occurrences are kept.
        tokens = ["a", "b", "q", "a", "c", "q", "a"]
        original = TokenHistogram.from_counts({"a": 3, "b": 1, "c": 1})
        target = TokenHistogram.from_counts({"a": 1, "b": 3, "c": 1})
        for seed in range(10):
            edited = harness.assert_transform_parity(tokens, original, target, seed)
            assert edited.count("q") == 2 and edited.count("b") == 3

    def test_transform_insertions_at_both_ends_and_one_slot(self):
        # Every "a" goes and one "b" stays, so the seven new appearances
        # share the slots before and after it: all at slot 0, all at the
        # end, or split between the two.
        tokens = ["a", "b", "a", "a"]
        original = TokenHistogram.from_tokens(tokens)
        target = TokenHistogram.from_counts({"b": 1, "z": 4, "y": 3})
        placements = set()
        for seed in range(40):
            edited = harness.assert_transform_parity(tokens, original, target, seed)
            assert "a" not in edited and len(edited) == 8
            kept_at = edited.index("b")
            placements.add("end" if kept_at == 0 else "start" if kept_at == 7 else "both")
        assert placements == {"start", "end", "both"}


class TestCodedReadParity:
    """The generator's one coded read (:class:`CodedTokens`) counts and
    edits exactly as the plain-list paths and the reference do. The
    harness's count and edit checks run a ``CodedTokens`` shape too;
    these cover what they do not: the empty input, an edit through a
    read the count already made, and removals of absent tokens."""

    def test_empty_input_raises_the_same_error(self):
        messages = set()
        for count in (
            lambda: TokenHistogram.from_tokens(CodedTokens([])),
            lambda: TokenHistogram.from_tokens([]),
            lambda: histogram_from_tokens_reference([]),
        ):
            with pytest.raises(HistogramError) as raised:
                count()
            messages.add(str(raised.value))
        assert messages == {"cannot build a histogram from an empty dataset"}

    @_settings
    @given(case=_edit_cases(st.lists(_token_values, min_size=1, max_size=60)))
    def test_read_by_the_count_then_edited_matches_reference(self, case):
        # The generator's order: the histogram reads the sequence, and
        # the edit reuses that read.
        tokens, deltas, seed = case
        coded = CodedTokens(list(tokens))
        original = TokenHistogram.from_tokens(coded)
        counts = original.as_dict()
        for token, delta in deltas.items():
            counts[token] = counts.get(token, 0) + delta
        if not any(counts.values()):
            counts["new"] = 1
        target = TokenHistogram.from_counts(counts)
        expected = apply_deltas_reference(
            list(tokens), histogram_deltas(original, target), rng=seed
        )
        edited = transform_dataset(coded, original, target, rng=seed)
        assert edited == expected
        assert list(map(type, edited)) == list(map(type, expected))
        assert edited == transform_dataset(list(tokens), original, target, rng=seed)

    def test_every_occurrence_and_an_absent_token(self):
        tokens = [np.str_("a"), "b", "a", 1, "c", "a", "1", b"c"] * 3
        whole = {"a": -9, "1": -2, "z": 2}
        for seed in range(20):
            edited = harness.assert_edit_parity(tokens, whole, seed)
            assert "a" not in edited and edited.count("1") == 4
            # Two of the three numpy.str_ "a" may go; the rest stay
            # numpy.str_ (the harness also compares every type).
            kept = harness.assert_edit_parity(tokens, {"a": -2}, seed)
            assert any(type(token) is np.str_ for token in kept)
        message = harness.assert_edit_parity(tokens, {"b": -1, "q": -1}, 3)
        assert message == "cannot remove 1 appearances of 'q': only 0 present"
        message = harness.assert_edit_parity(tokens, {"a": -10}, 3)
        assert message == "cannot remove 10 appearances of 'a': only 9 present"


class TestTokenBoundariesRegression:
    def test_unbounded_upper_is_explicit(self):
        top = TokenBoundaries(upper=math.inf, lower=10)
        assert top.unbounded_upper
        # The unbounded upper never limits a change; the lower boundary does.
        assert top.allows_change(10)
        assert not top.allows_change(11)
        # Magnitudes beyond float precision must not be waved through by
        # an implicit float comparison.
        assert not top.allows_change(2**60)

    def test_finite_boundaries_compare_as_integers(self):
        bounds = TokenBoundaries(upper=float(2**53), lower=2**53 + 1)
        assert not bounds.unbounded_upper
        assert bounds.allows_change(2**53)
        assert not bounds.allows_change(2**53 + 1)

    def test_top_token_boundary_from_histogram(self):
        histogram = TokenHistogram.from_counts({"big": 1000, "small": 10})
        bounds = histogram.boundaries()
        assert bounds["big"].unbounded_upper
        assert bounds["big"].allows_change(990)
        assert not bounds["big"].allows_change(991)
