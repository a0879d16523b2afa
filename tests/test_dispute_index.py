"""Candidate-index attribution: scale parity, revocation, in-place upkeep.

These tests exercise the index screen the marketplace workflow depends
on (``docs/registry.md``): verdict parity with the full linear
:func:`~repro.core.batch.detect_many_secrets` scan over a
multi-thousand-buyer vault, real candidate pruning, revocation
semantics, and the empty / single-secret edges.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.batch import detect_many_secrets
from repro.core.config import DetectionConfig
from repro.core.detector import gather_counts, suspect_counts, verify_pair_arrays
from repro.core.histogram import TokenCounts, TokenHistogram, checked_counts
from repro.core.secrets import WatermarkSecret
from repro.dispute import WatermarkRegistry
from repro.dispute.index import CandidateIndex
from repro.exceptions import DisputeError

#: Exact-alignment acceptance, half the pairs required — the marketplace
#: attribution rule the benchmarks use.
DETECTION = DetectionConfig(pair_threshold=0, min_accepted_fraction=0.5)


def _decoy_secrets(vocabulary, count, modulus_cap, *, pairs=8, seed=7):
    """``count`` synthetic buyer secrets with random pair lists.

    Pairs are drawn over the leaked copy's own vocabulary so every
    bucket is a live modulus test (the screen cannot shortcut on
    missing tokens), mirroring ``benchmarks/bench_registry.py``.
    """
    rng = np.random.default_rng(seed)
    tokens = np.array(sorted(vocabulary))
    first = rng.integers(0, len(tokens), size=(count, pairs))
    # A nonzero offset keeps first != second without a rejection loop.
    second = (first + rng.integers(1, len(tokens), size=first.shape)) % len(tokens)
    values = rng.integers(1, 2**63, size=count)
    return [
        WatermarkSecret.build(
            list(zip(tokens[first[index]], tokens[second[index]])),
            int(values[index]),
            modulus_cap,
        )
        for index in range(count)
    ]


def _populated_registry(result, *, decoys):
    """A registry holding the real watermark plus ``decoys`` synthetic buyers."""
    registry = WatermarkRegistry()
    registry.register("buyer-real", result.secret)
    secrets = _decoy_secrets(
        result.watermarked_histogram.as_dict(), decoys, result.secret.modulus_cap
    )
    for index, secret in enumerate(secrets):
        registry.register(f"decoy-{index:04d}", secret)
    return registry


def test_index_parity_with_linear_scan(watermarked_bundle):
    """Index-mode verdicts are identical to screening the whole vault."""
    result, _ = watermarked_bundle
    registry = _populated_registry(result, decoys=1999)

    matches = registry.attribute_leak(result.watermarked_histogram, detection=DETECTION)

    buyers = registry.active_buyers
    linear_results = detect_many_secrets(
        result.watermarked_histogram,
        [registry.secret_for(buyer) for buyer in buyers],
        DETECTION,
    )
    linear_accepted = {
        buyer for buyer, verdict in zip(buyers, linear_results) if verdict.accepted
    }

    assert {buyer for buyer, _ in matches} == linear_accepted
    assert "buyer-real" in linear_accepted
    fractions = [fraction for _, fraction in matches]
    assert fractions == sorted(fractions, reverse=True)

    stats = registry.last_attribution
    assert stats is not None
    assert stats.mode == "index"
    assert stats.active_secrets == 2000
    assert 0 < stats.candidates < stats.active_secrets
    assert stats.matches == len(matches)


def test_empty_vault_attribution(skewed_histogram):
    """An empty vault attributes nothing and reports the empty screen."""
    registry = WatermarkRegistry()
    assert registry.attribute_leak(skewed_histogram, detection=DETECTION) == []
    stats = registry.last_attribution
    assert stats is not None
    assert stats.mode == "empty"
    assert stats.candidates == 0
    assert stats.active_secrets == 0
    assert stats.matches == 0


def test_single_secret_attribution(watermarked_bundle):
    """A one-buyer vault convicts that buyer via the index screen."""
    result, _ = watermarked_bundle
    registry = WatermarkRegistry()
    registry.register("only-buyer", result.secret)

    matches = registry.attribute_leak(result.watermarked_histogram, detection=DETECTION)

    assert [buyer for buyer, _ in matches] == ["only-buyer"]
    stats = registry.last_attribution
    assert stats is not None
    assert stats.mode == "index"
    assert stats.active_secrets == 1


def test_revoke_then_attribute_never_returns_revoked(watermarked_bundle):
    """A revoked buyer can never be named again — until re-registered."""
    result, _ = watermarked_bundle
    registry = _populated_registry(result, decoys=10)

    before = registry.attribute_leak(result.watermarked_histogram, detection=DETECTION)
    assert "buyer-real" in {buyer for buyer, _ in before}

    registry.revoke("buyer-real", reason="leak")
    after = registry.attribute_leak(result.watermarked_histogram, detection=DETECTION)
    assert "buyer-real" not in {buyer for buyer, _ in after}

    with pytest.raises(DisputeError):
        registry.revoke("buyer-real")
    with pytest.raises(DisputeError):
        registry.secret_for("buyer-real")

    # Re-registration is allowed and restores attribution.
    registry.register("buyer-real", result.secret)
    again = registry.attribute_leak(result.watermarked_histogram, detection=DETECTION)
    assert "buyer-real" in {buyer for buyer, _ in again}
    assert registry.verify_chain()


def test_index_stats_track_registrations_and_revocations(watermarked_bundle):
    """Structural counters follow register/revoke exactly."""
    result, _ = watermarked_bundle
    registry = WatermarkRegistry()
    registry.register("buyer-real", result.secret)
    baseline = registry.index_stats()
    assert baseline.active_secrets == 1

    decoys = _decoy_secrets(
        result.watermarked_histogram.as_dict(), 2, result.secret.modulus_cap
    )
    registry.register("decoy-0000", decoys[0])
    registry.register("decoy-0001", decoys[1])
    grown = registry.index_stats()
    assert grown.active_secrets == 3
    assert grown.postings == baseline.postings + 16
    assert grown.buckets <= grown.postings

    registry.revoke("decoy-0000")
    shrunk = registry.index_stats()
    assert shrunk.active_secrets == 2
    assert shrunk.postings == baseline.postings + 8


# --------------------------------------------------------------------------- #
# In-place index maintenance
# --------------------------------------------------------------------------- #

#: A leaked copy over part of the sequence vocabulary (t6 and t7 are
#: missing from it).
_LEAK = {"t0": 40, "t1": 33, "t2": 19, "t3": 12, "t4": 7, "t5": 3}
_VOCAB = [f"t{index}" for index in range(8)]
#: Tokens no secret stores: a leaked copy may hold them, and more
#: distinct tokens than the whole index vocabulary.
_OUTSIDE = [f"u{index}" for index in range(12)]
_WIDE_LEAK = dict(_LEAK, t7=21, **{token: 5 + index for index, token in enumerate(_OUTSIDE)})
_ROWS = range(6)

_leaks = st.dictionaries(
    st.sampled_from(_VOCAB + _OUTSIDE),
    st.integers(min_value=1, max_value=50),
    min_size=1,
    max_size=20,
)

#: Few tokens, secret values and caps, so secrets share buckets.
_sequence_secret = st.builds(
    WatermarkSecret.build,
    st.lists(
        st.tuples(st.sampled_from(_VOCAB), st.sampled_from(_VOCAB)).filter(
            lambda members: members[0] != members[1]
        ),
        min_size=1,
        max_size=4,
    ),
    st.integers(min_value=1, max_value=6),
    st.sampled_from([2, 3, 5]),
)


def _reference_screen(rows, data, detection):
    """``(rows, buckets_accepted)`` of a screen that reads the leaked copy
    the vocabulary's way: one ``gather_counts`` over every index token."""
    buckets, postings = {}, []
    for row in sorted(rows):
        for pair, modulus in zip(rows[row].pairs, rows[row].moduli().tolist()):
            bucket = buckets.setdefault((pair.first, pair.second, modulus), len(buckets))
            postings.append((bucket, row))
    vocabulary = list(dict.fromkeys(token for key in buckets for token in key[:2]))
    counts = dict(zip(vocabulary, gather_counts(suspect_counts(data), vocabulary).tolist()))
    first = np.array([counts[key[0]] for key in buckets], dtype=np.int64)
    second = np.array([counts[key[1]] for key in buckets], dtype=np.int64)
    moduli = np.array([key[2] for key in buckets], dtype=np.int64)
    valid = moduli >= 2
    accepted, _present, _remainder = verify_pair_arrays(
        first,
        second,
        safe_moduli=np.where(valid, moduli, 1),
        valid=valid,
        thresholds=detection.thresholds_for(moduli),
        symmetric_tolerance=detection.symmetric_tolerance,
    )
    hits = Counter(row for bucket, row in postings if accepted[bucket])
    candidates = tuple(
        row for row in sorted(rows) if hits[row] >= detection.required_pairs(len(rows[row].pairs))
    )
    return candidates, int(accepted.sum())


def _assert_index_matches(live, rows, detection, leak=_LEAK):
    """``live`` screens like an index built fresh from ``rows``, and
    its candidates are exactly what the stacked pass accepts; on
    ``leak`` and on a copy wider than the index vocabulary, as checked
    counts and as a histogram alike, it screens like a vocabulary-side
    gather."""
    fresh = CandidateIndex()
    for row in sorted(rows):
        fresh.add(row, rows[row])
    screen = live.screen(_LEAK, detection)
    assert screen == fresh.screen(_LEAK, detection)
    assert screen == live.screen(TokenHistogram.from_counts(_LEAK), detection)
    assert live.stats() == fresh.stats()
    assert len(live) == len(rows)
    ordered = sorted(rows)
    results = detect_many_secrets(_LEAK, [rows[row] for row in ordered], detection)
    accepted = {row for row, result in zip(ordered, results) if result.accepted}
    assert set(screen.rows) == accepted
    for counts in (leak, _WIDE_LEAK):
        reference = _reference_screen(rows, counts, detection)
        checked = checked_counts(counts)
        assert type(checked) is TokenCounts
        for data in (checked, TokenHistogram.from_counts(counts)):
            outcome = live.screen(data, detection)
            assert (outcome.rows, outcome.buckets_accepted) == reference


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_in_place_index_matches_fresh_build_and_stacked_pass(data):
    """Any add/remove/screen sequence (rows reused after removal
    included) leaves the in-place index equal to a fresh build, and
    every screen equal to a vocabulary-side gather on any leaked copy."""
    live = CandidateIndex()
    detection = DetectionConfig(
        pair_threshold=data.draw(st.integers(min_value=0, max_value=1)),
        min_accepted_fraction=data.draw(st.sampled_from([0.25, 0.5, 1.0])),
    )
    rows = {}
    for _ in range(data.draw(st.integers(min_value=1, max_value=25))):
        free = [row for row in _ROWS if row not in rows]
        steps = ["screen"] + (["add"] if free else []) + (["remove"] if rows else [])
        step = data.draw(st.sampled_from(steps))
        if step == "add":
            row = data.draw(st.sampled_from(free))
            rows[row] = data.draw(_sequence_secret)
            live.add(row, rows[row])
        elif step == "remove":
            row = data.draw(st.sampled_from(sorted(rows)))
            del rows[row]
            live.remove(row)
        else:
            _assert_index_matches(live, rows, detection, data.draw(_leaks))
    _assert_index_matches(live, rows, detection)


def test_index_rejects_bad_rows(watermarked_bundle):
    result, _ = watermarked_bundle
    index = CandidateIndex()
    with pytest.raises(DisputeError):
        index.add(-1, result.secret)
    index.add(3, result.secret)
    with pytest.raises(DisputeError):
        index.add(3, result.secret)
    for row in (-1, 0, 4, 99):
        with pytest.raises(DisputeError):
            index.remove(row)
    index.remove(3)
    with pytest.raises(DisputeError):
        index.remove(3)
