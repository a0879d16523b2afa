"""Differential parity suite: the vectorized engine vs the reference.

Hypothesis-driven sweeps over vocabulary sizes, modulus caps, detection
thresholds and chunk boundaries, every case run through the helpers in
``parity_harness``: the NumPy engine must agree with the reference dict
implementations in :mod:`repro.core.reference` (and the scalar
:func:`~repro.core.modification.plan_adjustment`) bit for bit —
verdicts, evidence vectors, embedding deltas.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import parity_harness as harness
from repro.core.config import MAX_MODULUS_CAP, DetectionConfig
from repro.core.detector import verify_pair_arrays
from repro.core.histogram import TokenHistogram
from repro.core.modification import plan_deltas

_settings = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

_TOKENS = "abcdefghijklmnopqrstuvwxyz0123456789.-"

_counts = st.dictionaries(
    st.text(alphabet=_TOKENS, min_size=1, max_size=8),
    st.integers(min_value=1, max_value=50_000),
    min_size=2,
    max_size=25,
)

_configs = st.builds(
    DetectionConfig,
    pair_threshold=st.integers(min_value=0, max_value=3),
    min_accepted_fraction=st.sampled_from([0.25, 0.5, 0.75, 1.0]),
    symmetric_tolerance=st.booleans(),
)


def _watermarked_case(counts):
    """Build (original, watermarked, secret) or None for vacuous draws."""
    from repro.core.modification import plan_adjustment

    built = harness.build_watermarked_case(counts)
    if built is None:
        return None
    histogram, secret = built
    deltas: dict = {}
    for pair, modulus in zip(secret.pairs, secret.moduli().tolist()):
        adjustment = plan_adjustment(
            histogram.frequency(pair.first),
            histogram.frequency(pair.second),
            modulus,
            pair,
        )
        for token, delta in adjustment.as_deltas().items():
            deltas[token] = deltas.get(token, 0) + delta
    watermarked = harness.perturbed(histogram, deltas)
    return histogram, watermarked, secret


class TestKernelParity:
    """Direct kernel-level agreement between the NumPy kernels and a dict loop."""

    @_settings
    @given(
        rows=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=10_000),  # first frequency
                st.integers(min_value=0, max_value=10_000),  # second frequency
                st.integers(min_value=2, max_value=61),  # modulus
                st.integers(min_value=0, max_value=4),  # threshold
                st.booleans(),  # usable modulus (valid)
            ),
            min_size=1,
            max_size=30,
        ),
        symmetric=st.booleans(),
    )
    def test_stacked_modulo_matches_reference_loop(self, rows, symmetric):
        first = np.array([row[0] for row in rows], dtype=np.int64)
        second = np.array([row[1] for row in rows], dtype=np.int64)
        moduli = np.array([row[2] for row in rows], dtype=np.int64)
        thresholds = np.array([row[3] for row in rows], dtype=np.int64)
        valid = np.array([row[4] for row in rows], dtype=bool)
        safe_moduli = np.where(valid, moduli, 1)
        expected_accepted, expected_present, expected_remainder = [], [], []
        for f_i, f_j, modulus, threshold, usable in rows:
            present = f_i > 0 and f_j > 0
            safe = modulus if usable else 1
            remainder = (f_i - f_j) % safe
            residue = min(remainder, safe - remainder) if symmetric else remainder
            expected_accepted.append(present and usable and residue <= threshold)
            expected_present.append(present)
            expected_remainder.append(remainder)
        accepted, present, remainder = verify_pair_arrays(
            first,
            second,
            safe_moduli=safe_moduli,
            valid=valid,
            thresholds=thresholds,
            symmetric_tolerance=symmetric,
        )
        assert accepted.tolist() == expected_accepted
        assert present.tolist() == expected_present
        assert remainder.tolist() == expected_remainder

    @_settings
    @given(
        pairs=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=5_000),
                st.integers(min_value=0, max_value=5_000),
                st.integers(min_value=2, max_value=61),
            ),
            min_size=1,
            max_size=20,
        )
    )
    def test_plan_deltas_matches_scalar_arithmetic(self, pairs):
        from repro.core.modification import plan_adjustment
        from repro.core.tokens import TokenPair

        ordered = [(max(a, b) + 1, min(a, b), modulus) for a, b, modulus in pairs]
        first = np.array([row[0] for row in ordered], dtype=np.int64)
        second = np.array([row[1] for row in ordered], dtype=np.int64)
        moduli = np.array([row[2] for row in ordered], dtype=np.int64)
        delta_first, delta_second = plan_deltas(first, second, moduli)
        for index, (f_i, f_j, modulus) in enumerate(ordered):
            expected = plan_adjustment(
                f_i, f_j, modulus, TokenPair(first="hi", second="lo")
            )
            where = f"plan_deltas[{index}] diverged"
            assert delta_first[index] == expected.delta_first, where
            assert delta_second[index] == expected.delta_second, where


class TestDetectionParity:
    @_settings
    @given(counts=_counts, config=_configs)
    def test_watermarked_and_original_verdicts(self, counts, config):
        case = _watermarked_case(counts)
        if case is None:
            return
        original, watermarked, secret = case
        reference = harness.assert_detection_parity(watermarked, secret, config)
        if not config.symmetric_tolerance and config.pair_threshold == 0:
            # The embedding aligned every stored pair, so the strict
            # paper rule must accept the watermarked histogram.
            assert reference.accepted
        harness.assert_detection_parity(original, secret, config)

    @_settings
    @given(counts=_counts, noise=_counts, config=_configs)
    def test_unrelated_data_verdicts(self, counts, noise, config):
        case = _watermarked_case(counts)
        if case is None:
            return
        _, _, secret = case
        harness.assert_detection_parity(TokenHistogram.from_counts(noise), secret, config)


class TestBatchChunkBoundaries:
    @_settings
    @given(
        counts=_counts,
        perturbations=st.lists(
            st.integers(min_value=-3, max_value=3), min_size=1, max_size=9
        ),
        chunk_size=st.integers(min_value=1, max_value=11),
    )
    def test_chunked_batches_match_reference(self, counts, perturbations, chunk_size):
        case = _watermarked_case(counts)
        if case is None:
            return
        original, watermarked, secret = case
        anchor = next(iter(counts))
        suspects = [original, watermarked] + [
            harness.perturbed(watermarked, {anchor: delta})
            for delta in perturbations
        ]
        harness.assert_batch_parity(suspects, secret, chunk_size=chunk_size)


class TestManySecretsParity:
    @_settings
    @given(
        counts=_counts,
        forged_seeds=st.lists(
            st.integers(min_value=1, max_value=2**31), min_size=1, max_size=4
        ),
        config=_configs,
    )
    def test_true_and_forged_secrets(self, counts, forged_seeds, config):
        case = _watermarked_case(counts)
        if case is None:
            return
        _, watermarked, secret = case
        secrets = [secret]
        for seed in forged_seeds:
            forged = harness.build_watermarked_case(
                counts, secret_value=seed, budget=1.5
            )
            if forged is not None:
                secrets.append(forged[1])
        harness.assert_many_secrets_parity(watermarked, secrets, config)


class TestEmbeddingParity:
    @_settings
    @given(counts=_counts, seed=st.integers(min_value=0, max_value=2**31))
    def test_full_generation_is_backend_invariant(self, counts, seed):
        harness.assert_embedding_parity(counts, rng_seed=seed)


class TestEligibilityParity:
    @_settings
    @given(
        counts=_counts,
        modulus_cap=st.integers(min_value=2, max_value=200),
        require_modification=st.booleans(),
    )
    def test_vectorized_scan_matches_loop(
        self, counts, modulus_cap, require_modification
    ):
        harness.assert_eligibility_parity(
            TokenHistogram.from_counts(counts),
            modulus_cap=modulus_cap,
            require_modification=require_modification,
        )


#: Non-ASCII tokens, and tokens that are prefixes of one another, so the
#: plan's rank order must match ``str`` comparison of the pairs. "Ａ"
#: (U+FF21) sorts below "𝄞" (U+1D11E) by code point but above it in UTF-16.
_ORDER_TOKENS = st.one_of(
    st.sampled_from(["a", "ab", "abc", "é", "éa", "中", "中文", "Ａ", "𝄞", "𝄞a", "Z", "ß", "ss"]),
    st.text(alphabet="aéZ中Ａ𝄞\x1f", min_size=1, max_size=4),
)


class TestEligibilityOrder:
    """The plan's ``np.lexsort`` order against the loop's ``(cost, pair)`` sort."""

    @_settings
    @given(
        counts=st.dictionaries(
            _ORDER_TOKENS, st.integers(min_value=1, max_value=400), min_size=2, max_size=30
        ),
        modulus_cap=st.integers(min_value=2, max_value=7),
        secret_value=st.integers(min_value=0, max_value=2**256),
        require_modification=st.booleans(),
    )
    def test_small_caps_order_equal_costs_by_pair(
        self, counts, modulus_cap, secret_value, require_modification
    ):
        harness.assert_eligibility_parity(
            TokenHistogram.from_counts(counts),
            secret_value=secret_value,
            modulus_cap=modulus_cap,
            require_modification=require_modification,
        )

    def test_caps_near_the_maximum_keep_int64_costs_exact(self):
        # Gaps between counts as wide as the int64 counts allow give slacks
        # that moduli near 2**63 can meet, so some pairs survive and their
        # costs take both branches of ``EligiblePair.cost``.
        rng = np.random.default_rng(20241019)
        survivors = []
        for trial in range(60):
            size = int(rng.integers(2, 7))
            gaps = rng.integers(2**56, MAX_MODULUS_CAP // size, size=size).tolist()
            counts = dict(zip(["a", "ab", "é", "中文", "𝄞", "Z"], np.cumsum(gaps).tolist()))
            survivors += harness.assert_eligibility_parity(
                TokenHistogram.from_counts(counts),
                secret_value=int(rng.integers(2**62)) << 190 | trial,
                modulus_cap=MAX_MODULUS_CAP - trial % 3,
            )
        assert len(survivors) >= 30
        assert max(item.modulus for item in survivors) > 2**61
        assert any(item.remainder > item.modulus // 2 for item in survivors)
        assert any(0 < item.remainder <= item.modulus // 2 for item in survivors)


class TestMonteCarloParity:
    @pytest.mark.parametrize(
        "trials", [1, 1023, 1024, 1025, 2048 + 7], ids=lambda t: f"trials{t}"
    )
    def test_batched_rate_equals_per_trial_loop(self, trials):
        from repro.analysis.false_positive import empirical_false_positive_rate

        moduli = [7, 11, 13, 29, 61]
        expected = harness.reference_false_positive_rate(
            moduli, 2, 2, trials=trials, seed=20240807
        )
        actual = empirical_false_positive_rate(
            moduli, 2, 2, trials=trials, rng=20240807
        )
        assert actual == expected

    def test_rng_stream_matches_per_trial_loop(self):
        from repro.analysis.false_positive import empirical_false_positive_rate

        expected = harness.reference_false_positive_rate(
            [5, 9, 17, 33], 1, 3, trials=1500, seed=7
        )
        actual = empirical_false_positive_rate(
            [5, 9, 17, 33], 1, 3, trials=1500, rng=7
        )
        assert actual == expected


class TestSpawnFailureFallback:
    """Sharded dispatch that cannot spawn must fall back in-process."""

    def test_detect_many_falls_back_in_process(self, monkeypatch):
        import os

        from repro.core.batch import detect_many
        from repro.core.reference import detect_reference
        from repro.exec.policy import ExecutionPolicy

        def failing_fork():
            raise OSError("fork refused in this sandbox")

        monkeypatch.setattr(os, "fork", failing_fork)
        case = harness.build_watermarked_case(
            {"a": 4000, "b": 2600, "c": 1500, "d": 900, "e": 500, "f": 220}
        )
        assert case is not None
        histogram, secret = case
        suspects = [histogram, histogram.scaled(1.2), histogram.scaled(0.8)]
        with pytest.warns(RuntimeWarning, match="fork refused in this sandbox"):
            report = detect_many(
                suspects, secret, policy=ExecutionPolicy(workers=4)
            )
        assert len(report) == len(suspects)
        for suspect, result in zip(suspects, report):
            reference = detect_reference(suspect, secret)
            assert result.accepted == reference.accepted
            assert result.accepted_pairs == reference.accepted_pairs
