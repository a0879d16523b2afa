"""Unit tests for the false-positive probability analysis — Section III-B4."""

from __future__ import annotations

from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.false_positive import (
    empirical_false_positive_rate,
    false_positive_bound,
    markov_bound,
    pair_false_positive_probability,
    poisson_binomial_pmf,
    poisson_binomial_survival,
    profile_from_moduli,
    survival_curve,
    uniform_probability_profile,
)
from repro.exceptions import ConfigurationError


def _binomial_pmf(n: int, p: Fraction):
    """Exact rational ``P(X = j)`` for ``X ~ Binomial(n, p)``, ``j = 0..n``."""
    return [comb(n, j) * p**j * (1 - p) ** (n - j) for j in range(n + 1)]


def _binomial_tail(n: int, k: int, p: Fraction) -> float:
    """Exact ``P(X >= k)``, summed in rationals and rounded once."""
    return float(sum(_binomial_pmf(n, p)[max(k, 0):]))


class TestPairProbability:
    def test_uniform_remainder_model(self):
        assert pair_false_positive_probability(131, 0) == pytest.approx(1 / 131)
        assert pair_false_positive_probability(131, 12) == pytest.approx(13 / 131)
        assert pair_false_positive_probability(10, 100) == 1.0

    def test_invalid_inputs(self):
        with pytest.raises(ConfigurationError):
            pair_false_positive_probability(1, 0)
        with pytest.raises(ConfigurationError):
            pair_false_positive_probability(10, -1)


class TestPoissonBinomial:
    def test_matches_binomial_for_identical_probabilities(self):
        n, p = 30, Fraction(1, 5)
        pmf = poisson_binomial_pmf([float(p)] * n)
        reference = [float(value) for value in _binomial_pmf(n, p)]
        assert pmf.tolist() == pytest.approx(reference, rel=1e-12, abs=0)

    def test_pmf_sums_to_one(self, rng):
        probabilities = rng.uniform(0, 1, size=40)
        pmf = poisson_binomial_pmf(probabilities)
        assert pmf.sum() == pytest.approx(1.0)
        assert np.all(pmf >= 0)

    def test_survival_against_binomial(self):
        """Every tail of Binomial(n, 1/z), down to 1e-300, to relative 1e-11."""
        for n, z in [(50, 10), (50, 31), (100, 131), (200, 2), (200, 131), (400, 1024)]:
            p = Fraction(1, z)
            curve = survival_curve([float(p)] * n)
            checked = 0
            for k in range(n + 1):
                exact = _binomial_tail(n, k, p)
                if exact < 1e-300:
                    break
                assert curve[k] == pytest.approx(exact, rel=1e-11, abs=0), (n, z, k)
                checked += 1
            assert checked > n // 4
            for k in (0, 1, n // 2, n, n + 1):
                expected = curve[k] if k <= n else 0.0
                assert poisson_binomial_survival([float(p)] * n, k) == expected

    @pytest.mark.parametrize(
        ("n", "k", "z", "exact"),
        [(50, 25, 31, 2.99e-24), (100, 50, 131, 9.49e-78)],
    )
    def test_tiny_tails_keep_their_relative_accuracy(self, n, k, z, exact):
        survival = poisson_binomial_survival([1 / z] * n, k)
        assert survival == pytest.approx(_binomial_tail(n, k, Fraction(1, z)), rel=1e-11)
        assert survival == pytest.approx(exact, rel=2e-3)

    def test_survival_edge_cases(self):
        assert poisson_binomial_survival([0.5] * 10, 0) == 1.0
        assert poisson_binomial_survival([0.5] * 10, 11) == 0.0

    def test_empty_probabilities(self):
        assert poisson_binomial_pmf([]).tolist() == [1.0]

    def test_invalid_probability_rejected(self):
        with pytest.raises(ConfigurationError):
            poisson_binomial_pmf([0.5, 1.5])

    def test_survival_curve_monotone_decreasing(self, rng):
        probabilities = rng.uniform(0, 1, size=50)
        curve = survival_curve(probabilities)
        assert curve[0] == pytest.approx(1.0)
        assert np.all(np.diff(curve) <= 1e-12)
        # The paper's observation for n = 50: survival reaches ~0 at k = n.
        assert curve[-1] < 0.05


class TestMarkovBound:
    def test_bound_dominates_exact_probability(self, rng):
        probabilities = rng.uniform(0, 0.3, size=30)
        for k in (1, 5, 10, 20):
            assert markov_bound(probabilities, k) + 1e-12 >= poisson_binomial_survival(
                probabilities, k
            )

    def test_limit_in_t(self):
        # As t -> 0 the per-pair probability and hence the bound go to zero.
        bounds = [
            false_positive_bound(50, 10, modulus=131, threshold=t) for t in (20, 10, 4, 0)
        ]
        assert bounds == sorted(bounds, reverse=True)
        assert bounds[-1] < 0.04

    def test_limit_in_k(self):
        bounds = [false_positive_bound(50, k, modulus=131, threshold=4) for k in (1, 5, 20, 50)]
        assert bounds == sorted(bounds, reverse=True)

    def test_k_zero_gives_one(self):
        assert markov_bound([0.1] * 10, 0) == 1.0


class TestProfiles:
    def test_profile_from_moduli(self):
        profile = profile_from_moduli([100, 50, 25], threshold=4)
        assert profile.pair_probabilities == pytest.approx((5 / 100, 5 / 50, 5 / 25))
        assert profile.mean_accepted_pairs == pytest.approx(5 / 100 + 5 / 50 + 5 / 25)

    def test_minimal_k_reaches_target(self):
        profile = profile_from_moduli([131] * 40, threshold=0)
        k = profile.minimal_k_for(1e-6)
        assert profile.exact_probability(k) <= 1e-6
        assert profile.exact_probability(max(0, k - 1)) > 1e-6

    def test_minimal_k_for_a_tiny_target(self):
        profile = profile_from_moduli([31] * 50, threshold=0)
        assert profile.minimal_k_for(1e-18) == 22
        assert _binomial_tail(50, 22, Fraction(1, 31)) <= 1e-18
        assert _binomial_tail(50, 21, Fraction(1, 31)) > 1e-18

    def test_minimal_k_for_edge_targets(self):
        profile = profile_from_moduli([4] * 10, threshold=0)
        assert profile.minimal_k_for(1.0) == 0
        assert profile.minimal_k_for(-1.0) == 11  # never reached: n + 1

    def test_markov_dominates_exact_in_profile(self):
        profile = uniform_probability_profile(30, rng=3)
        for k in (5, 15, 25):
            assert profile.markov_probability(k) + 1e-12 >= profile.exact_probability(k)


#: Hypothesis sweep over the paper's (n, t, moduli) knobs: modest example
#: counts keep the Monte-Carlo cross-checks fast while still roaming the
#: space of pair counts, thresholds and modulus mixes.
_fp_settings = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

_moduli_strategy = st.lists(
    st.integers(min_value=2, max_value=131), min_size=1, max_size=40
)


class TestExactSurvivalCrossChecks:
    """The exact survival function against its two independent estimates.

    Property-based over ``n`` (implied by the moduli list length), the
    per-pair threshold ``t`` and the modulus mix — the three knobs the
    paper sweeps in Section III-B4.
    """

    @_fp_settings
    @given(moduli=_moduli_strategy, threshold=st.integers(min_value=0, max_value=16))
    def test_exact_survival_within_monte_carlo_noise(self, moduli, threshold):
        probabilities = [
            pair_false_positive_probability(modulus, threshold) for modulus in moduli
        ]
        k = max(1, len(moduli) // 2)
        exact = poisson_binomial_survival(probabilities, k)
        trials = 1500
        empirical = empirical_false_positive_rate(
            moduli, threshold, k, trials=trials, rng=101
        )
        # Four-sigma binomial confidence band around the exact value (plus
        # a floor for the tiny-probability regime where sigma ~ 0).
        sigma = np.sqrt(max(exact * (1.0 - exact), 1e-12) / trials)
        assert abs(empirical - exact) <= 4.0 * sigma + 5.0 / trials

    @_fp_settings
    @given(
        moduli=_moduli_strategy,
        threshold=st.integers(min_value=0, max_value=16),
        k_fraction=st.floats(min_value=0.05, max_value=1.0),
    )
    def test_markov_bound_dominates_exact_survival(
        self, moduli, threshold, k_fraction
    ):
        probabilities = [
            pair_false_positive_probability(modulus, threshold) for modulus in moduli
        ]
        k = max(1, int(round(k_fraction * len(moduli))))
        exact = poisson_binomial_survival(probabilities, k)
        assert markov_bound(probabilities, k) + 1e-12 >= exact

    @_fp_settings
    @given(moduli=_moduli_strategy, threshold=st.integers(min_value=0, max_value=16))
    def test_survival_is_a_valid_decreasing_tail(self, moduli, threshold):
        profile = profile_from_moduli(moduli, threshold)
        values = [
            profile.exact_probability(k) for k in range(len(moduli) + 2)
        ]
        assert values[0] == pytest.approx(1.0)
        assert values[-1] == 0.0
        assert all(0.0 <= value <= 1.0 for value in values)
        assert all(
            later <= earlier + 1e-12 for earlier, later in zip(values, values[1:])
        )


class TestEmpiricalValidation:
    def test_monte_carlo_close_to_exact(self):
        moduli = [131] * 30
        threshold, k = 4, 3
        exact = poisson_binomial_survival(
            [pair_false_positive_probability(m, threshold) for m in moduli], k
        )
        empirical = empirical_false_positive_rate(
            moduli, threshold, k, trials=4000, rng=11
        )
        assert empirical == pytest.approx(exact, abs=0.03)

    def test_invalid_moduli_rejected(self):
        with pytest.raises(ConfigurationError):
            empirical_false_positive_rate([1, 10], 0, 1, trials=10)
