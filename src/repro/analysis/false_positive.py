"""False-positive probability analysis — Section III-B4.

A false positive is "detecting" a watermark on a dataset that does not
carry it. For an unwatermarked pair the remainder ``(f_i - f_j) mod s_ij``
is modelled as uniform, so the pair verifies at threshold ``t`` with some
probability ``p_m`` (``(t + 1) / s_ij`` for integer thresholds, ``t / s``
in the paper's continuous approximation). With ``n`` stored pairs, the
number of accepted pairs ``S_n = sum_m X_m`` is a Poisson-Binomial random
variable, and the dataset is falsely accepted when ``S_n >= k``.

The paper derives two results we reproduce here:

* **Markov bound** — ``P(S_n >= k) <= mu / k`` with ``mu = sum_m p_m``; as
  ``t -> 0`` (so ``mu -> 0``) or ``k -> infinity`` the bound, and hence
  the false-positive probability, goes to zero.
* **Exact survival function** — computed through the Discrete Fourier
  Transform of the Poisson-Binomial characteristic function (the paper
  evaluates it for ``n = 50`` with ``p_m ~ Uniform[0, 1]``), showing the
  survival probability reaching 0 as ``k`` approaches ``n``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.utils.rng import RngLike, ensure_rng


def pair_false_positive_probability(modulus: int, threshold: int) -> float:
    """Probability that an unwatermarked pair verifies at threshold ``t``.

    With the remainder uniform on ``{0, ..., modulus-1}`` and the paper's
    acceptance rule ``remainder <= t`` the probability is
    ``min(1, (t + 1) / modulus)``.
    """
    if modulus < 2:
        raise ConfigurationError(f"modulus must be >= 2, got {modulus}")
    if threshold < 0:
        raise ConfigurationError(f"threshold must be >= 0, got {threshold}")
    return min(1.0, (threshold + 1) / modulus)


def poisson_binomial_pmf(probabilities: Sequence[float]) -> np.ndarray:
    """Exact PMF of a Poisson-Binomial distribution via the DFT method.

    Given success probabilities ``p_1..p_n``, returns an array of length
    ``n + 1`` whose ``j``-th entry is ``P(S_n = j)``. The characteristic
    function is evaluated at the ``n + 1`` roots of unity and inverted with
    an inverse FFT — the same construction the paper cites.
    """
    p = np.asarray(probabilities, dtype=float)
    if p.size == 0:
        return np.array([1.0])
    if np.any((p < 0) | (p > 1)):
        raise ConfigurationError("success probabilities must lie in [0, 1]")
    n = p.size
    size = n + 1
    omega = 2j * np.pi / size
    # Characteristic function at each Fourier frequency l.
    l_values = np.arange(size)
    # phi[l] = prod_m (1 - p_m + p_m * exp(i * omega * l))
    exponentials = np.exp(omega * l_values)  # shape (size,)
    phi = np.prod(1.0 - p[:, None] + p[:, None] * exponentials[None, :], axis=0)
    # Invert the characteristic function:
    #   P(S = k) = (1 / size) * sum_l phi[l] * exp(-i * omega * l * k),
    # which is a forward DFT of phi divided by the transform length.
    pmf = (np.fft.fft(phi) / size).real
    pmf = np.clip(pmf, 0.0, 1.0)
    total = pmf.sum()
    if total > 0:
        pmf = pmf / total
    return pmf


def poisson_binomial_survival(probabilities: Sequence[float], k: int) -> float:
    """Exact ``P(S_n >= k)`` for a Poisson-Binomial with the given ``p_m``.

    The tail sum is clamped into ``[0, 1]``: accumulated rounding in the
    convolution can push it a few ulp past 1, and callers treat the
    value as a probability.
    """
    pmf = poisson_binomial_pmf(probabilities)
    if k <= 0:
        return 1.0
    if k >= pmf.size:
        return 0.0
    return min(1.0, max(0.0, float(pmf[k:].sum())))


def survival_curve(probabilities: Sequence[float]) -> np.ndarray:
    """``P(S_n >= k)`` for every ``k`` in ``0..n`` (the paper's n=50 plot)."""
    pmf = poisson_binomial_pmf(probabilities)
    # Survival at k is the sum of pmf from k to n.
    return np.concatenate((np.cumsum(pmf[::-1])[::-1], [0.0]))[: pmf.size]


def markov_bound(probabilities: Sequence[float], k: int) -> float:
    """Markov's upper bound ``P(S_n >= k) <= mu / k`` (clipped to 1)."""
    if k <= 0:
        return 1.0
    mu = float(np.sum(np.asarray(probabilities, dtype=float)))
    return min(1.0, mu / k)


def false_positive_bound(
    n_pairs: int,
    k: int,
    *,
    modulus: int,
    threshold: int,
) -> float:
    """Closed-form Markov bound for identical pair probabilities.

    This is the practical form an owner uses to pick ``(t, k)``: every
    unwatermarked pair verifies with probability ``(t + 1) / s``, so
    ``mu = n (t + 1) / s`` and the bound is ``mu / k``.
    """
    p = pair_false_positive_probability(modulus, threshold)
    return markov_bound([p] * n_pairs, k)


@dataclass(frozen=True)
class FalsePositiveProfile:
    """The false-positive behaviour of one (n, moduli, t) configuration."""

    pair_probabilities: Tuple[float, ...]
    threshold: int

    @property
    def mean_accepted_pairs(self) -> float:
        """Expected number of falsely accepted pairs (``mu``)."""
        return float(np.sum(self.pair_probabilities))

    def exact_probability(self, k: int) -> float:
        """Exact false-positive probability at detection threshold ``k``."""
        return poisson_binomial_survival(self.pair_probabilities, k)

    def markov_probability(self, k: int) -> float:
        """Markov upper bound at detection threshold ``k``."""
        return markov_bound(self.pair_probabilities, k)

    def minimal_k_for(self, target: float) -> int:
        """Smallest ``k`` whose exact false-positive probability is <= target."""
        for k in range(len(self.pair_probabilities) + 1):
            if self.exact_probability(k) <= target:
                return k
        return len(self.pair_probabilities) + 1


def profile_from_moduli(
    moduli: Sequence[int], threshold: int
) -> FalsePositiveProfile:
    """Build a profile from the actual pair moduli of a secret list."""
    probabilities = tuple(
        pair_false_positive_probability(modulus, threshold) for modulus in moduli
    )
    return FalsePositiveProfile(pair_probabilities=probabilities, threshold=threshold)


def uniform_probability_profile(
    n_pairs: int, *, rng: RngLike = None, threshold: int = 0
) -> FalsePositiveProfile:
    """Profile with ``p_m ~ Uniform[0, 1]`` — the paper's analytical setting."""
    generator = ensure_rng(rng)
    probabilities = tuple(float(value) for value in generator.uniform(0.0, 1.0, size=n_pairs))
    return FalsePositiveProfile(pair_probabilities=probabilities, threshold=threshold)


#: Trials drawn per Monte-Carlo batch: large enough that the acceptance
#: counting runs as a handful of matrix kernels, small enough that the
#: ``(batch, pairs)`` draw matrix stays modest for wide secret lists.
MC_TRIAL_BATCH = 1024


def monte_carlo_accept(remainders: np.ndarray, threshold: int, required: int) -> int:
    """Count Monte-Carlo trials that clear the acceptance rule.

    ``remainders`` is a ``(trials, pairs)`` matrix of simulated residues;
    a trial is a false positive when at least ``required`` residues fall
    within ``threshold``. Returns the number of such trials.
    """
    accepted = (remainders <= threshold).sum(axis=1)
    return int((accepted >= required).sum())


def empirical_false_positive_rate(
    moduli: Sequence[int],
    threshold: int,
    k: int,
    *,
    trials: int = 2000,
    rng: RngLike = None,
) -> float:
    """Monte-Carlo estimate of the false-positive rate.

    Each trial draws an independent uniform remainder for every pair and
    checks whether at least ``k`` pairs verify — a direct simulation of
    running detection on random, unwatermarked data.

    Trials are drawn in batches and counted by :func:`monte_carlo_accept`.
    NumPy's ``Generator.integers`` produces the identical variate stream
    whether drawn row by row or as a ``(batch, pairs)`` matrix, so the
    estimate is bit-identical to the seed implementation's per-trial loop
    for any given ``rng`` seed.
    """
    generator = ensure_rng(rng)
    moduli_array = np.asarray(moduli, dtype=int)
    if np.any(moduli_array < 2):
        raise ConfigurationError("all moduli must be >= 2")
    hits = 0
    remaining = trials
    while remaining > 0:
        batch = min(MC_TRIAL_BATCH, remaining)
        draws = generator.integers(0, moduli_array, size=(batch, moduli_array.size))
        hits += monte_carlo_accept(draws, threshold, k)
        remaining -= batch
    return hits / trials


__all__ = [
    "pair_false_positive_probability",
    "poisson_binomial_pmf",
    "poisson_binomial_survival",
    "survival_curve",
    "markov_bound",
    "false_positive_bound",
    "FalsePositiveProfile",
    "profile_from_moduli",
    "uniform_probability_profile",
    "empirical_false_positive_rate",
    "monte_carlo_accept",
]
