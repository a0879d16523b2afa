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
* **Exact survival function** — the paper evaluates it through the
  Discrete Fourier Transform of the Poisson-Binomial characteristic
  function (for ``n = 50`` with ``p_m ~ Uniform[0, 1]``), showing the
  survival probability reaching 0 as ``k`` approaches ``n``. Here the
  same distribution comes from the k-out-of-n recursion (Barlow &
  Heidtmann, 1984), which sums only non-negative terms: tails far below
  machine epsilon keep their relative accuracy, where the DFT's
  absolute rounding error (~1e-16) would swamp them.
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
    """Exact PMF of a Poisson-Binomial distribution by the k-out-of-n recursion.

    Given success probabilities ``p_1..p_n``, returns an array of length
    ``n + 1`` whose ``j``-th entry is ``P(S_n = j)``. Each pair adds one
    step, ``pmf[j] = pmf[j] (1 - p) + pmf[j - 1] p``, so every entry is a
    sum of non-negative terms and keeps its relative accuracy however
    small it is. ``O(n^2)`` work: about a millisecond at ``n = 200``.
    """
    p = np.asarray(probabilities, dtype=float)
    if not np.all((p >= 0) & (p <= 1)):
        raise ConfigurationError("success probabilities must lie in [0, 1]")
    pmf = np.zeros(p.size + 1)
    pmf[0] = 1.0
    for count, probability in enumerate(p.tolist(), start=1):
        pmf[1:count + 1] = pmf[1:count + 1] * (1.0 - probability) + pmf[:count] * probability
        pmf[0] *= 1.0 - probability
    return pmf


def survival_curve(probabilities: Sequence[float]) -> np.ndarray:
    """``P(S_n >= k)`` for every ``k`` in ``0..n`` (the paper's n=50 plot).

    Each entry sums the PMF from ``k`` to ``n``, smallest terms first, so
    the curve never increases; ``P(S_n >= 0)`` is exactly 1, and
    rounding never lifts an entry past 1.
    """
    pmf = poisson_binomial_pmf(probabilities)
    curve = np.minimum(np.cumsum(pmf[::-1])[::-1], 1.0)
    curve[0] = 1.0
    return curve


def poisson_binomial_survival(probabilities: Sequence[float], k: int) -> float:
    """Exact ``P(S_n >= k)`` for a Poisson-Binomial with the given ``p_m``."""
    curve = survival_curve(probabilities)
    if k >= curve.size:
        return 0.0
    return float(curve[max(k, 0)])


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
        """Smallest ``k`` whose exact false-positive probability is <= target.

        ``n + 1`` (no threshold reaches the target) when even ``k = n``
        is too likely. The survival curve is built once.
        """
        curve = survival_curve(self.pair_probabilities)
        reached = np.flatnonzero(curve <= target)
        return int(reached[0]) if reached.size else curve.size


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
