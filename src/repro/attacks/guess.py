"""Guess (brute-force) attack — Section V-A.

The adversary holds only the watermarked dataset and tries to *guess* a
secret list (a set of at least ``k`` token pairs plus some ``R*`` and
``z*``) that the detection algorithm would accept, so it can impersonate
the owner. The paper argues the success probability is negligible in the
security parameter: the attacker must hit, for enough pairs simultaneously,
moduli under which the observed differences happen to be congruent to
(near) zero — and with a collision-resistant hash the only way to control
the moduli is to know ``R``.

Because an exact brute force over a 256-bit secret is obviously
infeasible, this module provides two things:

* :func:`guess_success_probability` — the analytical probability that a
  *single random guess* of ``l`` pairs passes detection with thresholds
  ``(t, k)``, assuming remainders of unwatermarked pairs are uniform on
  ``[0, s)``; this is the quantity the paper bounds.
* :class:`GuessAttack` — a Monte-Carlo attacker that samples random
  candidate secrets and pair subsets and counts how often detection
  accepts, empirically confirming the bound on laptop-scale parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analysis.false_positive import poisson_binomial_survival
from repro.core.batch import detect_many_secrets
from repro.core.config import DetectionConfig
from repro.core.hashing import generate_secret
from repro.core.histogram import TokenHistogram
from repro.core.secrets import WatermarkSecret
from repro.core.tokens import TokenPair
from repro.exceptions import AttackError
from repro.utils.rng import RngLike, ensure_rng


def single_pair_acceptance_probability(modulus: int, threshold: int) -> float:
    """Probability that a random, unwatermarked pair verifies at threshold ``t``.

    With the remainder uniform on ``{0, ..., modulus - 1}`` the pair rule
    ``remainder <= t`` holds with probability ``(t + 1) / modulus``
    (capped at 1).
    """
    if modulus < 2:
        raise AttackError("modulus must be at least 2")
    return min(1.0, (threshold + 1) / modulus)


def guess_success_probability(
    n_pairs: int,
    required_pairs: int,
    *,
    modulus: int,
    threshold: int = 0,
) -> float:
    """Probability that one random guess of ``n_pairs`` passes detection.

    Pairs are treated as independent Bernoulli trials with the single-pair
    acceptance probability; the guess succeeds when at least
    ``required_pairs`` of them verify — a binomial survival probability.
    """
    if required_pairs > n_pairs:
        return 0.0
    p = single_pair_acceptance_probability(modulus, threshold)
    return poisson_binomial_survival([p] * n_pairs, required_pairs)


def expected_guesses_to_succeed(
    n_pairs: int, required_pairs: int, *, modulus: int, threshold: int = 0
) -> float:
    """Expected number of independent guesses before one succeeds."""
    probability = guess_success_probability(
        n_pairs, required_pairs, modulus=modulus, threshold=threshold
    )
    if probability <= 0.0:
        return math.inf
    return 1.0 / probability


@dataclass(frozen=True)
class GuessAttackReport:
    """Outcome of a Monte-Carlo guess attack."""

    attempts: int
    successes: int
    empirical_success_rate: float
    analytical_success_probability: float
    parameters: Dict[str, object]


class GuessAttack:
    """Monte-Carlo brute-force attacker against a watermarked histogram.

    Every attempt samples a fresh candidate secret ``R*`` and a random set
    of ``guessed_pairs`` distinct token pairs from the watermarked
    histogram, then runs the real detection algorithm with the owner's
    thresholds. The attack has no access to the genuine secret.
    """

    name = "guess"

    def __init__(
        self,
        guessed_pairs: int = 20,
        *,
        modulus_cap: int = 131,
        secret_bits: int = 64,
        rng: RngLike = None,
    ) -> None:
        if guessed_pairs < 1:
            raise AttackError("guessed_pairs must be at least 1")
        self.guessed_pairs = guessed_pairs
        self.modulus_cap = modulus_cap
        self.secret_bits = secret_bits
        self._rng_source = rng

    def forge_candidate(self, histogram: TokenHistogram) -> WatermarkSecret:
        """Sample one forged candidate secret (fresh ``R*`` and pair set)."""
        rng = ensure_rng(self._rng_source)
        tokens = histogram.tokens
        if len(tokens) < 2 * self.guessed_pairs:
            raise AttackError(
                "histogram is too small for the requested number of guessed pairs"
            )
        chosen = rng.choice(len(tokens), size=2 * self.guessed_pairs, replace=False)
        pairs: List[TokenPair] = []
        for index in range(self.guessed_pairs):
            token_a = tokens[int(chosen[2 * index])]
            token_b = tokens[int(chosen[2 * index + 1])]
            pairs.append(
                TokenPair.ordered(
                    token_a, token_b, histogram.frequency(token_a), histogram.frequency(token_b)
                )
            )
        return WatermarkSecret.build(
            pairs,
            generate_secret(self.secret_bits, rng=rng),
            self.modulus_cap,
            forged=True,
        )

    def attempt(
        self, histogram: TokenHistogram, detection: DetectionConfig
    ) -> bool:
        """Run a single guess; True when the forged secret is accepted."""
        forged = self.forge_candidate(histogram)
        return detect_many_secrets(histogram, [forged], detection)[0].accepted

    def run(
        self,
        histogram: TokenHistogram,
        *,
        attempts: int = 200,
        detection: Optional[DetectionConfig] = None,
    ) -> GuessAttackReport:
        """Run ``attempts`` independent guesses and summarise the outcome.

        Candidates are sampled exactly as :meth:`attempt` would (same RNG
        draws in the same order) but evaluated through **one** batched
        :func:`~repro.core.batch.detect_many_secrets` pass — no
        per-attempt detector construction, one frequency lookup for the
        union of guessed pair members, one vectorized modulo pass.
        """
        detection_config = detection or DetectionConfig(pair_threshold=0)
        candidates = [self.forge_candidate(histogram) for _ in range(attempts)]
        verdicts = detect_many_secrets(histogram, candidates, detection_config)
        successes = sum(1 for verdict in verdicts if verdict.accepted)
        required = detection_config.required_pairs(self.guessed_pairs)
        analytical = guess_success_probability(
            self.guessed_pairs,
            required,
            modulus=self.modulus_cap,
            threshold=detection_config.pair_threshold,
        )
        return GuessAttackReport(
            attempts=attempts,
            successes=successes,
            empirical_success_rate=successes / attempts if attempts else 0.0,
            analytical_success_probability=analytical,
            parameters={
                "guessed_pairs": self.guessed_pairs,
                "modulus_cap": self.modulus_cap,
                "secret_bits": self.secret_bits,
                "threshold": detection_config.pair_threshold,
                "required_pairs": required,
            },
        )


__all__ = [
    "single_pair_acceptance_probability",
    "guess_success_probability",
    "expected_guesses_to_succeed",
    "GuessAttackReport",
    "GuessAttack",
]
