"""Seeded inputs: the paper's synthetic power-law token workload.

Numpy only, so building inputs never imports the program. Every function
draws from a generator derived from ``(seed, purpose)``: the same seed
gives the same datasets, suspects, secrets and schedules.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

#: Distinct tokens per dataset (paper Sec. IV-A).
N_TOKENS = 1000


def rng_for(seed: int, *purpose: int) -> np.random.Generator:
    return np.random.default_rng([seed, *purpose])


def token_names(prefix: str, n_tokens: int = N_TOKENS) -> List[str]:
    return [f"{prefix}-{index:04d}" for index in range(n_tokens)]


def power_law_probabilities(alpha: float, n_tokens: int = N_TOKENS) -> np.ndarray:
    weights = np.arange(1, n_tokens + 1, dtype=float) ** (-alpha)
    return weights / weights.sum()


def token_sequence(rng: np.random.Generator, alpha: float, size: int, prefix: str) -> List[str]:
    """A shuffled raw token sequence of ``size`` occurrences."""
    names = token_names(prefix)
    indices = rng.choice(N_TOKENS, size=size, p=power_law_probabilities(alpha))
    return [names[index] for index in indices.tolist()]


def power_law_counts(
    rng: np.random.Generator, alpha: float, size: int, names: Sequence[str]
) -> Dict[str, int]:
    """A multinomially sampled token->count histogram over ``names``."""
    draws = rng.multinomial(size, power_law_probabilities(alpha, len(names)))
    return {name: int(count) for name, count in zip(names, draws.tolist()) if count > 0}


def secret_value(rng: np.random.Generator) -> int:
    """A 256-bit secret ``R``."""
    return int.from_bytes(rng.bytes(32), "big")


def zipf_choice(rng: np.random.Generator, n: int, size: int, exponent: float = 1.0) -> np.ndarray:
    """Indices in ``[0, n)`` with ``P(i) ∝ 1 / (i + 1)^exponent``."""
    return rng.choice(n, size=size, p=power_law_probabilities(exponent, n))
