"""Configuration dataclasses for watermark generation and detection.

The paper exposes a small number of user-facing knobs:

* generation: budget ``b``, modulus cap ``z``, selection strategy,
  similarity metric, security parameter for ``R``;
* detection: per-pair threshold ``t`` (absolute or as a fraction of each
  pair's modulus) and minimum accepted pair count ``k`` (absolute or as a
  fraction of the stored pairs).

Grouping them into frozen dataclasses keeps the generator/detector call
signatures small and gives one obvious place where parameter validation
lives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.core.similarity import available_metrics
from repro.exceptions import ConfigurationError
from repro.utils.validation import require, require_in_range

#: Default modulus cap used throughout the paper's real-data validation.
DEFAULT_MODULUS_CAP = 131
#: Largest modulus cap ``z``: every modulus ``s_ij < z`` and the
#: eligibility slack ``(s_ij + 1) // 2`` then fit a signed 64-bit
#: integer, the type every moduli array holds.
MAX_MODULUS_CAP = 2**63 - 1
#: Default distortion budget (percent) used throughout the evaluation.
DEFAULT_BUDGET_PERCENT = 2.0
#: Default security parameter (bits of entropy in ``R``).
DEFAULT_SECRET_BITS = 256


def _is_int(value: object) -> bool:
    """Whether ``value`` is an ``int`` (a ``bool`` is not)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value: object) -> bool:
    """Whether ``value`` is an ``int`` or ``float`` (a ``bool`` is not)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _require_fraction(name: str, value: object) -> None:
    """Require a real number (not a ``bool``) in ``[0, 1]``."""
    require(
        _is_real(value) and 0.0 <= value <= 1.0,  # type: ignore[operator]
        f"{name} must be a real number in [0.0, 1.0], got {value!r}",
    )


def _require_count(name: str, value: object) -> None:
    """Require an ``int`` (not a ``bool``) of at least 1."""
    require(
        _is_int(value) and value >= 1,  # type: ignore[operator]
        f"{name} must be an integer >= 1, got {value!r}",
    )


def _require_choice(name: str, value: object, choices: Sequence[str]) -> None:
    """Require a string naming one of ``choices`` (case-insensitive)."""
    require(
        isinstance(value, str) and value.lower() in choices,
        f"{name} must be one of {'/'.join(choices)}, got {value!r}",
    )


@dataclass(frozen=True)
class GenerationConfig:
    """Parameters of ``WM_Generate``.

    Attributes
    ----------
    budget_percent:
        The distortion budget ``b``: the watermarked histogram must stay
        within ``(100 - b)%`` similarity of the original.
    modulus_cap:
        The integer ``z`` capping every pair modulus ``s_ij``.
    strategy:
        Pair-selection strategy: ``"optimal"``, ``"greedy"`` or ``"random"``.
    metric:
        Similarity metric used for the budget (default cosine; one of
        :func:`~repro.core.similarity.available_metrics`).
    secret_bits:
        Entropy of the high-entropy secret ``R``.
    max_candidates:
        Optional cap on the tokens scanned for eligible pairs (keeps the
        quadratic candidate enumeration bounded for very wide histograms).
    excluded_tokens:
        Tokens whose frequency must not be touched (paper footnote 3): a
        list or tuple of strings, kept as a tuple.
    require_modification:
        Hardening extension beyond the paper: exclude pairs that are
        already aligned (zero remainder) in the original data, so every
        watermarked pair embeds actual evidence. Recommended whenever the
        watermark must discriminate between dataset versions (ownership
        disputes, provenance chains, per-buyer fingerprints); see
        DESIGN.md for the rationale.
    max_pairs:
        Optional cap on the number of watermarked pairs. The paper's
        objective is the maximum number of pairs within the budget; owners
        that embed many watermarks into the same dataset (provenance
        chains, per-buyer fingerprints) may prefer a small fixed size per
        watermark so the token space is not exhausted.
    """

    budget_percent: float = DEFAULT_BUDGET_PERCENT
    modulus_cap: int = DEFAULT_MODULUS_CAP
    strategy: str = "optimal"
    metric: str = "cosine"
    secret_bits: int = DEFAULT_SECRET_BITS
    max_candidates: Optional[int] = None
    excluded_tokens: Sequence[str] = field(default_factory=tuple)
    require_modification: bool = False
    max_pairs: Optional[int] = None

    def __post_init__(self) -> None:
        # Each field's type is checked: configs arrive from the wire and
        # from spec files, and a mistyped one must fail here, typed.
        require(
            _is_real(self.budget_percent),
            f"budget_percent (b) must be a real number, got {self.budget_percent!r}",
        )
        require_in_range("budget_percent (b)", self.budget_percent, 0.0, 100.0)
        require(
            _is_int(self.modulus_cap) and 2 <= self.modulus_cap <= MAX_MODULUS_CAP,
            f"modulus_cap (z) must be an integer in [2, 2**63 - 1], "
            f"got {self.modulus_cap!r}",
        )
        _require_count("secret_bits", self.secret_bits)
        if self.max_candidates is not None:
            _require_count("max_candidates", self.max_candidates)
        if self.max_pairs is not None:
            _require_count("max_pairs", self.max_pairs)
        _require_choice("strategy", self.strategy, ("optimal", "greedy", "random"))
        _require_choice("metric", self.metric, available_metrics())
        require(
            isinstance(self.excluded_tokens, (list, tuple))
            and all(isinstance(token, str) for token in self.excluded_tokens),
            "excluded_tokens must be a list or tuple of strings, "
            f"got {self.excluded_tokens!r}",
        )
        require(
            isinstance(self.require_modification, bool),
            f"require_modification must be a bool, got {self.require_modification!r}",
        )
        # A JSON list arrives as a list; the config stays hashable.
        object.__setattr__(self, "excluded_tokens", tuple(self.excluded_tokens))


@dataclass(frozen=True)
class DetectionConfig:
    """Parameters of ``WM_Detect``.

    Exactly one of ``pair_threshold`` / ``pair_threshold_fraction`` and one
    of ``min_accepted_pairs`` / ``min_accepted_fraction`` is used:

    * ``pair_threshold`` (``t``) — a pair verifies when
      ``(f_i - f_j) mod s_ij <= t``. Setting ``pair_threshold_fraction``
      instead makes ``t`` proportional to each pair's modulus
      (``t = fraction * s_ij``), the "percentage tolerance" variant the
      paper sketches in Section IV-A2.
    * ``min_accepted_pairs`` (``k``) — the dataset is declared watermarked
      when at least ``k`` pairs verify. ``min_accepted_fraction`` expresses
      ``k`` as a fraction of the stored pair count instead.

    ``symmetric_tolerance`` is an extension beyond the paper: when True a
    pair also verifies if its remainder is within ``t`` *below* the next
    multiple of ``s_ij`` (i.e. the residue is close to zero from either
    side). The paper's rule — and the default here — only tolerates
    remainders at or below ``t``.
    """

    pair_threshold: int = 0
    pair_threshold_fraction: Optional[float] = None
    min_accepted_pairs: Optional[int] = None
    min_accepted_fraction: float = 0.5
    symmetric_tolerance: bool = False

    def __post_init__(self) -> None:
        # Thresholds live in int64 arrays next to the moduli, so t shares
        # the moduli's bound.
        require(
            _is_int(self.pair_threshold) and 0 <= self.pair_threshold <= MAX_MODULUS_CAP,
            "pair_threshold (t) must be an integer in [0, 2**63 - 1], "
            f"got {self.pair_threshold!r}",
        )
        if self.pair_threshold_fraction is not None:
            _require_fraction("pair_threshold_fraction", self.pair_threshold_fraction)
        if self.min_accepted_pairs is not None:
            require(
                _is_int(self.min_accepted_pairs) and self.min_accepted_pairs >= 1,
                "min_accepted_pairs (k) must be an integer >= 1, "
                f"got {self.min_accepted_pairs!r}",
            )
        _require_fraction("min_accepted_fraction", self.min_accepted_fraction)
        require(
            isinstance(self.symmetric_tolerance, bool),
            f"symmetric_tolerance must be a bool, got {self.symmetric_tolerance!r}",
        )

    def fingerprint(self) -> str:
        """Stable key of the threshold knobs, for detector caching.

        Two configurations resolve every pair threshold and the required
        pair count identically iff their fingerprints are equal, so
        :class:`repro.core.cache.DetectorCache` can key constructed
        detectors on ``(secret fingerprint, config fingerprint)``.
        """
        return (
            f"t={self.pair_threshold};tf={self.pair_threshold_fraction};"
            f"k={self.min_accepted_pairs};kf={self.min_accepted_fraction};"
            f"sym={int(self.symmetric_tolerance)}"
        )

    def threshold_for(self, modulus: int) -> int:
        """Resolve the per-pair threshold ``t`` for a pair with ``modulus``.

        A fraction's threshold is clamped to the modulus, which float
        rounding could otherwise exceed for moduli near ``2**63``.
        """
        if self.pair_threshold_fraction is not None:
            return min(int(math.floor(self.pair_threshold_fraction * modulus)), modulus)
        return self.pair_threshold

    def thresholds_for(self, moduli: np.ndarray) -> np.ndarray:
        """:meth:`threshold_for` of every modulus in ``moduli``, as ``int64``.

        The threshold depends only on the modulus, so it is resolved
        once per distinct modulus and broadcast; without a threshold
        fraction every pair gets the same ``t``.
        """
        if self.pair_threshold_fraction is None:
            return np.full(len(moduli), self.pair_threshold, dtype=np.int64)
        distinct, inverse = np.unique(moduli, return_inverse=True)
        resolved = [self.threshold_for(modulus) for modulus in distinct.tolist()]
        return np.array(resolved, dtype=np.int64)[inverse]

    def required_pairs(self, stored_pairs: int) -> int:
        """Resolve the minimum number of accepted pairs ``k``."""
        if stored_pairs <= 0:
            raise ConfigurationError("cannot detect a watermark with zero stored pairs")
        if self.min_accepted_pairs is not None:
            return min(self.min_accepted_pairs, stored_pairs)
        return max(1, math.ceil(self.min_accepted_fraction * stored_pairs))


__all__ = [
    "DEFAULT_MODULUS_CAP",
    "MAX_MODULUS_CAP",
    "DEFAULT_BUDGET_PERCENT",
    "DEFAULT_SECRET_BITS",
    "GenerationConfig",
    "DetectionConfig",
]
