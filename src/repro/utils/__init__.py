"""Shared utilities: deterministic RNG handling and validation."""

from repro.utils.rng import derive_rng, ensure_rng
from repro.utils.validation import (
    require,
    require_in_range,
    require_non_empty,
    require_positive,
)

__all__ = [
    "derive_rng",
    "ensure_rng",
    "require",
    "require_in_range",
    "require_non_empty",
    "require_positive",
]
