"""Unit tests for the shared utility helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.utils.rng import derive_rng, ensure_rng, random_bigint, sample_without_replacement
from repro.utils.validation import (
    require,
    require_in_range,
    require_non_empty,
    require_positive,
    require_type,
)


class TestRng:
    def test_ensure_rng_from_seed_is_deterministic(self):
        assert ensure_rng(5).integers(0, 1000) == ensure_rng(5).integers(0, 1000)

    def test_ensure_rng_passthrough(self):
        generator = np.random.default_rng(1)
        assert ensure_rng(generator) is generator

    def test_ensure_rng_none(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_ensure_rng_rejects_bad_type(self):
        with pytest.raises(TypeError):
            ensure_rng("not-a-seed")

    def test_derive_rng_label_independence(self):
        a = derive_rng(7, "module-a").integers(0, 10_000)
        b = derive_rng(7, "module-b").integers(0, 10_000)
        a_again = derive_rng(7, "module-a").integers(0, 10_000)
        assert a == a_again
        assert a != b  # different labels give independent streams

    def test_random_bigint_range_and_determinism(self):
        value = random_bigint(3, 128)
        assert 0 <= value < (1 << 128)
        assert value == random_bigint(3, 128)

    def test_random_bigint_rejects_non_positive_bits(self):
        with pytest.raises(ValueError):
            random_bigint(3, 0)

    def test_sample_without_replacement(self):
        sample = sample_without_replacement(5, 100, 10)
        assert len(set(sample.tolist())) == 10
        with pytest.raises(ValueError):
            sample_without_replacement(5, 3, 10)


class TestValidation:
    def test_require(self):
        require(True, "fine")
        with pytest.raises(ConfigurationError):
            require(False, "boom")

    def test_require_positive(self):
        require_positive("x", 1)
        require_positive("x", 0, strict=False)
        with pytest.raises(ConfigurationError):
            require_positive("x", 0)
        with pytest.raises(ConfigurationError):
            require_positive("x", -1, strict=False)

    def test_require_in_range(self):
        require_in_range("x", 5, 0, 10)
        with pytest.raises(ConfigurationError):
            require_in_range("x", 11, 0, 10)
        with pytest.raises(ConfigurationError):
            require_in_range("x", 0, 0, 10, inclusive=False)

    def test_require_non_empty(self):
        require_non_empty("items", [1])
        with pytest.raises(ConfigurationError):
            require_non_empty("items", [])

    def test_require_type(self):
        require_type("x", 3, int)
        with pytest.raises(ConfigurationError):
            require_type("x", "3", int)
