"""Unit tests for generation and detection configuration validation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import (
    DEFAULT_BUDGET_PERCENT,
    DEFAULT_MODULUS_CAP,
    MAX_MODULUS_CAP,
    DetectionConfig,
    GenerationConfig,
)
from repro.exceptions import ConfigurationError


class TestGenerationConfig:
    def test_defaults_match_paper_settings(self):
        config = GenerationConfig()
        assert config.budget_percent == DEFAULT_BUDGET_PERCENT == 2.0
        assert config.modulus_cap == DEFAULT_MODULUS_CAP == 131
        assert config.strategy == "optimal"
        assert config.metric == "cosine"

    def test_rejects_budget_outside_range(self):
        with pytest.raises(ConfigurationError):
            GenerationConfig(budget_percent=-0.1)
        with pytest.raises(ConfigurationError):
            GenerationConfig(budget_percent=100.5)

    def test_rejects_small_modulus_cap(self):
        with pytest.raises(ConfigurationError):
            GenerationConfig(modulus_cap=1)

    def test_modulus_cap_must_fit_int64(self):
        assert GenerationConfig(modulus_cap=MAX_MODULUS_CAP).modulus_cap == 2**63 - 1
        for cap in (2**63, 2**70):
            with pytest.raises(ConfigurationError):
                GenerationConfig(modulus_cap=cap)

    def test_rejects_unknown_strategy(self):
        with pytest.raises(ConfigurationError):
            GenerationConfig(strategy="simulated-annealing")

    def test_rejects_non_positive_secret_bits(self):
        with pytest.raises(ConfigurationError):
            GenerationConfig(secret_bits=0)

    def test_rejects_non_positive_max_candidates(self):
        with pytest.raises(ConfigurationError):
            GenerationConfig(max_candidates=0)

    def test_accepts_excluded_tokens(self):
        config = GenerationConfig(excluded_tokens=("top-url",))
        assert "top-url" in config.excluded_tokens

    def test_excluded_tokens_become_a_tuple(self):
        config = GenerationConfig(excluded_tokens=["a", "b"])
        assert config.excluded_tokens == ("a", "b")
        assert hash(config) == hash(GenerationConfig(excluded_tokens=("a", "b")))

    def test_names_are_case_insensitive(self):
        config = GenerationConfig(strategy="Greedy", metric="L1")
        assert (config.strategy, config.metric) == ("Greedy", "L1")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"strategy": 5},
            {"strategy": None},
            {"metric": 5},
            {"metric": "hamming"},
            {"require_modification": "yes"},
            {"require_modification": 1},
            {"budget_percent": True},
            {"budget_percent": "2"},
            {"budget_percent": None},
            {"modulus_cap": 131.0},
            {"secret_bits": 1.5},
            {"secret_bits": True},
            {"max_candidates": 2.5},
            {"max_candidates": True},
            {"max_pairs": True},
            {"max_pairs": "3"},
            {"excluded_tokens": "t001"},
            {"excluded_tokens": [1, None]},
            {"excluded_tokens": {"a"}},
            {"excluded_tokens": None},
        ],
    )
    def test_rejects_mistyped_fields(self, kwargs):
        with pytest.raises(ConfigurationError):
            GenerationConfig(**kwargs)


class TestDetectionConfig:
    def test_defaults(self):
        config = DetectionConfig()
        assert config.pair_threshold == 0
        assert config.min_accepted_fraction == 0.5
        assert config.symmetric_tolerance is False

    def test_rejects_negative_threshold(self):
        with pytest.raises(ConfigurationError):
            DetectionConfig(pair_threshold=-1)

    def test_rejects_bad_fractions(self):
        with pytest.raises(ConfigurationError):
            DetectionConfig(pair_threshold_fraction=1.5)
        with pytest.raises(ConfigurationError):
            DetectionConfig(min_accepted_fraction=-0.1)

    def test_rejects_zero_min_pairs(self):
        with pytest.raises(ConfigurationError):
            DetectionConfig(min_accepted_pairs=0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"pair_threshold": 2**63},
            {"pair_threshold": 2**70},
            {"pair_threshold": 1.5},
            {"pair_threshold": True},
            {"min_accepted_pairs": 2.0},
            {"min_accepted_pairs": True},
            {"pair_threshold_fraction": "0.5"},
            {"pair_threshold_fraction": True},
            {"min_accepted_fraction": float("nan")},
            {"min_accepted_fraction": None},
            {"symmetric_tolerance": 1},
        ],
    )
    def test_rejects_mistyped_fields(self, kwargs):
        with pytest.raises(ConfigurationError):
            DetectionConfig(**kwargs)

    def test_accepts_the_int64_threshold_bound(self):
        assert DetectionConfig(pair_threshold=2**63 - 1).threshold_for(7) == 2**63 - 1

    def test_fraction_threshold_is_clamped_to_its_modulus(self):
        config = DetectionConfig(pair_threshold_fraction=1.0)
        modulus = 2**63 - 1
        assert config.threshold_for(modulus) == modulus
        moduli = np.array([modulus, 131], dtype=np.int64)
        assert config.thresholds_for(moduli).tolist() == [modulus, 131]

    def test_threshold_for_absolute(self):
        config = DetectionConfig(pair_threshold=4)
        assert config.threshold_for(100) == 4
        assert config.threshold_for(7) == 4

    def test_threshold_for_fractional(self):
        config = DetectionConfig(pair_threshold_fraction=0.5)
        assert config.threshold_for(100) == 50
        assert config.threshold_for(9) == 4

    @pytest.mark.parametrize(
        "config",
        [
            DetectionConfig(),
            DetectionConfig(pair_threshold=3),
            DetectionConfig(pair_threshold_fraction=0.3),
            DetectionConfig(pair_threshold_fraction=1.0),
        ],
    )
    def test_thresholds_for_matches_threshold_for(self, config):
        moduli = np.array([0, 1, 2, 9, 100, 9, 2**62 + 3, 131], dtype=np.int64)
        thresholds = config.thresholds_for(moduli)
        assert thresholds.dtype == np.int64
        assert thresholds.tolist() == [config.threshold_for(m) for m in moduli.tolist()]
        assert config.thresholds_for(moduli[:0]).tolist() == []

    def test_required_pairs_fraction(self):
        config = DetectionConfig(min_accepted_fraction=0.5)
        assert config.required_pairs(10) == 5
        assert config.required_pairs(1) == 1

    def test_required_pairs_absolute_capped_at_stored(self):
        config = DetectionConfig(min_accepted_pairs=20)
        assert config.required_pairs(10) == 10
        assert config.required_pairs(50) == 20

    def test_required_pairs_rejects_zero_stored(self):
        with pytest.raises(ConfigurationError):
            DetectionConfig().required_pairs(0)
