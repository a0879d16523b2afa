"""Multi-secret batched detection: parity with per-secret detectors."""

from __future__ import annotations

import pytest

from repro.core.batch import detect_many_secrets
from repro.core.config import DetectionConfig, GenerationConfig
from repro.core.detector import WatermarkDetector
from repro.core.generator import WatermarkGenerator
from repro.core.histogram import TokenHistogram
from repro.core.secrets import WatermarkSecret
from repro.datasets.synthetic import generate_power_law_tokens
from repro.exceptions import DetectionError


@pytest.fixture(scope="module")
def histogram() -> TokenHistogram:
    return TokenHistogram.from_tokens(
        generate_power_law_tokens(0.6, n_tokens=50, sample_size=12_000, rng=21)
    )


@pytest.fixture(scope="module")
def secrets(histogram):
    """A mix of genuine (verifying) and unrelated (failing) secrets."""
    generator = WatermarkGenerator(GenerationConfig(), rng=5)
    genuine = [
        generator.generate(histogram, secret_value=1000 + index).secret
        for index in range(3)
    ]
    forged = [
        WatermarkSecret.build(
            [("tok-x", "tok-y"), ("tok-z", "tok-w")], 999_000 + index, 131
        )
        for index in range(2)
    ]
    return genuine + forged


class TestDetectManySecrets:
    @pytest.mark.parametrize(
        "config",
        [
            None,
            DetectionConfig(pair_threshold=0),
            DetectionConfig(pair_threshold=2, min_accepted_fraction=0.7),
            DetectionConfig(pair_threshold_fraction=0.05),
            DetectionConfig(pair_threshold=1, symmetric_tolerance=True),
        ],
    )
    def test_matches_per_secret_detectors(self, histogram, secrets, config):
        batched = detect_many_secrets(histogram, secrets, config)
        for secret, result in zip(secrets, batched):
            direct = WatermarkDetector(secret, config).detect(
                histogram, collect_evidence=False
            )
            assert result == direct

    def test_evidence_matches_per_secret_detectors(self, histogram, secrets):
        config = DetectionConfig(pair_threshold=1)
        batched = detect_many_secrets(
            histogram, secrets, config, collect_evidence=True
        )
        for secret, result in zip(secrets, batched):
            direct = WatermarkDetector(secret, config).detect(histogram)
            assert result.evidence == direct.evidence

    def test_watermarked_histograms_verify(self, histogram, secrets):
        genuine = secrets[:3]
        # The genuine secrets were generated on `histogram` itself but the
        # watermark lives in the *modified* histograms; verify each there.
        generator = WatermarkGenerator(GenerationConfig(), rng=5)
        for index, secret in enumerate(genuine):
            result = generator.generate(histogram, secret_value=1000 + index)
            (verdict,) = detect_many_secrets(
                result.watermarked_histogram, [secret], DetectionConfig()
            )
            assert verdict.accepted

    def test_raw_token_input(self, secrets):
        tokens = generate_power_law_tokens(0.6, n_tokens=50, sample_size=6_000, rng=8)
        batched = detect_many_secrets(tokens, secrets[:2])
        direct = [WatermarkDetector(secret).detect(tokens) for secret in secrets[:2]]
        for left, right in zip(batched, direct):
            assert left.accepted == right.accepted
            assert left.accepted_pairs == right.accepted_pairs

    def test_empty_secret_list(self, histogram):
        assert detect_many_secrets(histogram, []) == []

    def test_pairless_secret_rejected(self, histogram):
        empty = WatermarkSecret(pairs=(), secret=1, modulus_cap=131)
        with pytest.raises(DetectionError):
            detect_many_secrets(histogram, [empty])


def _fresh(secrets):
    """Copies of ``secrets`` whose moduli are not derived yet."""
    return [WatermarkSecret.from_dict(secret.to_dict()) for secret in secrets]


class TestDetectManySecretsCached:
    """The memoised-moduli path: identical verdicts, zero re-derivation.

    A first pass over fresh secrets derives each one's moduli (uncached);
    a repeated pass reads the secrets' memos (cached).
    """

    @pytest.mark.parametrize(
        "config",
        [
            None,
            DetectionConfig(pair_threshold=0),
            DetectionConfig(pair_threshold=2, min_accepted_fraction=0.7),
            DetectionConfig(pair_threshold_fraction=0.05),
            DetectionConfig(pair_threshold=1, symmetric_tolerance=True),
        ],
    )
    def test_cached_path_matches_uncached(self, histogram, secrets, config):
        import parity_harness

        # Harness: the uncached then the cached stacked pass against the
        # per-secret reference loop.
        fresh = _fresh(secrets)
        for _ in range(2):
            parity_harness.assert_many_secrets_parity(histogram, fresh, config)

    def test_cached_evidence_matches_uncached(self, histogram, secrets):
        config = DetectionConfig(pair_threshold=1)
        fresh = _fresh(secrets)
        uncached = detect_many_secrets(histogram, fresh, config, collect_evidence=True)
        cached = detect_many_secrets(histogram, fresh, config, collect_evidence=True)
        for left, right in zip(cached, uncached):
            assert left.evidence == right.evidence

    def test_repeat_calls_construct_nothing(self, histogram, secrets, moduli_derivations):
        config = DetectionConfig(pair_threshold=1)
        fresh = _fresh(secrets)
        detect_many_secrets(histogram, fresh, config)
        assert moduli_derivations == [len(secret) for secret in fresh]
        detect_many_secrets(histogram, fresh, config)
        assert len(moduli_derivations) == len(fresh)  # unchanged: memo hits
