"""Unit tests for watermark detection (Algorithm II)."""

from __future__ import annotations

import pytest

from repro.core.config import DetectionConfig
from repro.core.detector import WatermarkDetector, detect_watermark
from repro.core.histogram import TokenHistogram
from repro.core.secrets import WatermarkSecret
from repro.exceptions import DetectionError


class TestDetectionOnWatermarkedData:
    def test_all_pairs_verify_at_zero_threshold(self, watermarked_bundle):
        result, _ = watermarked_bundle
        detection = detect_watermark(result.watermarked_histogram, result.secret)
        assert detection.accepted
        assert detection.accepted_pairs == detection.total_pairs == result.pair_count
        assert detection.accepted_fraction == 1.0

    def test_evidence_per_pair(self, watermarked_bundle):
        result, _ = watermarked_bundle
        detection = detect_watermark(result.watermarked_histogram, result.secret)
        assert len(detection.evidence) == result.pair_count
        for evidence in detection.evidence:
            assert evidence.present
            assert evidence.remainder == 0
            assert evidence.accepted

    def test_detection_from_raw_tokens(self, skewed_tokens):
        from repro.core.generator import generate_watermark

        result = generate_watermark(skewed_tokens, modulus_cap=31, rng=13)
        detection = detect_watermark(result.watermarked_tokens, result.secret)
        assert detection.accepted

    def test_summary(self, watermarked_bundle):
        result, _ = watermarked_bundle
        summary = detect_watermark(result.watermarked_histogram, result.secret).summary()
        assert summary["accepted"] is True
        assert summary["total_pairs"] == result.pair_count


class TestDetectionOnUnrelatedData:
    def test_original_data_mostly_rejected(self, watermarked_bundle):
        result, original = watermarked_bundle
        detection = detect_watermark(original, result.secret, pair_threshold=0)
        # The unwatermarked original should verify far fewer pairs than the
        # watermarked version (a few may align by chance).
        assert detection.accepted_pairs < result.pair_count
        assert detection.accepted_fraction < 0.5

    def test_different_token_space_rejected(self, watermarked_bundle):
        result, _ = watermarked_bundle
        unrelated = TokenHistogram.from_counts({f"other-{i}": 100 + i for i in range(50)})
        detection = detect_watermark(unrelated, result.secret)
        assert not detection.accepted
        assert detection.accepted_pairs == 0
        assert all(not evidence.present for evidence in detection.evidence)

    def test_missing_pair_tokens_fail_that_pair(self, watermarked_bundle):
        result, _ = watermarked_bundle
        pair = result.secret.pairs[0]
        counts = result.watermarked_histogram.as_dict()
        counts.pop(pair.first)
        detection = detect_watermark(TokenHistogram.from_counts(counts), result.secret)
        missing = [e for e in detection.evidence if e.pair == pair]
        assert len(missing) == 1 and not missing[0].present and not missing[0].accepted


class TestThresholds:
    def test_threshold_t_tolerates_small_perturbation(self, watermarked_bundle):
        result, _ = watermarked_bundle
        pair = result.secret.pairs[0]
        perturbed = result.watermarked_histogram.with_updates({pair.first: +1})
        strict = detect_watermark(perturbed, result.secret, pair_threshold=0)
        relaxed = detect_watermark(perturbed, result.secret, pair_threshold=1)
        assert relaxed.accepted_pairs >= strict.accepted_pairs
        assert relaxed.accepted_pairs == result.pair_count

    def test_symmetric_tolerance_catches_negative_residue(self, watermarked_bundle):
        result, _ = watermarked_bundle
        pair = result.secret.pairs[0]
        # Reducing the difference by one puts the remainder at modulus - 1.
        perturbed = result.watermarked_histogram.with_updates({pair.first: -1})
        asymmetric = WatermarkDetector(
            result.secret, DetectionConfig(pair_threshold=1)
        ).detect(perturbed)
        symmetric = WatermarkDetector(
            result.secret, DetectionConfig(pair_threshold=1, symmetric_tolerance=True)
        ).detect(perturbed)
        assert symmetric.accepted_pairs >= asymmetric.accepted_pairs

    def test_min_accepted_pairs_k(self, watermarked_bundle):
        result, original = watermarked_bundle
        lenient = detect_watermark(
            original, result.secret, pair_threshold=0, min_accepted_pairs=1
        )
        strict = detect_watermark(
            original, result.secret, pair_threshold=0, min_accepted_pairs=result.pair_count
        )
        assert not strict.accepted
        # With k=1 even chance alignments may be enough; just check the
        # required_pairs bookkeeping resolved correctly.
        assert lenient.required_pairs == 1
        assert strict.required_pairs == result.pair_count

    def test_fractional_threshold(self, watermarked_bundle):
        result, _ = watermarked_bundle
        detection = detect_watermark(
            result.watermarked_histogram,
            result.secret,
            pair_threshold_fraction=0.5,
        )
        assert detection.accepted
        for evidence in detection.evidence:
            assert evidence.threshold == evidence.modulus // 2


class TestErrors:
    def test_pairs_with_degenerate_modulus_never_verify(self, watermarked_bundle):
        # A forged secret can contain pairs whose derived modulus is 0 or 1
        # (the generator never selects those); detection must treat them as
        # unverifiable rather than crashing or trivially accepting them.
        result, _ = watermarked_bundle
        histogram = result.watermarked_histogram
        tokens = histogram.tokens
        forged_pairs = [
            WatermarkSecret.build([(tokens[i], tokens[i + 1])], secret=s, modulus_cap=2)
            for i, s in ((0, 1), (2, 5), (4, 9))
        ]
        for forged in forged_pairs:
            detection = WatermarkDetector(
                forged, DetectionConfig(pair_threshold=10)
            ).detect(histogram)
            for evidence in detection.evidence:
                if evidence.modulus < 2:
                    assert not evidence.accepted
                    assert evidence.remainder is None

    def test_empty_secret_rejected(self):
        secret = WatermarkSecret.build([("a", "b")], secret=1, modulus_cap=10)
        empty = WatermarkSecret(pairs=(), secret=1, modulus_cap=10)
        with pytest.raises(DetectionError):
            WatermarkDetector(empty)
        # Sanity: a non-empty secret constructs fine.
        WatermarkDetector(secret)
