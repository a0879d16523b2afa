"""Unit and invariant tests for watermark generation (Algorithm I)."""

from __future__ import annotations

import pytest

from repro.core.config import GenerationConfig
from repro.core.generator import WatermarkGenerator, generate_watermark
from repro.core.hashing import pair_modulus
from repro.core.histogram import TokenHistogram
from repro.core.similarity import ranking_preserved, similarity_percent
from repro.datasets.synthetic import uniform_histogram
from repro.exceptions import GenerationError
from repro.obs.trace import configure_telemetry, tracer


class TestGenerationInvariants:
    def test_selected_pairs_are_aligned(self, watermarked_bundle):
        result, _original = watermarked_bundle
        watermarked = result.watermarked_histogram
        for pair in result.secret.pairs:
            modulus = pair_modulus(
                pair.first, pair.second, result.secret.secret, result.secret.modulus_cap
            )
            difference = watermarked.frequency(pair.first) - watermarked.frequency(pair.second)
            assert difference % modulus == 0

    def test_ranking_preserved(self, watermarked_bundle):
        result, original = watermarked_bundle
        assert ranking_preserved(original.as_dict(), result.watermarked_histogram.as_dict())

    def test_similarity_within_budget(self, watermarked_bundle):
        result, original = watermarked_bundle
        assert result.similarity_percent >= 100.0 - 2.0
        assert result.similarity_percent == pytest.approx(
            similarity_percent(original.as_dict(), result.watermarked_histogram.as_dict())
        )

    def test_secret_contains_selected_pairs(self, watermarked_bundle):
        result, _ = watermarked_bundle
        assert len(result.secret.pairs) == result.pair_count
        assert result.secret.modulus_cap == 131
        assert result.secret.metadata["strategy"] == "optimal"

    def test_no_token_in_two_pairs(self, watermarked_bundle):
        result, _ = watermarked_bundle
        seen = set()
        for pair in result.secret.pairs:
            assert pair.first not in seen and pair.second not in seen
            seen.update(pair.as_tuple())

    def test_total_count_change_matches_adjustments(self, watermarked_bundle):
        result, original = watermarked_bundle
        delta = result.watermarked_histogram.total_count() - original.total_count()
        planned = sum(a.delta_first + a.delta_second for a in result.adjustments)
        assert delta == planned

    def test_summary_fields(self, watermarked_bundle):
        result, _ = watermarked_bundle
        summary = result.summary()
        assert summary["selected_pairs"] == result.pair_count
        assert summary["eligible_pairs"] == len(result.eligible_pairs)
        assert summary["distortion_percent"] == pytest.approx(result.distortion_percent)

    def test_timings_cover_pipeline_stages(self, skewed_tokens):
        configure_telemetry("spans")
        try:
            generate_watermark(skewed_tokens, budget_percent=2.0, modulus_cap=31, rng=3)
            spans = tracer().drain()
        finally:
            configure_telemetry(None)
            tracer().reset()
        (generate,) = [span for span in spans if span["name"] == "core.generate"]
        # Spans are buffered as they finish, so sequential stages keep
        # their order.
        stages = [span for span in spans if span["parent"] == generate["span"]]
        assert [span["name"] for span in stages] == [
            "core.histogram",
            "core.eligibility",
            "core.mwm",
            "core.knapsack",
            "core.modification",
            "core.transform",
        ]
        assert sum(span["duration"] for span in stages) <= generate["duration"]


class TestRawTokenGeneration:
    def test_watermarked_tokens_match_histogram(self, skewed_tokens):
        result = generate_watermark(
            skewed_tokens, budget_percent=2.0, modulus_cap=31, rng=3
        )
        assert result.watermarked_tokens is not None
        rebuilt = TokenHistogram.from_tokens(result.watermarked_tokens)
        assert rebuilt.as_dict() == result.watermarked_histogram.as_dict()

    def test_histogram_only_mode_has_no_tokens(self, skewed_histogram):
        result = generate_watermark(skewed_histogram, rng=3)
        assert result.watermarked_tokens is None


class TestDeterminismAndConfig:
    def test_same_seed_same_watermark(self, skewed_histogram):
        first = generate_watermark(skewed_histogram, rng=42)
        second = generate_watermark(skewed_histogram, rng=42)
        assert first.secret.pairs == second.secret.pairs
        assert first.secret.secret == second.secret.secret
        assert first.watermarked_histogram.as_dict() == second.watermarked_histogram.as_dict()

    def test_different_seeds_differ(self, skewed_histogram):
        first = generate_watermark(skewed_histogram, rng=1)
        second = generate_watermark(skewed_histogram, rng=2)
        assert first.secret.secret != second.secret.secret

    def test_explicit_secret_value_is_used(self, skewed_histogram):
        result = generate_watermark(skewed_histogram, rng=1, secret_value=777)
        assert result.secret.secret == 777

    def test_excluded_tokens_untouched(self, skewed_histogram):
        top = skewed_histogram.tokens[0]
        result = generate_watermark(
            skewed_histogram, rng=5, excluded_tokens=[top]
        )
        assert result.watermarked_histogram.frequency(top) == skewed_histogram.frequency(top)
        assert all(not pair.contains(top) for pair in result.secret.pairs)

    def test_strategy_threaded_through(self, skewed_histogram):
        result = generate_watermark(skewed_histogram, strategy="greedy", rng=5)
        assert result.selection.strategy == "greedy"


class TestUnsupportedInputs:
    def test_uniform_data_selects_no_pairs(self):
        histogram = uniform_histogram(n_tokens=40, count_per_token=500)
        result = generate_watermark(histogram, rng=1)
        assert result.pair_count == 0
        assert result.watermarked_histogram.as_dict() == histogram.as_dict()

    def test_single_token_dataset_rejected(self):
        with pytest.raises(GenerationError):
            generate_watermark(["only-token"] * 10, rng=1)

    def test_generator_reusable_across_datasets(self, skewed_histogram, running_example_histogram):
        generator = WatermarkGenerator(GenerationConfig(modulus_cap=31), rng=9)
        first = generator.generate(running_example_histogram)
        second = generator.generate(skewed_histogram)
        assert first.pair_count >= 0 and second.pair_count > 0
