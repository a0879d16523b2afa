"""Batch embedding engine: parity, sharding, caches, lean pickling.

The contract under test is the golden rule: everything
``embed_many`` / ``generate_many`` / ``embed_files`` amortise —
pair-modulus hashing, eligibility precomputation, vectorized scan plans,
process sharding — is *value-transparent*. Batched outputs must be
element-wise identical to the sequential ``WatermarkGenerator.generate``
loop, including every RNG-derived tie-break.
"""

from __future__ import annotations

import pickle
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.batch import embed_files, embed_many
from repro.core.config import GenerationConfig
from repro.core.detector import WatermarkDetector
from repro.core.eligibility import (
    EligibilityContext,
    generate_eligible_pairs,
)
from repro.core.embedding import BatchEmbeddingReport
from repro.core.generator import WatermarkGenerator
from repro.core.hashing import pair_modulus, upper_triangle_rows
from repro.core.histogram import TokenHistogram
from repro.datasets.loaders import load_token_file, save_token_file
from repro.datasets.synthetic import generate_power_law_tokens
from repro.exceptions import ConfigurationError, GenerationError
from repro.exec.policy import ExecutionPolicy


def _histogram(seed: int, tokens: int = 40, size: int = 8_000) -> TokenHistogram:
    return TokenHistogram.from_tokens(
        generate_power_law_tokens(0.6, n_tokens=tokens, sample_size=size, rng=seed)
    )


# One shared WatermarkResult equality helper for every parity suite.
from parity_harness import (
    assert_embedding_results_identical as assert_results_identical,
)


class TestGenerateManyParity:
    def test_shared_secret_batch_is_bit_identical(self):
        datasets = [_histogram(seed) for seed in range(8)]
        config = GenerationConfig()
        sequential = [
            WatermarkGenerator(config, rng=7).generate(data, secret_value=0xBEEF)
            for data in datasets
        ]
        batched = WatermarkGenerator(config, rng=7).generate_many(
            datasets, secret_values=[0xBEEF] * len(datasets)
        )
        assert len(batched) == len(sequential)
        for left, right in zip(sequential, batched):
            assert_results_identical(left, right)

    def test_sampled_secrets_with_int_seed_match_sequential(self):
        datasets = [_histogram(seed) for seed in range(4)]
        config = GenerationConfig(strategy="random")
        generator = WatermarkGenerator(config, rng=123)
        sequential = [generator.generate(data) for data in datasets]
        batched = WatermarkGenerator(config, rng=123).generate_many(datasets)
        for left, right in zip(sequential, batched):
            assert_results_identical(left, right)

    def test_candidate_secrets_over_one_histogram(self):
        histogram = _histogram(3)
        secrets = [1000 + index for index in range(6)]
        config = GenerationConfig()
        sequential = [
            WatermarkGenerator(config, rng=1).generate(histogram, secret_value=value)
            for value in secrets
        ]
        batched = WatermarkGenerator(config, rng=1).generate_many(
            [histogram] * len(secrets), secret_values=secrets
        )
        for left, right in zip(sequential, batched):
            assert_results_identical(left, right)

    def test_raw_token_sequences_round_trip(self):
        tokens = generate_power_law_tokens(0.6, n_tokens=30, sample_size=4_000, rng=9)
        config = GenerationConfig()
        sequential = WatermarkGenerator(config, rng=11).generate(
            tokens, secret_value=77
        )
        (batched,) = WatermarkGenerator(config, rng=11).generate_many(
            [tokens], secret_values=[77]
        )
        assert_results_identical(sequential, batched)
        assert batched.watermarked_tokens is not None

    def test_secret_values_length_mismatch_rejected(self):
        with pytest.raises(GenerationError):
            WatermarkGenerator().generate_many([_histogram(1)], secret_values=[1, 2])


class TestEmbedManyFunction:
    def test_report_accessors_and_summary(self):
        datasets = [_histogram(seed) for seed in range(3)]
        report = embed_many(datasets, rng=5, secret_value=42)
        assert isinstance(report, BatchEmbeddingReport)
        assert len(report) == 3
        assert list(iter(report)) == list(report.results)
        assert report[1] is report.results[1]
        assert len(report.secrets) == 3
        assert len(report.watermarked_histograms) == 3
        summary = report.summary()
        assert summary["datasets"] == 3
        assert summary["selected_pairs_total"] == sum(
            result.pair_count for result in report
        )

    def test_every_embedding_verifies(self):
        datasets = [_histogram(seed) for seed in range(3)]
        report = embed_many(datasets, rng=5, secret_value=42)
        for result in report:
            detection = WatermarkDetector(result.secret).detect(
                result.watermarked_histogram
            )
            assert detection.accepted

    def test_empty_batch(self):
        assert len(embed_many([], rng=1)) == 0

    def test_secret_value_and_values_mutually_exclusive(self):
        with pytest.raises(GenerationError):
            embed_many([_histogram(1)], secret_value=1, secret_values=[1])


class TestShardedEmbedding:
    def test_sharded_matches_sequential(self):
        datasets = [_histogram(seed) for seed in range(6)]
        config = GenerationConfig()
        baseline = embed_many(datasets, config, rng=3, secret_value=0xACE)
        with warnings.catch_warnings():
            # Restricted sandboxes fall back in-process with a warning;
            # parity must hold either way.
            warnings.simplefilter("ignore", RuntimeWarning)
            sharded = embed_many(
                datasets,
                config,
                rng=3,
                secret_value=0xACE,
                policy=ExecutionPolicy(workers=2, chunk_size=2),
            )
        assert len(sharded) == len(baseline)
        for left, right in zip(baseline, sharded):
            assert_results_identical(left, right)

    def test_rejects_live_generator_source(self, tmp_path):
        with pytest.raises(GenerationError):
            embed_many(
                [_histogram(1)],
                rng=np.random.default_rng(1),
                policy=ExecutionPolicy(workers=2),
            )
        with pytest.raises(GenerationError):
            embed_files(
                [], tmp_path / "out", tmp_path / "secrets", seed=np.random.default_rng(1)
            )

    def test_rejects_invalid_workers_and_chunks(self):
        with pytest.raises(ConfigurationError):
            ExecutionPolicy(workers=0)
        with pytest.raises(ConfigurationError):
            ExecutionPolicy(chunk_size=0)
        with pytest.raises(GenerationError, match="secret_values"):
            embed_many(
                [_histogram(1), _histogram(2)],
                secret_values=[1],
                policy=ExecutionPolicy(workers=2),
            )

    def test_embed_files_round_trip(self, tmp_path):
        inputs = []
        for index in range(3):
            path = tmp_path / f"data{index}.txt"
            save_token_file(
                generate_power_law_tokens(
                    0.6, n_tokens=25, sample_size=2_000, rng=index
                ),
                path,
            )
            inputs.append(path)
        out_dir = tmp_path / "out"
        secret_dir = tmp_path / "secrets"
        summaries = embed_files(
            inputs,
            out_dir,
            secret_dir,
            GenerationConfig(),
            seed=4,
            policy=ExecutionPolicy(workers=1),
        )
        assert [summary["input"] for summary in summaries] == [
            str(path) for path in inputs
        ]
        for path, summary in zip(inputs, summaries):
            watermarked = load_token_file(out_dir / path.name)
            from repro.core.secrets import WatermarkSecret

            secret = WatermarkSecret.load(secret_dir / (path.name + ".json"))
            detection = WatermarkDetector(secret).detect(watermarked)
            assert detection.accepted
            assert summary["selected_pairs"] == detection.total_pairs


# Hypothesis sweep: arbitrary dataset lists, element-wise identical to the
# sequential loop (the satellite-task property test).
_token_names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789.-", min_size=1, max_size=8
)
_counts = st.dictionaries(
    keys=_token_names,
    values=st.integers(min_value=1, max_value=50_000),
    min_size=2,
    max_size=16,
)
_batches = st.lists(_counts, min_size=1, max_size=5)
_settings = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestEmbedManyProperty:
    @_settings
    @given(
        batch=_batches,
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        strategy=st.sampled_from(["optimal", "greedy", "random"]),
        shared_secret=st.booleans(),
    )
    def test_embed_many_equals_sequential_generate(
        self, batch, seed, strategy, shared_secret
    ):
        datasets = [TokenHistogram.from_counts(counts) for counts in batch]
        config = GenerationConfig(strategy=strategy, modulus_cap=13)
        secret_values = (
            [0xC0FFEE] * len(datasets)
            if shared_secret
            else [100 + index for index in range(len(datasets))]
        )
        sequential = [
            WatermarkGenerator(config, rng=seed).generate(data, secret_value=value)
            for data, value in zip(datasets, secret_values)
        ]
        batched = WatermarkGenerator(config, rng=seed).generate_many(
            datasets, secret_values=secret_values
        )
        for left, right in zip(sequential, batched):
            assert_results_identical(left, right)


class TestUpperTriangleRows:
    def test_upper_triangle_matches_direct_derivation(self):
        tokens = ["a", "b", "c", "d\u00e9", ""]
        first, second = np.triu_indices(len(tokens), k=1)
        expected = [
            pair_modulus(tokens[i], tokens[j], 12345, 131)
            for i, j in zip(first.tolist(), second.tolist())
        ]
        rows = list(upper_triangle_rows(tokens, 12345, 131))
        assert [len(row) for row in rows] == [4, 3, 2, 1, 0]
        assert [value for row in rows for value in row] == expected
        assert list(upper_triangle_rows(["solo"], 12345, 131)) == [[]]


class TestEligibilityReuse:
    def test_context_reuse_is_value_transparent(self):
        histogram = _histogram(2)
        context = EligibilityContext.build(histogram)
        direct = generate_eligible_pairs(histogram, 99, 131)
        via_context = generate_eligible_pairs(histogram, 99, 131, context=context)
        assert direct == via_context

    def test_vectorized_plan_matches_loop(self):
        import parity_harness

        histogram = _histogram(4, tokens=60, size=12_000)
        # Harness: streaming-loop reference vs the vectorized plan scan.
        loop = parity_harness.assert_eligibility_parity(
            histogram, secret_value=0xFEED, modulus_cap=131
        )
        assert loop  # non-vacuous case
        # Second scan through a warm plan store: same values again.
        store = {}
        first = generate_eligible_pairs(histogram, 0xFEED, 131, plan_store=store)
        assert first == loop
        assert store  # the plan was built and cached
        assert generate_eligible_pairs(histogram, 0xFEED, 131, plan_store=store) == loop

    def test_pair_budget_overflow_falls_back_to_loop(self, monkeypatch):
        """Past ``VECTOR_SCAN_MAX_PAIRS`` the scan must fall back to the
        streaming loop — and produce the exact same pair list.

        The production budget is 2M pairs; forcing it to 0 makes every
        vocabulary overflow, so this exercises the same branch a >2M-pair
        candidate set takes without building one.
        """
        from repro.core import eligibility as eligibility_module

        histogram = _histogram(6, tokens=60, size=12_000)
        store = {}
        vectorized = generate_eligible_pairs(histogram, 0xFEED, 131, plan_store=store)
        assert store  # the vectorized plan path ran
        monkeypatch.setattr(eligibility_module, "VECTOR_SCAN_MAX_PAIRS", 0)
        overflow_store = {}
        fallback = generate_eligible_pairs(
            histogram, 0xFEED, 131, plan_store=overflow_store
        )
        assert not overflow_store  # budget overflow forced the loop path
        assert fallback == vectorized

    def test_require_modification_respected_by_plan(self):
        histogram = _histogram(5)
        store = {}
        vectorized = generate_eligible_pairs(
            histogram, 7, 31, require_modification=True, plan_store=store
        )
        assert all(pair.remainder != 0 for pair in vectorized)
        assert vectorized == generate_eligible_pairs(
            histogram, 7, 31, require_modification=True
        )


class TestLeanPickle:
    def test_result_pickle_round_trips_and_drops_caches(self):
        result = WatermarkGenerator(GenerationConfig(), rng=2).generate(
            _histogram(6), secret_value=31337
        )
        # Warm every memoised derivation the result transitively holds.
        _ = result.secret.fingerprint()
        _ = result.original_histogram.arrays()
        _ = result.watermarked_histogram.as_dict()
        warm_payload = pickle.dumps(result)
        restored = pickle.loads(warm_payload)
        assert_results_identical(result, restored)
        # The memoised fingerprint must not travel: the secret's pickled
        # state carries exactly the dataclass fields.
        assert b"_fingerprint" not in warm_payload
        # Warm caches add nothing to the payload versus a cold result.
        cold = WatermarkGenerator(GenerationConfig(), rng=2).generate(
            _histogram(6), secret_value=31337
        )
        assert len(warm_payload) == len(pickle.dumps(cold))

    def test_restored_secret_recomputes_fingerprint(self):
        result = WatermarkGenerator(GenerationConfig(), rng=2).generate(
            _histogram(6), secret_value=31337
        )
        fingerprint = result.secret.fingerprint()
        restored = pickle.loads(pickle.dumps(result))
        assert restored.secret.fingerprint() == fingerprint


class TestScratchBounds:
    def _run_churn_batch(self, monkeypatch):
        """Embed a maximal-churn batch; return what the checks inspect.

        The production bounds (4-secret LRU, 8-context cap, 4M-pair plan
        budget) are scaled down so a small batch drives every eviction
        path: a fresh secret and a fresh vocabulary per dataset retires
        each derivation set immediately. Asserts the batch is
        bit-identical to the sequential loop and returns
        ``(trim observations, datasets)``.
        """
        from repro.core import eligibility as eligibility_module
        from repro.core.generator import _BatchScratch

        monkeypatch.setattr(_BatchScratch, "MAX_SECRETS", 2)
        monkeypatch.setattr(_BatchScratch, "MAX_CONTEXTS", 3)
        monkeypatch.setattr(eligibility_module, "PLAN_STORE_PAIR_BUDGET", 2_000)

        observed = []
        original_trim = _BatchScratch.trim

        def spying_trim(self):
            original_trim(self)
            observed.append((len(self.plans), len(self.contexts)))

        monkeypatch.setattr(_BatchScratch, "trim", spying_trim)

        datasets = [
            _histogram(seed, tokens=30, size=5_000) for seed in range(10)
        ]
        secret_values = [0x1000 + seed for seed in range(10)]
        report = embed_many(
            datasets,
            GenerationConfig(),
            rng=3,
            secret_values=secret_values,
            policy=ExecutionPolicy(workers=1),
        )

        sequential = [
            WatermarkGenerator(GenerationConfig(), rng=3).generate(
                data, secret_value=value
            )
            for data, value in zip(datasets, secret_values)
        ]
        for left, right in zip(report, sequential):
            assert_results_identical(left, right)
        return observed, datasets

    def test_sharded_churn_respects_caps_and_stays_identical(self, monkeypatch):
        """Eviction under maximal churn: every scratch bound holds, results
        stay bit-identical to the sequential loop."""
        observed, datasets = self._run_churn_batch(monkeypatch)
        assert len(observed) == len(datasets)  # trim ran after every dataset
        assert max(plans for plans, _ in observed) <= 2
        assert max(contexts for _, contexts in observed) <= 3

    def test_fresh_secret_batches_do_not_accumulate_derivations(self):
        from repro.core.generator import _BatchScratch

        datasets = [_histogram(seed) for seed in range(10)]
        generator = WatermarkGenerator(GenerationConfig(), rng=2)
        scratch = _BatchScratch()
        for index, data in enumerate(datasets):
            generator._generate_one(data, 5000 + index, scratch)
            scratch.trim()
        # One fresh secret per dataset: retired derivation sets must be
        # dropped, not retained for the whole batch.
        assert len(scratch.plans) <= _BatchScratch.MAX_SECRETS

    def test_shared_secret_survives_trimming(self):
        datasets = [_histogram(seed) for seed in range(6)]
        generator = WatermarkGenerator(GenerationConfig(), rng=2)
        sequential = [
            WatermarkGenerator(GenerationConfig(), rng=2).generate(
                data, secret_value=77
            )
            for data in datasets
        ]
        batched = generator.generate_many(datasets, secret_values=[77] * 6)
        for left, right in zip(sequential, batched):
            assert_results_identical(left, right)

    def test_shared_secret_cache_survives_interleaved_sampled_secrets(self):
        from repro.core.generator import _BatchScratch

        shared = 0xABCD
        datasets = [_histogram(seed) for seed in range(12)]
        # Shared secret interleaved with fresh per-dataset secrets: the
        # shared entry must stay resident (true LRU), so its plan store
        # keeps serving hits instead of being rebuilt.
        values = [
            shared if index % 2 == 0 else 90_000 + index
            for index in range(len(datasets))
        ]
        generator = WatermarkGenerator(GenerationConfig(), rng=2)
        scratch = _BatchScratch()
        shared_caches = set()
        for data, value in zip(datasets, values):
            generator._generate_one(data, value, scratch)
            scratch.trim()
            shared_caches.add(id(scratch.plans[(shared, 131)]))
        assert len(shared_caches) == 1, "shared-secret plans were evicted mid-batch"
        assert len(scratch.contexts) <= _BatchScratch.MAX_CONTEXTS

    def test_plan_store_bounded_by_pair_budget(self, monkeypatch):
        import repro.core.eligibility as eligibility

        # Tiny budget so a handful of small vocabularies overflows it.
        monkeypatch.setattr(eligibility, "PLAN_STORE_PAIR_BUDGET", 2_000)
        store = {}
        for seed in range(8):
            histogram = _histogram(seed, tokens=30, size=5_000)
            direct = generate_eligible_pairs(histogram, 0xB0B, 131)
            via_store = generate_eligible_pairs(
                histogram, 0xB0B, 131, plan_store=store
            )
            assert via_store == direct  # eviction never changes values
        from repro.core.eligibility import PairScanPlan  # noqa: F401

        retained = sum(len(plan.moduli) for plan in store.values())
        assert len(store) >= 1
        assert retained <= 2_000 or len(store) == 1
