"""Sharded batch detection: parity and ordering versus in-process."""

from __future__ import annotations

import pickle
from collections import OrderedDict

import numpy as np
import pytest

import scheduler_tasks
from repro.core.batch import detect_files, detect_many, dispatch_detection
from repro.core.config import DetectionConfig, GenerationConfig
from repro.core.detector import WatermarkDetector, detector_fingerprint, pair_columns
from repro.core.generator import WatermarkGenerator, generate_watermark
from repro.core.histogram import TokenHistogram
from repro.core.secrets import WatermarkSecret
from repro.datasets.synthetic import generate_power_law_tokens
from repro.exceptions import ConfigurationError, DetectionError
from repro.exec.blobs import MIN_BLOB_BYTES, blob_digest, dumps_oob
from repro.exec.policy import ExecutionPolicy
from repro.exec.remote import RemoteScheduler
from repro.exec.scheduler import (
    LocalScheduler,
    Scheduler,
    TaskSpec,
    default_worker_count,
    run_task,
)

#: Wire bytes a task may cost beyond its count matrix: the task line,
#: the pickle framing of the payload and the initializer arguments
#: (the secret's blob ref and the detection config).
TASK_ALLOWANCE = 2048


@pytest.fixture(scope="module")
def watermark():
    tokens = generate_power_law_tokens(0.7, n_tokens=60, sample_size=8_000, rng=5)
    return generate_watermark(tokens, budget_percent=2.0, modulus_cap=31, rng=7)


@pytest.fixture(scope="module")
def suspects(watermark):
    """Mixed batch: watermarked copies, decoys, raw token lists."""
    decoy = TokenHistogram.from_tokens(
        [f"decoy-{i % 9}" for i in range(4_000)]
    )
    raw = generate_power_law_tokens(0.7, n_tokens=60, sample_size=2_000, rng=6)
    return [
        watermark.watermarked_histogram,
        decoy,
        list(raw),
        watermark.watermarked_histogram,
        decoy,
    ]


@pytest.fixture(scope="module")
def wide_watermark():
    """A 150-pair secret, large enough to travel as a blob."""
    histogram = TokenHistogram.from_counts(
        {f"tok-{i}": 1_000_000 // (i + 1) + 7 * i for i in range(300)}
    )
    config = GenerationConfig(modulus_cap=131, budget_percent=2.0)
    return WatermarkGenerator(config, rng=7).generate(histogram)


@pytest.fixture(scope="module")
def worker_addresses(tmp_path_factory):
    """Two real ``freqywm worker`` processes shared by the remote tests."""
    directory = tmp_path_factory.mktemp("workers")
    sock_a = directory / "worker-a.sock"
    sock_b = directory / "worker-b.sock"
    with scheduler_tasks.spawn_worker(sock_a), scheduler_tasks.spawn_worker(sock_b):
        yield (f"unix:{sock_a}", f"unix:{sock_b}")


@pytest.fixture(scope="module")
def sweep(watermark):
    """64 histograms: watermarked copies, originals, decoys and rescalings."""
    watermarked = watermark.watermarked_histogram
    original = watermark.original_histogram
    decoy = TokenHistogram.from_tokens([f"decoy-{i % 9}" for i in range(4_000)])
    return [
        watermarked,
        original,
        decoy,
        watermarked.scaled(2.0),
        original.scaled(0.5),
        watermarked.scaled(0.9),
        decoy.scaled(3.0),
        watermarked.scaled(1.5),
    ] * 8


class _TwoWorkers(Scheduler):
    """Reports two workers, runs every task in this process, keeps the specs."""

    workers = 2

    def __init__(self):
        super().__init__()
        self.specs = []

    def run(self, tasks, *, on_result=None):
        self.specs.extend(tasks)
        states = OrderedDict()
        return [run_task(spec, states=states) for spec in tasks]

    def chunks(self):
        """``(function, rows)`` of each dispatched task, in order."""
        return [
            (
                spec.function,
                spec.payload[0].shape[0]
                if spec.function == "detect.counts"
                else len(spec.payload[0]),
            )
            for spec in self.specs
        ]


def _counts_task(secret, matrix):
    """A ``detect.counts`` task over ``matrix`` for ``secret``'s detector."""
    return TaskSpec(
        fingerprint="counts-task",
        function="detect.counts",
        payload=(matrix, False),
        initializer="detect.state",
        init_key=detector_fingerprint(secret),
        init_args=(secret, None),
    )


def _signatures(report):
    return [
        (result.accepted, result.accepted_pairs, result.total_pairs)
        for result in report.results
    ]


@pytest.fixture()
def no_pools(monkeypatch):
    """Fail the test if anything tries to fork a worker child."""
    import os

    def forbidden_fork():
        raise AssertionError("a worker child was forked")

    monkeypatch.setattr(os, "fork", forbidden_fork)


@pytest.fixture()
def count_detector_builds(monkeypatch):
    """Count ``WatermarkDetector`` constructions in this process."""
    built = []
    original = WatermarkDetector.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(WatermarkDetector, "__init__", counting_init)
    return built


class TestParity:
    def test_sharded_matches_in_process_exactly(self, watermark, suspects):
        """Identical results, identically ordered."""
        baseline = detect_many(suspects, watermark.secret)
        sharded = detect_many(
            suspects,
            watermark.secret,
            policy=ExecutionPolicy(workers=2, chunk_size=2),
        )
        assert _signatures(sharded) == _signatures(baseline)

    def test_chunk_size_one_preserves_order(self, watermark, suspects):
        baseline = detect_many(suspects, watermark.secret)
        sharded = detect_many(
            suspects,
            watermark.secret,
            policy=ExecutionPolicy(workers=2, chunk_size=1),
        )
        assert _signatures(sharded) == _signatures(baseline)

    def test_evidence_parity(self, watermark, suspects):
        config = DetectionConfig(pair_threshold=1)
        baseline = detect_many(
            suspects, watermark.secret, config, collect_evidence=True
        )
        sharded = detect_many(
            suspects,
            watermark.secret,
            config,
            collect_evidence=True,
            policy=ExecutionPolicy(workers=2),
        )
        for ours, theirs in zip(sharded.results, baseline.results):
            assert ours.evidence == theirs.evidence

    def test_detect_files_matches_preloaded_path(self, watermark, tmp_path):
        from repro.datasets.loaders import load_histogram_streaming, save_token_file

        wm_tokens = generate_power_law_tokens(0.7, n_tokens=60, sample_size=8_000, rng=5)
        paths = []
        for name, tokens in (
            ("copy.txt", wm_tokens),
            ("decoy.txt", [f"decoy-{i % 9}" for i in range(4_000)]),
            ("copy2.txt", wm_tokens),
        ):
            path = tmp_path / name
            save_token_file(tokens, path)
            paths.append(path)
        preloaded = detect_many(
            [load_histogram_streaming(path) for path in paths], watermark.secret
        )
        for workers in (1, 2):
            policy = ExecutionPolicy(workers=workers, chunk_size=1)
            report = detect_files(paths, watermark.secret, policy=policy)
            assert _signatures(report) == _signatures(preloaded)

    def test_batch_detect_many_workers_parameter(self, watermark, suspects):
        """A prebuilt detector and a sharding policy compose."""
        baseline = detect_many(suspects, watermark.secret)
        sharded = detect_many(
            suspects,
            detector=WatermarkDetector(watermark.secret),
            policy=ExecutionPolicy(workers=2, chunk_size=2),
        )
        assert _signatures(sharded) == _signatures(baseline)


class TestFallbacksAndLifecycle:
    def test_workers_one_never_spawns_processes(self, watermark, suspects, no_pools):
        expected = _signatures(detect_many(suspects, watermark.secret))
        for policy in (ExecutionPolicy(workers=1), ExecutionPolicy()):
            report = detect_many(suspects, watermark.secret, policy=policy)
            assert _signatures(report) == expected

    def test_single_dataset_short_circuits(self, watermark, no_pools):
        report = detect_many(
            [watermark.watermarked_histogram],
            watermark.secret,
            policy=ExecutionPolicy(workers=2),
        )
        assert report[0].accepted

    def test_empty_batch(self, watermark):
        report = detect_many(
            [], watermark.secret, policy=ExecutionPolicy(workers=2)
        )
        assert len(report) == 0

    def test_close_is_idempotent(self, watermark, suspects):
        """A long-lived scheduler survives close() and respawns lazily."""
        expected = _signatures(detect_many(suspects, watermark.secret))
        scheduler = LocalScheduler(2)
        report = dispatch_detection(scheduler, watermark.secret, None, suspects)
        assert _signatures(report) == expected
        scheduler.close()
        scheduler.close()
        report = dispatch_detection(scheduler, watermark.secret, None, suspects)
        assert _signatures(report) == expected
        scheduler.close()

    def test_invalid_parameters_rejected(self, watermark, suspects):
        with pytest.raises(ConfigurationError):
            ExecutionPolicy(workers=0)
        with pytest.raises(ConfigurationError):
            ExecutionPolicy(chunk_size=0)
        # A secret without pairs is rejected in the driver, before any
        # task is dispatched.
        pairless = WatermarkSecret.build([], watermark.secret.secret, 31)
        with pytest.raises(DetectionError, match="no watermarked pairs"):
            detect_many(suspects, pairless, policy=ExecutionPolicy(workers=2))

    def test_default_worker_count_positive(self):
        assert default_worker_count() >= 1


class TestSpawnFailureFallback:
    def test_spawn_failure_is_warned_and_logged_with_reason(
        self, watermark, suspects, monkeypatch, caplog
    ):
        """The fallback must surface *why* it fell back."""
        import logging
        import os

        def failing_fork():
            raise OSError("fork refused in this sandbox")

        monkeypatch.setattr(os, "fork", failing_fork)
        with caplog.at_level(logging.WARNING, logger="repro.core.batch"):
            with pytest.warns(RuntimeWarning, match="fork refused in this sandbox"):
                report = detect_many(
                    suspects, watermark.secret, policy=ExecutionPolicy(workers=2)
                )
        # The logging stream carries the exception type and message.
        assert "fork refused in this sandbox" in caplog.text
        assert "OSError" in caplog.text
        assert "falling back to in-process detection" in caplog.text
        # The batch still completes, in-process, with identical verdicts.
        assert _signatures(report) == _signatures(
            detect_many(suspects, watermark.secret)
        )

    def test_local_detector_reuse_hook(
        self, watermark, suspects, no_pools, count_detector_builds
    ):
        """A prebuilt detector serves the in-process path: nothing is rebuilt."""
        detector = WatermarkDetector(watermark.secret)
        count_detector_builds.clear()
        report = detect_many(
            [watermark.watermarked_histogram],
            detector=detector,
            policy=ExecutionPolicy(workers=2),
        )
        assert count_detector_builds == []
        assert report[0].accepted


class TestRemoteDriver:
    def test_remote_sweep_builds_no_driver_detector(
        self, watermark, suspects, worker_addresses, count_detector_builds
    ):
        """Only the workers build detectors for a remote sweep."""
        expected = _signatures(detect_many(suspects, watermark.secret))
        policy = ExecutionPolicy(scheduler="remote", addresses=worker_addresses)
        count_detector_builds.clear()
        report = detect_many(suspects, watermark.secret, policy=policy)
        assert count_detector_builds == []
        assert _signatures(report) == expected

    def test_remote_verdicts_and_evidence_match_in_process(
        self, watermark, suspects, worker_addresses
    ):
        """Counted chunks (histograms, mappings) and token-list chunks
        answer exactly what the in-process pass answers."""
        batch = suspects + [
            watermark.watermarked_histogram.as_dict(),
            {f"decoy-{i}": i + 1 for i in range(9)},  # none of the secret's tokens
        ]
        config = DetectionConfig(pair_threshold=1)
        expected = detect_many(batch, watermark.secret, config, collect_evidence=True)
        policy = ExecutionPolicy(
            scheduler="remote", addresses=worker_addresses, chunk_size=2
        )
        report = detect_many(
            batch, watermark.secret, config, collect_evidence=True, policy=policy
        )
        assert report.results == expected.results

    def test_counted_chunks_travel_inline(
        self, wide_watermark, worker_addresses, fresh_store
    ):
        """Only the secret is a blob; each chunk ships as its count matrix."""
        secret = wide_watermark.secret
        secret_data = dumps_oob(secret)
        assert secret_data.size >= MIN_BLOB_BYTES  # the secret itself is a blob
        watermarked = wide_watermark.watermarked_histogram
        original = wide_watermark.original_histogram
        batch = [
            watermarked,
            original.as_dict(),
            watermarked.as_dict(),
            original,
            {f"decoy-{i}": i + 1 for i in range(300)},
            watermarked.scaled(1.5),
            original.scaled(0.5),
            watermarked.scaled(0.9).as_dict(),
        ] * 2
        expected = detect_many(batch, secret, collect_evidence=True)
        with RemoteScheduler(worker_addresses) as scheduler:
            report = dispatch_detection(
                scheduler, secret, None, batch, collect_evidence=True, chunk_size=4
            )
            stats = scheduler.stats
        assert report.results == expected.results
        assert 0 < report.accepted_count < len(batch)
        assert stats.tasks == 4
        assert stats.blobs_sent <= len(worker_addresses)
        # The driver's store holds the secret and no chunk.
        assert fresh_store.stats()["blobs"] == 1
        assert blob_digest(secret_data) in fresh_store
        columns = len(pair_columns(secret))
        assert stats.bytes_sent < (
            len(batch) * columns * 8
            + stats.tasks * TASK_ALLOWANCE
            + stats.blobs_sent * secret_data.size
        )

    def test_malformed_matrix_error_comes_back_typed(self, watermark, worker_addresses):
        columns = len(pair_columns(watermark.secret))
        spec = _counts_task(watermark.secret, np.zeros((2, columns), dtype=np.float64))
        with RemoteScheduler(worker_addresses[:1]) as scheduler:
            with pytest.raises(DetectionError, match="int64"):
                scheduler.run([spec])


class TestDefaultChunkSizes:
    """A batch the driver reads into count rows is one chunk per worker,
    capped at 64 rows; any batch holding a token list is four per worker."""

    def _dispatch(self, watermark, batch, **kwargs):
        scheduler = _TwoWorkers()
        report = dispatch_detection(
            scheduler, watermark.secret, None, batch, collect_evidence=True, **kwargs
        )
        expected = detect_many(batch, watermark.secret, collect_evidence=True)
        assert report.results == expected.results
        return scheduler.chunks()

    def test_histograms_are_one_counts_task_per_worker(self, watermark, sweep):
        assert self._dispatch(watermark, sweep) == [("detect.counts", 32)] * 2

    def test_mappings_are_capped_at_64_rows(self, watermark, sweep):
        mappings = [histogram.as_dict() for histogram in sweep] * 3 + [
            histogram.as_dict() for histogram in sweep[:8]
        ]
        assert len(mappings) == 200
        assert self._dispatch(watermark, mappings) == [
            ("detect.counts", 64),
            ("detect.counts", 64),
            ("detect.counts", 64),
            ("detect.counts", 8),
        ]

    def test_one_token_list_makes_four_chunks_per_worker(self, watermark, sweep):
        raw = generate_power_law_tokens(0.7, n_tokens=60, sample_size=2_000, rng=6)
        batch = list(sweep)
        batch[21] = list(raw)
        chunks = self._dispatch(watermark, batch)
        assert [rows for _, rows in chunks] == [8] * 8
        assert [function for function, _ in chunks] == (
            ["detect.counts"] * 2 + ["detect.chunk"] + ["detect.counts"] * 5
        )

    def test_an_explicit_chunk_size_is_used_verbatim(self, watermark, sweep):
        assert self._dispatch(watermark, sweep, chunk_size=5) == (
            [("detect.counts", 5)] * 12 + [("detect.counts", 4)]
        )
        assert self._dispatch(watermark, sweep, chunk_size=64) == [
            ("detect.counts", 64)
        ]

    def test_a_remote_counted_sweep_is_one_task_per_worker(
        self, watermark, sweep, worker_addresses
    ):
        config = DetectionConfig(pair_threshold=1)
        expected = detect_many(sweep, watermark.secret, config, collect_evidence=True)
        with RemoteScheduler(worker_addresses) as scheduler:
            report = dispatch_detection(
                scheduler, watermark.secret, config, sweep, collect_evidence=True
            )
        assert scheduler.stats.tasks == 2
        assert report.results == expected.results
        assert 0 < report.accepted_count < len(sweep)


class TestCountsTask:
    """``detect.counts`` accepts only a 2-D int64 matrix at the
    detector's columns with no negative entry."""

    def test_zero_rows_are_legal(self, watermark):
        columns = len(pair_columns(watermark.secret))
        matrix = np.zeros((2, columns), dtype=np.int64)
        results = run_task(_counts_task(watermark.secret, matrix))
        assert [result.accepted_pairs for result in results] == [0, 0]
        assert not any(result.accepted for result in results)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda columns: np.ones((2, columns + 1), dtype=np.int64), "count matrix"),
            (lambda columns: np.ones((2, columns), dtype=np.float64), "count matrix"),
            (lambda columns: np.ones(columns, dtype=np.int64), "count matrix"),
            (lambda columns: -np.eye(2, columns, dtype=np.int64), "negative"),
        ],
        ids=["wrong-column-count", "float", "one-dimensional", "negative-entry"],
    )
    def test_malformed_matrix_is_rejected(self, watermark, build, message):
        matrix = build(len(pair_columns(watermark.secret)))
        with pytest.raises(DetectionError, match=message):
            run_task(_counts_task(watermark.secret, matrix))


class _ShippingTwoWorkers(_TwoWorkers):
    """A :class:`_TwoWorkers` that blob-ifies the secret, as a remote one does."""

    ships_payloads = True


class TestSecretBlobMemo:
    """A sweep pickles and hashes its secret once, not on every dispatch."""

    @pytest.fixture()
    def pickled_secrets(self, monkeypatch, wide_watermark):
        """How many times ``dumps_oob`` serialised the wide secret."""
        import repro.exec.blobs as blobs

        calls = []
        dumps = blobs.dumps_oob

        def counting(value):
            calls.append(value is wide_watermark.secret)
            return dumps(value)

        monkeypatch.setattr(blobs, "dumps_oob", counting)
        return calls

    def _dispatch(self, wide_watermark):
        scheduler = _ShippingTwoWorkers()
        batch = [wide_watermark.watermarked_histogram, wide_watermark.original_histogram]
        report = dispatch_detection(scheduler, wide_watermark.secret, None, batch)
        (digest,) = {ref for spec in scheduler.specs for ref in spec.blob_refs}
        return report, digest

    def test_a_second_dispatch_does_not_serialise_the_secret(
        self, wide_watermark, fresh_store, pickled_secrets
    ):
        first, digest = self._dispatch(wide_watermark)
        second, again = self._dispatch(wide_watermark)
        assert sum(pickled_secrets) == 1
        assert again == digest == blob_digest(dumps_oob(wide_watermark.secret))
        assert first.results == second.results
        assert fresh_store.stats()["puts"] == 1
        # The memo never travels with the secret.
        assert pickle.loads(pickle.dumps(wide_watermark.secret)).__dict__.get(
            "_blob_digest"
        ) is None

    def test_an_evicted_digest_is_put_again(
        self, wide_watermark, fresh_store, pickled_secrets
    ):
        _, digest = self._dispatch(wide_watermark)
        fresh_store.clear()
        assert digest not in fresh_store
        report, again = self._dispatch(wide_watermark)
        assert again == digest and digest in fresh_store
        assert sum(pickled_secrets) == 2
        assert report.accepted_flags[0]


class TestSerialisation:
    def test_histogram_pickle_roundtrip_is_lean_and_exact(self, watermark):
        histogram = watermark.watermarked_histogram
        arrays = histogram.arrays()  # populate caches
        assert arrays is histogram.arrays()
        clone = pickle.loads(pickle.dumps(histogram))
        assert clone == histogram
        assert clone.tokens == histogram.tokens
        assert clone.boundaries() == histogram.boundaries()
        # Detection through a pickled histogram matches the original.
        detector = WatermarkDetector(watermark.secret)
        assert (
            detector.detect(clone).accepted_pairs
            == detector.detect(histogram).accepted_pairs
        )

    def test_detection_results_pickle(self, watermark, suspects):
        report = detect_many(
            suspects, watermark.secret, collect_evidence=True
        )
        clone = pickle.loads(pickle.dumps(report.results))
        assert [r.accepted for r in clone] == [r.accepted for r in report.results]
