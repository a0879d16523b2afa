"""The unified telemetry plane: spans, stats groups, logging, profiling.

Covers the ``repro.obs`` package end to end — feature gating, span
recording and cross-process stitching (local pool and real ``freqywm
worker`` subprocesses), the per-owner stats groups and their
field-for-field parity with the owners' ``as_dict()``, the Prometheus
rendering, the ``stats`` wire verb, structured logging, the slow-task
profiler, the trace report renderer, and the two CI gate tools
(``tools/check_telemetry.py`` and the tail-aware benchmark helpers).
"""

from __future__ import annotations

import asyncio
import io
import json
import logging as pylogging
import os
import sys
import threading
from pathlib import Path

import pytest

import scheduler_tasks
from repro.dispute.index import CandidateIndex
from repro.dispute.registry import WatermarkRegistry
from repro.exceptions import ConfigurationError, ReproError, ServiceError
from repro.exec.policy import ExecutionPolicy
from repro.exec.remote import RemoteScheduler
from repro.exec.blobs import default_blob_store
from repro.exec.scheduler import LocalScheduler, TaskSpec, run_task
from repro.experiments import ExperimentRunner, load_spec
from repro.experiments.executor import TELEMETRY_RELPATH
from repro.obs import logging as obs_logging
from repro.obs import trace as obs_trace
from repro.obs.logging import (
    configure as configure_logging,
    get_logger,
    log_record,
    parse_log_env,
)
from repro.obs.metrics import render_prometheus
from repro.obs.profile import (
    PROFILE_THRESHOLD_ENV,
    maybe_profile,
    profile_threshold,
    top_frames,
)
from repro.obs.report import (
    SPANS_RELPATH,
    aggregate,
    build_tree,
    load_spans,
    orphan_spans,
    render_report,
)
from repro.obs.trace import (
    TELEMETRY_FEATURES,
    configure_telemetry,
    current_context,
    metrics_active,
    parse_telemetry,
    span,
    spans_active,
    tracer,
)
from repro.service.service import DetectionService, ServiceConfig
from repro.service.wire import (
    AttributeRequest,
    StatsRequest,
    StatsResponse,
    TaskRequest,
    TaskResult,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

import check_telemetry  # noqa: E402
from bench_utils import percentile  # noqa: E402


@pytest.fixture(autouse=True)
def _restore_obs_state():
    """Telemetry/logging state is process-global; leave it as found (off)."""
    yield
    configure_telemetry(None)
    tracer().reset()
    obs_logging.reset()


def _echo_specs(payloads):
    return [
        TaskSpec(
            fingerprint=f"echo-{index}",
            function="schedtest.echo",
            payload=payload,
        )
        for index, payload in enumerate(payloads)
    ]


# --------------------------------------------------------------------------- #
# Feature gating
# --------------------------------------------------------------------------- #


class TestTelemetryGating:
    @pytest.mark.parametrize("value", [None, "", "  ", "off", "OFF"])
    def test_none_empty_and_off_disable_everything(self, value):
        assert parse_telemetry(value) == frozenset()

    def test_all_enables_every_feature(self):
        assert parse_telemetry("all") == frozenset(TELEMETRY_FEATURES)

    def test_comma_list_with_whitespace_and_case(self):
        assert parse_telemetry(" Spans , METRICS ") == {"spans", "metrics"}

    def test_unknown_feature_is_rejected_loudly(self):
        with pytest.raises(ConfigurationError, match="spams"):
            parse_telemetry("spans,spams")

    def test_configure_flips_the_active_predicates(self):
        configure_telemetry("spans")
        assert spans_active() and not metrics_active()
        configure_telemetry("metrics")
        assert metrics_active() and not spans_active()
        configure_telemetry(None)
        assert not spans_active() and not metrics_active()

    def test_configure_accepts_an_iterable_of_names(self):
        assert configure_telemetry(["spans", "profile"]) == {"spans", "profile"}

    def test_execution_policy_validates_telemetry_at_construction(self):
        assert ExecutionPolicy(telemetry="spans,metrics").telemetry == "spans,metrics"
        with pytest.raises(ConfigurationError):
            ExecutionPolicy(telemetry="spanz")


# --------------------------------------------------------------------------- #
# Span recording
# --------------------------------------------------------------------------- #


class TestSpans:
    def test_disabled_span_records_nothing_and_has_no_context(self):
        configure_telemetry(None)
        with span("noop", attributes={"ignored": 1}) as inert:
            inert.set_attribute("also", "ignored")
            assert inert.context is None
        assert tracer().buffered == 0

    def test_nested_spans_share_a_trace_and_parent_correctly(self):
        configure_telemetry("spans")
        with span("root") as root:
            with span("child") as child:
                assert child.trace_id == root.trace_id
                assert child.parent_id == root.span_id
        records = tracer().drain()
        # The child finishes (and is buffered) before the root.
        assert [record["name"] for record in records] == ["child", "root"]
        child_record, root_record = records
        assert root_record["parent"] is None
        assert child_record["parent"] == root_record["span"]
        for record in records:
            for key in check_telemetry.SPAN_KEYS:
                assert key in record
            assert record["status"] == "ok"
            assert record["pid"] == os.getpid()
            assert record["duration"] >= 0

    def test_current_context_tracks_the_active_span(self):
        configure_telemetry("spans")
        assert current_context() is None
        with span("outer") as outer:
            assert current_context() == outer.context
        assert current_context() is None

    def test_exception_marks_the_span_error_and_propagates(self):
        configure_telemetry("spans")
        with pytest.raises(ValueError, match="boom"):
            with span("doomed"):
                raise ValueError("boom")
        (record,) = tracer().drain()
        assert record["status"] == "error"
        assert record["attrs"]["error_type"] == "ValueError"

    def test_explicit_parent_forces_recording_while_disabled(self):
        # The worker-process contract: the dispatching client asked for
        # this trace, so the span records even with telemetry off here.
        configure_telemetry(None)
        parent = ("f" * 32, "a" * 16)
        with span("task:remote", parent=parent):
            pass
        (record,) = tracer().drain()
        assert record["trace"] == "f" * 32
        assert record["parent"] == "a" * 16

    def test_disabled_span_is_one_shared_object(self):
        configure_telemetry(None)
        assert span("a") is span("b", attributes={"ignored": 1})
        assert span("a").recording is False

    def test_spans_inside_a_recording_span_record_while_disabled(self):
        # The worker-process contract, one level down: a task span forced
        # by its shipped parent records the stage spans opened inside it.
        configure_telemetry(None)
        with span("task:remote", parent=("f" * 32, "a" * 16)):
            with span("core.detect_pass") as inner:
                assert inner.recording
        inner_record, task_record = tracer().drain()
        assert inner_record["parent"] == task_record["span"]
        assert inner_record["trace"] == "f" * 32
        with span("after") as after:
            assert not after.recording
        assert tracer().buffered == 0

    def test_ring_buffer_drops_oldest_and_counts_losses(self, monkeypatch):
        configure_telemetry("spans")
        monkeypatch.setattr(obs_trace, "SPAN_BUFFER_CAP", 3)
        for index in range(5):
            with span(f"burst-{index}"):
                pass
        assert tracer().buffered == 3
        assert tracer().dropped == 2
        names = [record["name"] for record in tracer().drain()]
        assert names == ["burst-2", "burst-3", "burst-4"]

    def test_sink_streams_each_span_as_one_json_line(self, tmp_path):
        configure_telemetry("spans")
        sink = tmp_path / "telemetry" / "spans.jsonl"
        tracer().set_sink(sink)
        with span("a"):
            pass
        with span("b"):
            pass
        lines = sink.read_text(encoding="utf-8").splitlines()
        assert [json.loads(line)["name"] for line in lines] == ["a", "b"]

    def test_attaching_a_sink_flushes_already_buffered_spans(self, tmp_path):
        configure_telemetry("spans")
        with span("early"):
            pass
        sink = tmp_path / "spans.jsonl"
        tracer().set_sink(sink)
        assert json.loads(sink.read_text(encoding="utf-8"))["name"] == "early"

    def test_drain_empties_and_ingest_filters_non_dicts(self):
        configure_telemetry("spans")
        with span("shipped"):
            pass
        shipped = tracer().drain()
        assert tracer().buffered == 0
        tracer().ingest(shipped + ["junk", 42, None])
        assert tracer().buffered == 1


# --------------------------------------------------------------------------- #
# Stats groups: each owner reports its own counters
# --------------------------------------------------------------------------- #


def _stats_answer(service):
    """The ``stats`` verb's answer from a running service (one coroutine)."""
    return service.submit(StatsRequest(request_id="stats"))


class TestMetricsViews:
    def test_single_live_object_reports_fields_verbatim(self, watermarked_bundle):
        result, _original = watermarked_bundle

        async def run():
            async with DetectionService() as service:
                await service.detect(result.watermarked_histogram, result.secret)
                service.vault.register("buyer", result.secret)
                return service, await _stats_answer(service)

        service, response = asyncio.run(run())
        assert response.ok, response.error
        assert response.metrics == {
            "views": {
                "service": service.stats.as_dict(),
                "detector_cache": service.cache.stats().as_dict(),
                "vault": service.vault.index_stats().as_dict(),
            }
        }
        assert response.prometheus == render_prometheus(response.metrics["views"])

    def test_each_service_reports_only_its_own_counters(self, watermarked_bundle):
        """Two services in one process: A's answer holds A's numbers only."""
        result, _original = watermarked_bundle
        data, secret = result.watermarked_histogram, result.secret

        async def run():
            config = ServiceConfig(cache_capacity=8)
            async with DetectionService(config) as first, DetectionService(
                config
            ) as second:
                await asyncio.gather(*(first.detect(data, secret) for _ in range(10)))
                for _ in range(3):
                    await second.detect(data, secret)
                assert (first.stats.requests, second.stats.requests) == (10, 3)
                return await _stats_answer(first), await _stats_answer(second)

        answer_a, answer_b = asyncio.run(run())
        views_a, views_b = answer_a.metrics["views"], answer_b.metrics["views"]
        assert views_a["service"]["requests"] == 10
        assert views_a["detector_cache"]["capacity"] == 8
        assert views_b["service"]["requests"] == 3
        assert "freqywm_service_requests 10\n" in answer_a.prometheus
        assert "freqywm_detector_cache_capacity 8\n" in answer_a.prometheus

    def test_stats_waits_for_a_vault_verb_in_flight(self, watermarked_bundle, monkeypatch):
        """Reading the vault group may build or compact the candidate
        index, so a ``stats`` sent while an attribute screens reads it
        only after that attribute has returned."""
        result, _original = watermarked_bundle
        events = []
        screening, release = threading.Event(), threading.Event()
        screen = CandidateIndex.screen

        def held_screen(index, data, detection):
            events.append("screen")
            screening.set()
            assert release.wait(10)
            events.append("screen returns")
            return screen(index, data, detection)

        registry = WatermarkRegistry()
        registry.register("buyer", result.secret)
        index_stats = registry.index_stats

        def counted_index_stats():
            events.append("index_stats")
            return index_stats()

        monkeypatch.setattr(CandidateIndex, "screen", held_screen)
        monkeypatch.setattr(registry, "index_stats", counted_index_stats)
        counts = result.watermarked_histogram.as_dict()

        async def run():
            async with DetectionService(registry=registry) as service:
                attribute = asyncio.create_task(
                    service.submit(AttributeRequest(request_id="a", counts=counts))
                )
                try:
                    assert await asyncio.to_thread(screening.wait, 10)
                    stats = asyncio.create_task(_stats_answer(service))
                    await asyncio.sleep(0.05)
                    held = (stats.done(), list(events))
                finally:
                    release.set()
                return held, await attribute, await stats

        (stats_done, seen), attributed, answered = asyncio.run(run())
        assert (stats_done, seen) == (False, ["screen"])
        assert attributed.ok and [buyer for buyer, _ in attributed.matches] == ["buyer"]
        assert answered.ok, answered.error
        assert events == ["screen", "screen returns", "index_stats"]
        assert answered.metrics["views"]["vault"] == index_stats().as_dict()

    def test_scheduler_stats_parity_field_for_field(self):
        with LocalScheduler(workers=1) as scheduler:
            scheduler.run(_echo_specs(["x", "y"]))
        assert scheduler.stats.tasks == 2
        assert scheduler.stats.as_dict() == {
            "tasks": 2,
            "bytes_sent": 0,
            "bytes_deduped": 0,
            "blobs_sent": 0,
            "blobs_deduped": 0,
        }
        # A plain attribute: one object per scheduler, never shared.
        with LocalScheduler(workers=1) as other:
            assert other.stats is not scheduler.stats
            assert other.stats.tasks == 0

    def test_service_stats_parity_field_for_field(self):
        async def run():
            async with DetectionService() as service:
                service.stats.requests = 30
                service.stats.failures = 2
                service.stats.embeds = 3
                service.stats.registrations = 5
                service.stats.revocations = 1
                service.stats.attributions = 7
                return service.stats, await _stats_answer(service)

        stats, response = asyncio.run(run())
        snapshot = response.metrics["views"]["service"]
        assert snapshot == stats.as_dict()
        assert snapshot == {
            "requests": 30,
            "failures": 2,
            "embeds": 3,
            "registrations": 5,
            "revocations": 1,
            "attributions": 7,
        }


# --------------------------------------------------------------------------- #
# Prometheus exposition
# --------------------------------------------------------------------------- #

#: Groups exercising every rendering rule: ints, an integral and a
#: fractional float, and the skipped kinds (None, bool, str).
_GROUPS = {
    "service": {"requests": 10, "batches": 2, "mean_batch_size": 5.0, "failures": 0},
    "detector_cache": {"hits": 9, "misses": 1, "capacity": None, "hit_rate": 0.9},
    "vault": {"mode": "index", "active": True, "buckets": 3},
}


class TestPrometheusExposition:
    def test_rendering_is_valid_exposition_format(self):
        text = render_prometheus(_GROUPS)
        assert check_telemetry.check_prometheus(text) == []

    def test_rendering_turns_numeric_fields_into_gauges(self):
        # Sorted by group, then field; non-numeric fields are skipped.
        assert render_prometheus(_GROUPS) == (
            "# TYPE freqywm_detector_cache_hit_rate gauge\n"
            "freqywm_detector_cache_hit_rate 0.9\n"
            "# TYPE freqywm_detector_cache_hits gauge\n"
            "freqywm_detector_cache_hits 9\n"
            "# TYPE freqywm_detector_cache_misses gauge\n"
            "freqywm_detector_cache_misses 1\n"
            "# TYPE freqywm_service_batches gauge\n"
            "freqywm_service_batches 2\n"
            "# TYPE freqywm_service_failures gauge\n"
            "freqywm_service_failures 0\n"
            "# TYPE freqywm_service_mean_batch_size gauge\n"
            "freqywm_service_mean_batch_size 5\n"
            "# TYPE freqywm_service_requests gauge\n"
            "freqywm_service_requests 10\n"
            "# TYPE freqywm_vault_buckets gauge\n"
            "freqywm_vault_buckets 3\n"
        )

    def test_checker_rejects_malformed_expositions(self):
        undeclared = "freqywm_orphan_metric 1\n"
        assert check_telemetry.check_prometheus(undeclared)
        unprefixed = "# TYPE rogue gauge\nrogue 1\n"
        assert check_telemetry.check_prometheus(unprefixed)
        no_newline = "# TYPE freqywm_x gauge\nfreqywm_x 1"
        assert check_telemetry.check_prometheus(no_newline)
        truncated_histogram = (
            "# TYPE freqywm_h histogram\n"
            'freqywm_h_bucket{le="1"} 1\n'
            "freqywm_h_sum 1\nfreqywm_h_count 1\n"
        )
        assert check_telemetry.check_prometheus(truncated_histogram)
        assert check_telemetry.check_prometheus("") == ["exposition: empty exposition"]


# --------------------------------------------------------------------------- #
# Wire protocol: additive telemetry fields and the stats verb
# --------------------------------------------------------------------------- #


class TestWireTelemetry:
    def test_task_request_trace_round_trips(self):
        request = TaskRequest(
            request_id="t1", function="schedtest.echo", trace=("a" * 32, "b" * 16)
        )
        rebuilt = TaskRequest.from_dict(request.to_dict())
        assert rebuilt.trace == ("a" * 32, "b" * 16)

    def test_task_request_without_trace_stays_traceless(self):
        request = TaskRequest(request_id="t2", function="schedtest.echo")
        payload = request.to_dict()
        assert "trace" not in payload
        assert TaskRequest.from_dict(payload).trace is None

    def test_malformed_trace_is_rejected(self):
        payload = TaskRequest(request_id="t3", function="f").to_dict()
        payload["trace"] = "not-a-pair"
        with pytest.raises(ServiceError, match="trace"):
            TaskRequest.from_dict(payload)

    def test_task_result_spans_round_trip_on_success_and_failure(self):
        shipped = ({"trace": "t", "span": "s", "parent": "p", "name": "task:x"},)
        success = TaskResult(request_id="r1", ok=True, spans=shipped)
        assert TaskResult.from_dict(success.to_dict()).spans == shipped
        failure = TaskResult.failure("r2", "kaput")
        payload = failure.to_dict()
        payload["spans"] = list(shipped)
        assert TaskResult.from_dict(payload).spans == shipped

    def test_stats_request_round_trips_and_validates_id(self):
        request = StatsRequest(request_id="s1")
        assert StatsRequest.from_dict(request.to_dict()).request_id == "s1"
        with pytest.raises(ServiceError):
            StatsRequest(request_id="")

    def test_stats_response_round_trips_both_outcomes(self):
        success = StatsResponse(
            request_id="s2",
            metrics={"counters": {}},
            prometheus="# TYPE freqywm_x gauge\nfreqywm_x 1\n",
        )
        rebuilt = StatsResponse.from_dict(success.to_dict())
        assert rebuilt.ok and rebuilt.metrics == {"counters": {}}
        assert rebuilt.prometheus.endswith("\n")
        failure = StatsResponse.from_dict(
            StatsResponse.failure("s3", "overloaded").to_dict()
        )
        assert not failure.ok and failure.error == "overloaded"

    def test_service_answers_the_stats_verb_with_both_expositions(self):
        async def run():
            async with DetectionService() as service:
                return await service.submit(StatsRequest(request_id="stats:1"))

        response = asyncio.run(run())
        assert response.ok
        assert set(response.metrics) == {"views"}
        assert set(response.metrics["views"]) == {"service", "detector_cache"}
        assert check_telemetry.check_prometheus(response.prometheus) == []


# --------------------------------------------------------------------------- #
# Cross-process stitching
# --------------------------------------------------------------------------- #


class TestLocalPoolStitching:
    def test_pool_task_spans_stitch_into_one_trace(self):
        configure_telemetry("spans")
        with LocalScheduler(workers=2) as scheduler:
            assert scheduler.run(_echo_specs(["a", "b", "c", "d"])) == [
                "a", "b", "c", "d",
            ]
        spans = tracer().drain()
        names = [record["name"] for record in spans]
        assert names.count("scheduler.run") == 1
        assert names.count("task:schedtest.echo") == 4
        assert len({record["trace"] for record in spans}) == 1
        assert orphan_spans(spans) == []

    def test_crash_and_retry_leaves_no_orphan_spans(self, tmp_path):
        configure_telemetry("spans")
        sentinel = tmp_path / "crashed-once"
        specs = [
            TaskSpec(
                fingerprint="die-once",
                function="schedtest.die_once",
                payload=str(sentinel),
            )
        ] + _echo_specs(["a", "b"])
        with LocalScheduler(workers=2) as scheduler:
            assert scheduler.run(specs) == ["survived", "a", "b"]
        spans = tracer().drain()
        # The killed first attempt's span dies with its worker; the
        # retry's span (and everything else) still stitches cleanly.
        assert orphan_spans(spans) == []
        assert len({record["trace"] for record in spans}) == 1
        names = [record["name"] for record in spans]
        assert "task:schedtest.die_once" in names

    def test_untraced_dispatch_records_nothing(self):
        configure_telemetry(None)
        result = run_task(
            TaskSpec(fingerprint="plain", function="schedtest.echo", payload="x")
        )
        assert result == "x"
        assert tracer().buffered == 0


class TestRemoteStitching:
    @pytest.fixture()
    def two_workers(self, tmp_path):
        sock_a = tmp_path / "worker-a.sock"
        sock_b = tmp_path / "worker-b.sock"
        with scheduler_tasks.spawn_worker(sock_a):
            with scheduler_tasks.spawn_worker(sock_b):
                yield (f"unix:{sock_a}", f"unix:{sock_b}")

    def test_spans_from_two_workers_stitch_into_one_tree(self, two_workers):
        configure_telemetry("spans")
        with RemoteScheduler(two_workers) as scheduler:
            assert scheduler.workers == 2
            results = scheduler.run(_echo_specs(list(range(6))))
        assert results == list(range(6))
        spans = tracer().drain()
        assert len({record["trace"] for record in spans}) == 1
        assert orphan_spans(spans) == []
        task_spans = [
            record for record in spans if record["name"] == "task:schedtest.echo"
        ]
        assert len(task_spans) == 6
        # Task spans were recorded inside the worker processes (which
        # never enabled telemetry themselves), not in this client.
        worker_pids = {record["pid"] for record in task_spans}
        assert os.getpid() not in worker_pids
        roots = [record for record in spans if record["parent"] is None]
        assert [record["name"] for record in roots] == ["scheduler.run"]
        assert roots[0]["pid"] == os.getpid()

    def test_workers_with_spans_on_ship_only_the_tasks_trace(self, tmp_path):
        """A worker's own line-codec spans stay in the worker."""
        sock_a = tmp_path / "traced-a.sock"
        sock_b = tmp_path / "traced-b.sock"
        configure_telemetry("spans")
        with scheduler_tasks.spawn_worker(sock_a, telemetry="spans"):
            with scheduler_tasks.spawn_worker(sock_b, telemetry="spans"):
                addresses = (f"unix:{sock_a}", f"unix:{sock_b}")
                with RemoteScheduler(addresses) as scheduler:
                    assert scheduler.run(_echo_specs(list(range(4)))) == [0, 1, 2, 3]
        spans = tracer().drain()
        assert len({record["trace"] for record in spans}) == 1
        assert orphan_spans(spans) == []
        names = [record["name"] for record in spans]
        assert names.count("task:schedtest.echo") == 4


# --------------------------------------------------------------------------- #
# Structured logging
# --------------------------------------------------------------------------- #


class TestLogging:
    def test_parse_log_env_defaults_and_forms(self):
        assert parse_log_env(None) == (pylogging.WARNING, "plain")
        assert parse_log_env("debug") == (pylogging.DEBUG, "plain")
        assert parse_log_env("INFO:JSON") == (pylogging.INFO, "json")
        with pytest.raises(ConfigurationError, match="level"):
            parse_log_env("loud")
        with pytest.raises(ConfigurationError, match="format"):
            parse_log_env("info:xml")

    def test_json_mode_emits_one_object_per_record(self):
        stream = io.StringIO()
        configure_logging(
            level=pylogging.INFO, format_name="json", stream=stream, force=True
        )
        log_record(
            get_logger("exec.worker"), pylogging.INFO, "worker shutdown", served=3
        )
        record = json.loads(stream.getvalue().strip())
        assert record["event"] == "worker shutdown"
        assert record["level"] == "info"
        assert record["logger"] == "repro.exec.worker"
        assert record["served"] == 3

    def test_plain_mode_appends_sorted_key_value_fields(self):
        stream = io.StringIO()
        configure_logging(
            level=pylogging.INFO, format_name="plain", stream=stream, force=True
        )
        log_record(get_logger("core"), pylogging.INFO, "fallback", b=2, a=1)
        assert stream.getvalue().strip().endswith("fallback a=1 b=2")

    def test_configure_is_idempotent_without_force(self):
        configure_logging(force=True)
        configure_logging()
        root = pylogging.getLogger(obs_logging.ROOT_LOGGER)
        tagged = [
            handler
            for handler in root.handlers
            if getattr(handler, "_repro_obs", False)
        ]
        assert len(tagged) == 1

    def test_get_logger_accepts_bare_and_dunder_names(self):
        assert get_logger("exec.scheduler") is get_logger("repro.exec.scheduler")

    def test_records_below_the_level_are_skipped(self):
        stream = io.StringIO()
        configure_logging(
            level=pylogging.WARNING, format_name="plain", stream=stream, force=True
        )
        log_record(get_logger("quiet"), pylogging.INFO, "unseen")
        assert stream.getvalue() == ""


# --------------------------------------------------------------------------- #
# Slow-task profiling
# --------------------------------------------------------------------------- #


class _RecordingSpan:
    """Captures ``set_attribute`` calls for profiler assertions."""

    def __init__(self):
        self.attrs = {}

    def set_attribute(self, name, value):
        self.attrs[name] = value


class TestProfiling:
    def test_disabled_profiling_touches_nothing(self):
        recording = _RecordingSpan()
        with maybe_profile(recording, enabled=False):
            sum(range(100))
        assert recording.attrs == {}

    def test_slow_block_gets_frames_attached(self):
        recording = _RecordingSpan()
        with maybe_profile(recording, enabled=True, threshold=0.0):
            sum(range(1000))
        frames = recording.attrs["profile"]
        assert frames and all(
            set(frame) == {"site", "calls", "total", "cumulative"}
            for frame in frames
        )
        assert recording.attrs["profile_elapsed"] >= 0

    def test_fast_block_below_threshold_is_discarded(self):
        recording = _RecordingSpan()
        with maybe_profile(recording, enabled=True, threshold=60.0):
            sum(range(100))
        assert recording.attrs == {}

    def test_raising_block_still_reports_when_slow(self):
        recording = _RecordingSpan()
        with pytest.raises(RuntimeError):
            with maybe_profile(recording, enabled=True, threshold=0.0):
                raise RuntimeError("mid-profile")
        assert "profile" in recording.attrs

    def test_threshold_env_parsing(self, monkeypatch):
        monkeypatch.setenv(PROFILE_THRESHOLD_ENV, "0.5")
        assert profile_threshold() == 0.5
        monkeypatch.setenv(PROFILE_THRESHOLD_ENV, "-3")
        assert profile_threshold() == 0.0
        monkeypatch.setenv(PROFILE_THRESHOLD_ENV, "soon")
        assert profile_threshold() == pytest.approx(0.25)

    def test_top_frames_sorts_by_cumulative_time(self):
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
        sorted(range(1000))
        profiler.disable()
        frames = top_frames(profiler, limit=3)
        assert len(frames) <= 3
        cumulatives = [frame["cumulative"] for frame in frames]
        assert cumulatives == sorted(cumulatives, reverse=True)


# --------------------------------------------------------------------------- #
# Trace reports
# --------------------------------------------------------------------------- #


def _span_record(span_id, parent, name, start=0.0, duration=0.1, status="ok"):
    return {
        "trace": "trace-1",
        "span": span_id,
        "parent": parent,
        "name": name,
        "start": start,
        "duration": duration,
        "status": status,
        "pid": 1,
    }


class TestReport:
    def test_build_tree_parents_and_orders_children_by_start(self):
        spans = [
            _span_record("b", "a", "second", start=2.0),
            _span_record("c", "a", "first", start=1.0),
            _span_record("a", None, "root", start=0.0),
        ]
        (roots,) = build_tree(spans).values()
        (root,) = roots
        assert root.name == "root"
        assert [child.name for child in root.children] == ["first", "second"]

    def test_orphans_are_spans_whose_parent_never_arrived(self):
        spans = [
            _span_record("a", None, "root"),
            _span_record("b", "missing", "lost"),
        ]
        (orphan,) = orphan_spans(spans)
        assert orphan["name"] == "lost"

    def test_aggregate_totals_means_and_errors(self):
        spans = [
            _span_record("a", None, "task", duration=1.0),
            _span_record("b", None, "task", duration=3.0, status="error"),
            _span_record("c", None, "setup", duration=0.5),
        ]
        first, second = aggregate(spans)
        assert first["name"] == "task"
        assert first["count"] == 2
        assert first["total"] == 4.0
        assert first["mean"] == 2.0
        assert first["max"] == 3.0
        assert first["errors"] == 1
        assert second["name"] == "setup"

    def test_render_report_shows_table_tree_and_error_marks(self):
        spans = [
            _span_record("a", None, "root", duration=1.0),
            _span_record("b", "a", "child", start=0.5, status="error"),
        ]
        text = render_report(spans)
        assert "2 spans, 1 trace(s), 0 orphan(s)" in text
        assert "trace trace-1" in text
        assert "  root" in text and "    child" in text
        assert "[ERROR]" in text

    def test_render_report_suppresses_the_tree_beyond_the_limit(self):
        spans = [
            _span_record(f"s{index}", None, f"span-{index}") for index in range(5)
        ]
        text = render_report(spans, limit=3)
        assert "trace trace-1" not in text
        assert render_report([]) == "no spans recorded\n"

    def test_load_spans_resolves_run_directories(self, tmp_path):
        stream = tmp_path / SPANS_RELPATH
        stream.parent.mkdir(parents=True)
        stream.write_text(
            json.dumps(_span_record("a", None, "root")) + "\n\n", encoding="utf-8"
        )
        assert [record["name"] for record in load_spans(str(tmp_path))] == ["root"]

    def test_load_spans_rejects_missing_and_malformed_streams(self, tmp_path):
        with pytest.raises(ReproError, match="no span stream"):
            load_spans(str(tmp_path / "absent"))
        broken = tmp_path / "broken.jsonl"
        broken.write_text('{"ok": 1}\nnot json\n', encoding="utf-8")
        with pytest.raises(ReproError, match=":2:"):
            load_spans(str(broken))


# --------------------------------------------------------------------------- #
# End-to-end run artifacts and the CI checker
# --------------------------------------------------------------------------- #


class TestRunTelemetryArtifacts:
    @pytest.fixture(scope="class")
    def traced_run(self, tmp_path_factory):
        """One smoke-spec run with spans+metrics on, shared by the class."""
        run_dir = tmp_path_factory.mktemp("telemetry-run") / "run"
        spec = load_spec("experiments/specs/smoke.json")
        policy = ExecutionPolicy(workers=2, telemetry="spans,metrics")
        runner = ExperimentRunner(spec, run_dir, policy=policy)
        try:
            result = runner.run()
        finally:
            runner.close()
            configure_telemetry(None)
            tracer().reset()
        return run_dir, result, runner._scheduler.stats

    def test_run_writes_both_telemetry_artifacts(self, traced_run):
        run_dir, result, _stats = traced_run
        assert result.executed_total > 0
        assert (run_dir / TELEMETRY_RELPATH).exists()
        assert (run_dir / SPANS_RELPATH).exists()
        assert {"bytes_sent", "bytes_deduped"} <= set(result.summary())

    def test_artifacts_pass_the_ci_checker(self, traced_run):
        run_dir, _result, _stats = traced_run
        assert check_telemetry.check_telemetry_json(run_dir) == []
        assert check_telemetry.check_spans(run_dir) == []

    def test_span_stream_is_one_tree_rooted_at_experiment_run(self, traced_run):
        run_dir, _result, _stats = traced_run
        spans = load_spans(str(run_dir))
        traces = build_tree(spans)
        assert len(traces) == 1
        (roots,) = traces.values()
        assert [root.name for root in roots] == ["experiment.run"]
        names = {record["name"] for record in spans}
        assert "experiment.level" in names
        assert "scheduler.run" in names
        assert "task:experiment.task" in names

    def test_telemetry_json_carries_features_metrics_and_run(self, traced_run):
        run_dir, result, scheduler_stats = traced_run
        payload = json.loads(
            (run_dir / TELEMETRY_RELPATH).read_text(encoding="utf-8")
        )
        assert payload["features"] == ["metrics", "spans"]
        assert payload["run"]["executed_total"] == result.executed_total
        views = payload["metrics"]["views"]
        assert set(payload["metrics"]) == {"views"}
        assert views["scheduler"] == scheduler_stats.as_dict()
        assert views["scheduler"]["tasks"] == result.executed_total
        assert set(views["blobs"]) == set(default_blob_store().stats())
        assert payload["spans"]["path"] == SPANS_RELPATH

    def test_trace_report_cli_renders_the_phase_breakdown(self, traced_run, capsys):
        from repro.cli import main as cli_main

        run_dir, _result, _stats = traced_run
        assert cli_main(["trace", "report", str(run_dir)]) == 0
        output = capsys.readouterr().out
        assert "experiment.run" in output
        assert "trace " in output

    def test_checker_fails_on_missing_and_broken_artifacts(self, tmp_path):
        assert check_telemetry.check_telemetry_json(tmp_path)
        assert check_telemetry.check_spans(tmp_path)
        (tmp_path / "telemetry.json").write_text("{}", encoding="utf-8")
        failures = check_telemetry.check_telemetry_json(tmp_path)
        assert any("features" in failure for failure in failures)
        stream = tmp_path / SPANS_RELPATH
        stream.parent.mkdir(parents=True)
        stream.write_text(
            json.dumps(_span_record("a", "gone", "task:x")) + "\n", encoding="utf-8"
        )
        failures = check_telemetry.check_spans(tmp_path)
        assert any("orphan" in failure for failure in failures)
        assert any("experiment.run" in failure for failure in failures)
        assert any("no core.generate span" in failure for failure in failures)
        assert any("no core.detect_pass span" in failure for failure in failures)
        # Stage spans present but one generate stage is missing, and the
        # detect pass runs outside any task.
        records = [
            _span_record("g-mwm", "gen", "core.mwm"),
            _span_record("g-elig", "gen", "core.eligibility"),
            _span_record("gen", "task", "core.generate"),
            _span_record("task", "root", "task:experiment.task"),
            _span_record("pass", "root", "core.detect_pass"),
            _span_record("root", None, "experiment.run"),
        ]
        stream.write_text(
            "".join(json.dumps(record) + "\n" for record in records), encoding="utf-8"
        )
        failures = check_telemetry.check_spans(tmp_path)
        assert failures == [
            f"{stream}: a core.detect_pass span is not under a task span",
            f"{stream}: core.generate holds stages ['core.mwm', 'core.eligibility'], "
            "wanted ['core.histogram', 'core.eligibility', 'core.mwm', "
            "'core.knapsack', 'core.modification', 'core.transform'] in order "
            "(histogram and transform only for token input)",
        ]
        summary = {"executed_total": 3, "bytes_sent": 100, "bytes_deduped": 0}
        payload = {"features": ["metrics"], "run": summary, "metrics": {}}
        (tmp_path / "telemetry.json").write_text(json.dumps(payload), encoding="utf-8")
        failures = check_telemetry.check_telemetry_json(tmp_path)
        assert any("views" in failure for failure in failures)
        payload["metrics"] = {"views": {"scheduler": dict(summary, bytes_sent=64)}}
        (tmp_path / "telemetry.json").write_text(json.dumps(payload), encoding="utf-8")
        failures = check_telemetry.check_telemetry_json(tmp_path)
        assert failures == [
            f"{tmp_path / 'telemetry.json'}: views.scheduler.bytes_sent is 64 "
            "but the run summary says 100"
        ]


# --------------------------------------------------------------------------- #
# Tail-aware benchmark helpers
# --------------------------------------------------------------------------- #


class TestPercentile:
    def test_nearest_rank_returns_observed_values(self):
        values = [5.0, 1.0, 3.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 0.5) == 3.0
        assert percentile(values, 0.95) == 5.0
        assert percentile(values, 1.0) == 5.0

    def test_single_sample_is_every_percentile(self):
        assert percentile([2.5], 0.5) == 2.5
        assert percentile([2.5], 0.95) == 2.5

    def test_invalid_inputs_are_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            percentile([], 0.5)
        with pytest.raises(ValueError, match="fraction"):
            percentile([1.0], 1.5)
