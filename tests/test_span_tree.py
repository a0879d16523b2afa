"""The span tree a traced run records: names, parentage and attributes.

Each layer of the program times itself with ``repro.obs`` spans under a
fixed name (``docs/observability.md`` lists them). Readers of a trace
(``freqywm trace report``, ``tools/check_telemetry.py``, the benchmark's
per-layer metrics) find a layer by that name, so a renamed span, or a
refactor that bypasses one, must fail here instead of silently reading
as zero time.
"""

from __future__ import annotations

import asyncio
import io
import os

import pytest

import scheduler_tasks
from repro.attacks.evaluation import RobustnessEvaluator
from repro.core.batch import detect_many
from repro.core.config import GenerationConfig
from repro.core.eligibility import EligibilityContext
import repro.core.generator as generator_module
from repro.core.generator import WatermarkGenerator
from repro.core.histogram import TokenHistogram
from repro.core.secrets import WatermarkSecret
from repro.core.tokens import CodedTokens
from repro.datasets.synthetic import generate_power_law_tokens
from repro.dispute.vault import SecretVault
from repro.exec.policy import ExecutionPolicy
from repro.obs.report import orphan_spans
from repro.obs.trace import configure_telemetry, span, tracer
from repro.service import DetectionService, SyncDetectionService, serve_stdio
from repro.service.wire import (
    AttributeRequest,
    DetectRequest,
    RegisterRequest,
    encode_line,
)

#: The stage spans of one ``core.generate``, in Algorithm I's order.
GENERATE_STAGES = [
    "core.histogram",
    "core.eligibility",
    "core.mwm",
    "core.knapsack",
    "core.modification",
    "core.transform",
]


@pytest.fixture(scope="module")
def tokens():
    return generate_power_law_tokens(0.7, n_tokens=60, sample_size=8_000, rng=5)


@pytest.fixture(scope="module")
def watermark(tokens):
    return WatermarkGenerator(GenerationConfig(modulus_cap=31), rng=7).generate(tokens)


@pytest.fixture()
def recorded():
    """Record spans in this process; call the fixture to drain them."""
    configure_telemetry("spans")
    tracer().reset()
    yield lambda: tracer().drain()
    configure_telemetry(None)
    tracer().reset()


def _named(spans, name):
    return [record for record in spans if record["name"] == name]


def _children(spans, parent):
    """The children of ``parent``; spans are buffered as they finish, so
    sequential siblings keep their order."""
    return [record for record in spans if record["parent"] == parent["span"]]


def test_generate_holds_the_six_stage_spans_in_order(recorded, tokens):
    result = WatermarkGenerator(GenerationConfig(modulus_cap=31), rng=7).generate(tokens)
    spans = recorded()
    (generate,) = _named(spans, "core.generate")
    assert generate["parent"] is None
    stages = _children(spans, generate)
    assert [stage["name"] for stage in stages] == GENERATE_STAGES
    assert len(spans) == 1 + len(GENERATE_STAGES)
    attrs = {stage["name"]: stage.get("attrs", {}) for stage in stages}
    # Scanned pairs are those of the candidate tokens the scan reads.
    candidates = len(EligibilityContext.build(result.original_histogram).candidate_indices)
    eligible = len(result.eligible_pairs)
    matched = result.selection.matched_count
    assert attrs["core.eligibility"] == {
        "scanned": candidates * (candidates - 1) // 2,
        "eligible": eligible,
    }
    assert attrs["core.mwm"] == {"edges": eligible, "matched": matched}
    assert attrs["core.knapsack"] == {"candidates": matched, "kept": result.pair_count}
    assert all(span["pid"] == os.getpid() for span in spans)


def test_token_generate_reads_its_dataset_once_inside_the_histogram_call(
    monkeypatch, tokens
):
    # The benchmark times the histogram and transform stages by wrapping
    # ``TokenHistogram.from_tokens`` and the generator module's
    # ``transform_dataset`` from outside. Each must be called once per
    # token-input generate, and the dataset's one coded read must happen
    # inside the first, or a stage's time moves and its metric reads 0.
    calls = []
    count_tokens = TokenHistogram.from_tokens.__func__
    edit = generator_module.transform_dataset
    read = CodedTokens.coded

    def spy_count(cls, data):
        calls.append(("from_tokens", None))
        histogram = count_tokens(cls, data)
        calls.append(("from_tokens returned", None))
        return histogram

    def spy_edit(*args, **kwargs):
        calls.append(("transform_dataset", None))
        return edit(*args, **kwargs)

    def spy_read(self):
        coded = read(self)
        calls.append(("coded", id(coded)))
        return coded

    monkeypatch.setattr(TokenHistogram, "from_tokens", classmethod(spy_count))
    monkeypatch.setattr(generator_module, "transform_dataset", spy_edit)
    monkeypatch.setattr(CodedTokens, "coded", spy_read)
    result = WatermarkGenerator(GenerationConfig(modulus_cap=31), rng=7).generate(tokens)

    names = [name for name, _ in calls]
    assert names.count("from_tokens") == 1
    assert names.count("transform_dataset") == 1
    start, end = names.index("from_tokens"), names.index("from_tokens returned")
    assert start < names.index("coded") < end < names.index("transform_dataset")
    # Every later use finds the same read.
    assert len({identity for name, identity in calls if name == "coded"}) == 1
    assert result.watermarked_tokens is not None


def test_service_verbs_hold_their_layer_spans(recorded, watermark, tmp_path):
    counts = watermark.watermarked_histogram.as_dict()
    secret = watermark.secret.to_dict()
    tokens = watermark.watermarked_histogram.tokens
    early = WatermarkSecret.build(
        [(tokens[index], tokens[index + 1]) for index in range(0, 20, 2)], 12345, 31
    )
    SecretVault(tmp_path / "vault").register("early", early)
    recorded()  # the reopen below is what this test traces
    vault = SecretVault(tmp_path / "vault")
    with SyncDetectionService(registry=vault) as service:
        detect = service.submit(DetectRequest(request_id="d", counts=counts, secret=secret))
        register = service.submit(
            RegisterRequest(request_id="r", buyer_id="acme", secret=secret)
        )
        attributes = [
            service.submit(AttributeRequest(request_id=f"a{index}", counts=counts))
            for index in range(2)
        ]
    assert detect.ok and detect.accepted
    assert register.ok
    for attribute in attributes:
        assert attribute.ok and [buyer for buyer, _ in attribute.matches] == ["acme"]
    spans = recorded()
    assert orphan_spans(spans) == []

    # Replaying the ledger builds no index.
    (vault_open,) = _named(spans, "dispute.vault_open")
    assert vault_open["parent"] is None
    assert _children(spans, vault_open) == []

    (detect_span,) = _named(spans, "service.detect")
    assert [child["name"] for child in _children(spans, detect_span)] == [
        "core.detector_build",
        "core.detect_pass",
    ]
    # The request's own pass, over its one suspect.
    (detect_pass,) = _named(spans, "core.detect_pass")
    assert detect_pass["parent"] == detect_span["span"]
    assert detect_pass["attrs"] == {"batch": 1}

    (register_span,) = _named(spans, "service.register")
    assert [child["name"] for child in _children(spans, register_span)] == [
        "dispute.register"
    ]

    first, second = _named(spans, "service.attribute")
    screen, confirm = _children(spans, first)
    assert [screen["name"], confirm["name"]] == ["dispute.screen", "dispute.confirm"]
    assert screen["attrs"] == {"candidates": 1, "active": 2}
    # The first screen builds the index from both active secrets; the
    # second finds it built.
    (build,) = _children(spans, screen)
    assert build["name"] == "dispute.index_build"
    assert build["attrs"] == {"secrets": 2}
    screen, confirm = _children(spans, second)
    assert [screen["name"], confirm["name"]] == ["dispute.screen", "dispute.confirm"]
    assert _children(spans, screen) == []
    assert len(_named(spans, "dispute.index_build")) == 1


@pytest.fixture()
def two_workers(tmp_path):
    sock_a = tmp_path / "worker-a.sock"
    sock_b = tmp_path / "worker-b.sock"
    with scheduler_tasks.spawn_worker(sock_a):
        with scheduler_tasks.spawn_worker(sock_b):
            yield (f"unix:{sock_a}", f"unix:{sock_b}")


def test_remote_detect_many_records_detect_passes_in_the_workers(
    recorded, watermark, two_workers
):
    suspects = [watermark.watermarked_histogram.as_dict()] * 6
    policy = ExecutionPolicy(scheduler="remote", addresses=two_workers, chunk_size=2)
    with span("test.sweep"):
        report = detect_many(suspects, watermark.secret, policy=policy)
    assert all(report.accepted_flags)
    spans = recorded()
    assert orphan_spans(spans) == []
    assert len({record["trace"] for record in spans}) == 1

    (run,) = _named(spans, "scheduler.run")
    tasks = _named(spans, "task:detect.counts")
    assert len(tasks) == 3
    passes = []
    for task in tasks:
        assert task["parent"] == run["span"]
        assert task["pid"] != os.getpid()
        (detect_pass,) = [
            child for child in _children(spans, task) if child["name"] == "core.detect_pass"
        ]
        # Recorded in the worker although the worker enabled no telemetry:
        # it nests in the task span the dispatching trace asked for.
        assert detect_pass["pid"] == task["pid"]
        passes.append(detect_pass["attrs"]["batch"])
    assert passes == [2, 2, 2]
    assert len(_named(spans, "core.detect_pass")) == len(tasks)
    # The run loop encodes the task lines inside scheduler.run.
    encodes = _named(spans, "service.encode")
    assert len(encodes) >= len(tasks)
    assert all(encode["parent"] == run["span"] for encode in encodes)


def test_the_wire_transport_spans_decode_verb_and_encode(recorded, watermark):
    line = encode_line(
        DetectRequest(
            request_id="w",
            counts=watermark.watermarked_histogram.as_dict(),
            secret=watermark.secret.to_dict(),
        )
    )
    recorded()  # drop the span of encoding the request above
    out = io.StringIO()

    async def serve():
        async with DetectionService() as service:
            await serve_stdio(service, io.StringIO(line + "\n"), out)

    asyncio.run(serve())
    assert '"accepted":true' in out.getvalue()
    spans = recorded()
    roots = [record["name"] for record in spans if record["parent"] is None]
    assert roots == ["service.request"]
    (request,) = [record for record in spans if record["name"] == "service.request"]
    children = [record for record in spans if record["parent"] == request["span"]]
    assert [child["name"] for child in children] == [
        "service.decode",
        "service.detect",
        "service.encode",
    ]
    (detect,) = _named(spans, "service.detect")
    assert [child["name"] for child in _children(spans, detect)] == [
        "core.detector_build",
        "core.detect_pass",
    ]
    assert _named(spans, "core.detect_pass")[0]["attrs"] == {"batch": 1}
    assert {record["trace"] for record in spans} == {request["trace"]}


def test_evaluation_records_one_span_per_attack_family_in_order(
    recorded, skewed_histogram
):
    RobustnessEvaluator(GenerationConfig(budget_percent=2.0, modulus_cap=61), rng=5).evaluate(
        skewed_histogram,
        sampling_fractions=(0.5,),
        sampling_thresholds=(0,),
        destroy_thresholds=(0,),
        reordering_percents=(10,),
        repetitions=1,
    )
    families = [
        record for record in recorded() if record["name"].startswith("robustness.")
    ]
    assert [family["name"] for family in families] == [
        "robustness.sampling",
        "robustness.destroy-no-attack",
        "robustness.destroy-random-within-bounds",
        "robustness.destroy-percentage-within-bounds",
        "robustness.destroy-reordering",
        "robustness.rewatermark",
    ]
    assert all(family["parent"] is None for family in families)
