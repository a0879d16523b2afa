"""Per-layer metrics of a traced run, computed from spans.

Every workload reports every metric below; a layer the workload does
not pass through reads 0 (no calls, no time). Times of a call are
medians per call unless noted; the generation stages are means per
generate op, so that the stage self times plus
``core.generate.unattributed_ms`` add up to ``core.generate_ms``.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Sequence

from common import median
from tracing import self_times

PER_LAYER = [
    ("core.generate_ms", "ms"),
    ("core.histogram_ms", "ms"),
    ("core.eligibility_ms", "ms"),
    ("core.eligibility.pairs_scanned", "count"),
    ("core.eligibility.pairs_eligible", "count"),
    ("core.eligibility.ns_per_pair", "ns"),
    ("core.mwm_ms", "ms"),
    ("core.mwm.edges", "count"),
    ("core.mwm.matched", "count"),
    ("core.knapsack_ms", "ms"),
    ("core.knapsack.kept_ratio", "ratio"),
    ("core.modification_ms", "ms"),
    ("core.transform_ms", "ms"),
    ("core.generate.unattributed_ms", "ms"),
    ("core.from_counts_ms", "ms"),
    ("core.detect_pass_ms", "ms"),
    ("core.detect_pass.batch", "count"),
    ("core.detector_build_ms", "ms"),
    ("core.detector_build.count", "count"),
    ("service.decode_us", "us"),
    ("service.encode_us", "us"),
    ("service.client_encode_us", "us"),
    ("service.client_decode_us", "us"),
    ("service.request_bytes", "bytes"),
    ("service.submit_ms.detect", "ms"),
    ("service.submit_ms.attribute", "ms"),
    ("service.submit_ms.register", "ms"),
    ("service.batch_wait_ms", "ms"),
    ("service.outside_submit_ms", "ms"),
    ("service.mean_batch_size", "count"),
    ("service.failures", "count"),
    ("core.cache_hit_rate", "ratio"),
    ("dispute.vault_open_s", "s"),
    ("dispute.register_ms", "ms"),
    ("dispute.screen_ms", "ms"),
    ("dispute.candidate_ratio", "ratio"),
    ("dispute.confirm_ms", "ms"),
    ("exec.run_ms", "ms"),
    ("exec.task_ms", "ms"),
    ("exec.task_wait_ms", "ms"),
    ("exec.bytes_sent", "bytes"),
    ("exec.bytes_deduped", "bytes"),
    ("exec.dedup_ratio", "ratio"),
    ("exec.retries", "count"),
    ("exec.worker_ready_s", "s"),
    ("cli.import_s", "s"),
]

_STAGES = {
    "core.histogram": "core.histogram_ms",
    "core.eligibility": "core.eligibility_ms",
    "core.mwm": "core.mwm_ms",
    "core.knapsack": "core.knapsack_ms",
    "core.modification": "core.modification_ms",
    "core.transform": "core.transform_ms",
}


def _med(values: Sequence[float], scale: float = 1.0) -> float:
    return median(values) * scale if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def compute(
    spans: List[Dict[str, object]],
    since: float,
    extras: Optional[Dict[str, float]] = None,
    client: Optional[Dict[str, Dict[str, float]]] = None,
) -> Dict[str, tuple]:
    """Per-layer metrics from every process's spans.

    ``since`` drops spans that started before the timed phase, except
    the start-up spans (``cli.import``, ``dispute.vault_open``).
    ``extras`` holds values measured by the harness itself; ``client``
    maps ``"<burst>:<request id>"`` of each detect to its client-side
    ``latency`` (own send to answer) and response ``decode`` seconds.
    """
    startup = [s for s in spans if s["name"] in ("cli.import", "dispute.vault_open")]
    spans = [s for s in spans if s["start"] >= since and s["name"] not in ("cli.import", "dispute.vault_open")]
    own = self_times(spans)
    by_name: Dict[str, List[dict]] = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)

    def selfs(name: str) -> List[float]:
        return [own[(s["pid"], s["id"])] for s in by_name[name]]

    def durations(name: str) -> List[float]:
        return [s["end"] - s["start"] for s in by_name[name]]

    values: Dict[str, float] = {name: 0.0 for name, _unit in PER_LAYER}

    # core generation: means per generate op
    ops = len(by_name["core.generate"])
    if ops:
        values["core.generate_ms"] = sum(durations("core.generate")) / ops * 1e3
        values["core.generate.unattributed_ms"] = sum(selfs("core.generate")) / ops * 1e3
        for span_name, metric in _STAGES.items():
            values[metric] = sum(selfs(span_name)) / ops * 1e3
        scanned = sum(s["scanned"] for s in by_name["core.eligibility"])
        values["core.eligibility.pairs_scanned"] = scanned / ops
        values["core.eligibility.pairs_eligible"] = sum(s["eligible"] for s in by_name["core.eligibility"]) / ops
        values["core.eligibility.ns_per_pair"] = _ratio(sum(selfs("core.eligibility")) * 1e9, scanned)
        values["core.mwm.edges"] = sum(s["edges"] for s in by_name["core.mwm"]) / ops
        values["core.mwm.matched"] = sum(s["matched"] for s in by_name["core.mwm"]) / ops
        values["core.knapsack.kept_ratio"] = _ratio(
            sum(s["kept"] for s in by_name["core.knapsack"]),
            sum(s["candidates"] for s in by_name["core.knapsack"]),
        )

    # core detection
    values["core.from_counts_ms"] = _med(selfs("core.from_counts"), 1e3)
    values["core.detect_pass_ms"] = _med(selfs("core.detect_pass"), 1e3)
    passes = by_name["core.detect_pass"]
    values["core.detect_pass.batch"] = _ratio(sum(s["batch"] for s in passes), len(passes))
    values["core.detector_build_ms"] = _med(selfs("core.detector_build"), 1e3)
    values["core.detector_build.count"] = float(len(by_name["core.detector_build"]))

    # service
    values["service.decode_us"] = _med(selfs("service.decode"), 1e6)
    values["service.encode_us"] = _med(selfs("service.encode"), 1e6)
    submits: Dict[str, List[dict]] = defaultdict(list)
    for span in by_name["service.submit"]:
        submits[span["verb"]].append(span)
    for verb in ("detect", "attribute", "register"):
        values[f"service.submit_ms.{verb}"] = _med([s["end"] - s["start"] for s in submits[verb]], 1e3)
    values.update(_batch_wait(submits["detect"], by_name, client or {}))

    # dispute
    values["dispute.vault_open_s"] = _med([s["end"] - s["start"] for s in startup if s["name"] == "dispute.vault_open"])
    values["dispute.register_ms"] = _med(selfs("dispute.register"), 1e3)
    values["dispute.screen_ms"] = _med(selfs("dispute.screen"), 1e3)
    screens = by_name["dispute.screen"]
    values["dispute.candidate_ratio"] = _ratio(sum(s["candidates"] for s in screens), sum(s["active"] for s in screens))
    values["dispute.confirm_ms"] = _med(selfs("dispute.confirm"), 1e3)

    # exec
    values.update(_exec(by_name["exec.run"], by_name["exec.task"]))

    # cli
    values["cli.import_s"] = _med([s["end"] - s["start"] for s in startup if s["name"] == "cli.import"])

    values.update(extras or {})
    return {name: (values[name], unit) for name, unit in PER_LAYER}


def _batch_wait(detects, by_name, client) -> Dict[str, float]:
    """Per detect request: time in submit outside histogram building and
    its batch's pass, and client latency outside submit and the client's
    response decode (request lines are encoded before they are sent)."""
    built = {}
    for span in by_name["core.from_counts"]:
        if span["parent"] is not None:
            built[(span["pid"], span["parent"])] = span
    served: Dict[tuple, List[dict]] = defaultdict(list)
    for span in sorted(by_name["core.detect_pass"], key=lambda s: s["start"]):
        for obj in span["objs"]:
            served[(span["pid"], obj)].append(span)
    waits, outside = [], []
    # Request ids repeat in every burst; the n-th submit of an id (in
    # time order) belongs to burst n, which is how the client keys them.
    seen: Dict[str, int] = defaultdict(int)
    for submit in sorted(detects, key=lambda s: s["start"]):
        burst = seen[submit["rid"]]
        seen[submit["rid"]] += 1
        histogram = built.get((submit["pid"], submit["id"]))
        if histogram is None:
            continue
        serving = next(
            (p for p in served[(submit["pid"], histogram["obj"])] if p["start"] >= histogram["end"]),
            None,
        )
        if serving is None:
            continue
        duration = submit["end"] - submit["start"]
        waits.append(duration - (histogram["end"] - histogram["start"]) - (serving["end"] - serving["start"]))
        observed = client.get(f"{burst}:{submit['rid']}")
        if observed is not None:
            outside.append(observed["latency"] - duration - observed["decode"])
    return {
        "service.batch_wait_ms": _med(waits, 1e3),
        "service.outside_submit_ms": _med(outside, 1e3),
    }


def _exec(runs, tasks) -> Dict[str, float]:
    """Scheduler runs in the calling process joined to worker task spans by time."""
    run_ms, wait_ms, sent, deduped, scheduled = [], [], [], [], 0
    ordered = sorted(tasks, key=lambda s: s["start"])
    for run in runs:
        inside = [t for t in ordered if t["start"] >= run["start"] and t["end"] <= run["end"]]
        busy: Dict[int, float] = defaultdict(float)
        for task in inside:
            busy[task["pid"]] += task["end"] - task["start"]
        duration = run["end"] - run["start"]
        run_ms.append(duration)
        wait_ms.append(duration - max(busy.values(), default=0.0))
        sent.append(run["bytes_sent"])
        deduped.append(run["bytes_deduped"])
        scheduled += run["tasks"]
    return {
        "exec.run_ms": _med(run_ms, 1e3),
        "exec.task_ms": _med([t["end"] - t["start"] for t in tasks], 1e3),
        "exec.task_wait_ms": _med(wait_ms, 1e3),
        "exec.bytes_sent": _med(sent),
        "exec.bytes_deduped": _med(deduped),
        "exec.dedup_ratio": _ratio(sum(deduped), sum(sent) + sum(deduped)),
        "exec.retries": float(max(0, len(tasks) - scheduled)) if runs else 0.0,
    }
