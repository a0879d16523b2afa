"""Spans around the program's public calls, installed from outside it.

``install()`` wraps each layer entry point listed in ``TARGETS`` and puts
the wrapper at every name a caller looks it up by: the class attribute
for methods, and every ``repro.*`` module global bound to the original
function (modules import functions by name). Spans live in memory and
are written as JSON lines when the process ends (``dump``).

A span is ``{id, parent, name, start, end, pid, ...attributes}``; the
parent is the innermost open span of the same thread or asyncio task.
Times are ``time.perf_counter()`` (CLOCK_MONOTONIC on Linux), so spans
of different processes on one host share a time axis.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import time
from typing import Callable, Dict, Iterable, List

_PARENT: contextvars.ContextVar = contextvars.ContextVar("perfbench_parent", default=None)


class Recorder:
    """Collects finished spans of this process in memory."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []
        self._ids = itertools.count(1)
        self.pid = os.getpid()
        #: While set, wrapped calls run unrecorded (the harness's own
        #: input building between timed ops).
        self.paused = False

    def add(self, name: str, start: float, end: float, **attributes: object) -> None:
        self.spans.append(
            {"id": next(self._ids), "parent": None, "name": name, "start": start,
             "end": end, "pid": self.pid, **attributes}
        )

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


RECORDER = Recorder()


def _finish(recorder, span_id, parent, name, start, annotate, args, kwargs, result, before, error):
    span = {"id": span_id, "parent": parent, "name": name, "start": start,
            "end": time.perf_counter(), "pid": recorder.pid}
    if error:
        span["error"] = True
    elif annotate is not None:
        span.update(annotate(args, kwargs, result, before))
    recorder.spans.append(span)


def _wrap(recorder: Recorder, name: str, func: Callable, annotate, prepare) -> Callable:
    if inspect.iscoroutinefunction(func):

        @functools.wraps(func)
        async def async_wrapper(*args, **kwargs):
            if recorder.paused:
                return await func(*args, **kwargs)
            before = prepare(args, kwargs) if prepare is not None else None
            span_id, parent = next(recorder._ids), _PARENT.get()
            token = _PARENT.set(span_id)
            start = time.perf_counter()
            result, error = None, True
            try:
                result = await func(*args, **kwargs)
                error = False
                return result
            finally:
                _PARENT.reset(token)
                _finish(recorder, span_id, parent, name, start, annotate, args, kwargs, result, before, error)

        return async_wrapper

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        if recorder.paused:
            return func(*args, **kwargs)
        before = prepare(args, kwargs) if prepare is not None else None
        span_id, parent = next(recorder._ids), _PARENT.get()
        token = _PARENT.set(span_id)
        start = time.perf_counter()
        result, error = None, True
        try:
            result = func(*args, **kwargs)
            error = False
            return result
        finally:
            _PARENT.reset(token)
            _finish(recorder, span_id, parent, name, start, annotate, args, kwargs, result, before, error)

    return wrapper


# --------------------------------------------------------------------- #
# Attributes recorded per call (after the call, outside its interval)
# --------------------------------------------------------------------- #


def _eligibility(args, kwargs, result, before):
    histogram = args[0]
    candidates = len(histogram) - len(kwargs.get("excluded_tokens") or ())
    if kwargs.get("max_candidates") is not None:
        candidates = min(candidates, kwargs["max_candidates"])
    return {"scanned": candidates * (candidates - 1) // 2, "eligible": len(result)}


def _mwm(args, kwargs, result, before):
    return {"edges": args[0].number_of_edges(), "matched": len(result)}


def _knapsack(args, kwargs, result, before):
    return {"candidates": len(args[1]), "kept": len(result.selected)}


def _object_id(args, kwargs, result, before):
    return {"obj": id(result)}


def _batch(args, kwargs, result, before):
    return {"batch": len(args[1]), "objs": [id(item) for item in args[1]]}


def _submit(args, kwargs, result, before):
    request = args[1]
    verb = type(request).__name__.replace("Request", "").lower()
    return {"verb": verb, "rid": getattr(request, "request_id", None)}


def _screen(args, kwargs, result, before):
    return {"candidates": len(result.rows), "active": result.active_secrets}


def _scheduler_before(args, kwargs):
    stats = args[0].stats
    return (stats.tasks, stats.bytes_sent, stats.bytes_deduped)


def _scheduler(args, kwargs, result, before):
    stats = args[0].stats
    return {
        "tasks": stats.tasks - before[0],
        "bytes_sent": stats.bytes_sent - before[1],
        "bytes_deduped": stats.bytes_deduped - before[2],
    }


#: (module, attribute, span name, attributes, pre-call hook)
TARGETS = [
    ("repro.core.generator", "WatermarkGenerator.generate", "core.generate", None, None),
    ("repro.core.histogram", "TokenHistogram.from_tokens", "core.histogram", None, None),
    ("repro.core.eligibility", "generate_eligible_pairs", "core.eligibility", _eligibility, None),
    ("repro.core.graph", "maximum_weight_matching", "core.mwm", _mwm, None),
    ("repro.core.knapsack", "select_within_budget", "core.knapsack", _knapsack, None),
    ("repro.core.modification", "apply_adjustments", "core.modification", None, None),
    ("repro.core.modification", "verify_alignment", "core.modification", None, None),
    ("repro.core.transform", "transform_dataset", "core.transform", None, None),
    ("repro.core.histogram", "TokenHistogram.from_counts", "core.from_counts", _object_id, None),
    ("repro.core.detector", "WatermarkDetector.detect_many", "core.detect_pass", _batch, None),
    ("repro.core.detector", "WatermarkDetector.__init__", "core.detector_build", None, None),
    ("repro.service.wire", "decode_request", "service.decode", None, None),
    ("repro.service.wire", "encode_line", "service.encode", None, None),
    ("repro.service.service", "DetectionService.submit", "service.submit", _submit, None),
    ("repro.dispute.vault", "SecretVault.__init__", "dispute.vault_open", None, None),
    ("repro.dispute.vault", "SecretVault.register", "dispute.register", None, None),
    ("repro.dispute.index", "CandidateIndex.screen", "dispute.screen", _screen, None),
    ("repro.core.batch", "detect_many_secrets", "dispute.confirm", None, None),
    ("repro.exec.remote", "RemoteScheduler.run", "exec.run", _scheduler, _scheduler_before),
    ("repro.exec.scheduler", "run_task", "exec.task", None, None),
]


def install(recorder: Recorder = RECORDER) -> None:
    """Wrap every target (once per process)."""
    for module_name, attribute, span_name, annotate, prepare in TARGETS:
        module = importlib.import_module(module_name)
        owner_name, _, member = attribute.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            raw = owner.__dict__[member]
            if isinstance(raw, classmethod):
                wrapped = classmethod(_wrap(recorder, span_name, raw.__func__, annotate, prepare))
            else:
                wrapped = _wrap(recorder, span_name, raw, annotate, prepare)
            setattr(owner, member, wrapped)
            continue
        original = getattr(module, member)
        wrapped = _wrap(recorder, span_name, original, annotate, prepare)
        for name, loaded in list(sys.modules.items()):
            if loaded is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, wrapped)


# --------------------------------------------------------------------- #
# Reading spans back
# --------------------------------------------------------------------- #


def load(path) -> List[Dict[str, object]]:
    try:
        with open(path, encoding="utf-8") as handle:
            return [json.loads(line) for line in handle if line.strip()]
    except FileNotFoundError:
        return []


def self_times(spans: Iterable[Dict[str, object]]) -> Dict[tuple, float]:
    """Seconds of each span not covered by its child spans, by (pid, id)."""
    spans = list(spans)
    children: Dict[tuple, List[tuple]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault((span["pid"], span["parent"]), []).append((span["start"], span["end"]))
    out = {}
    for span in spans:
        key = (span["pid"], span["id"])
        covered, cursor = 0.0, span["start"]
        for start, end in sorted(children.get(key, ())):
            start, end = max(start, cursor), min(end, span["end"])
            if end > start:
                covered += end - start
                cursor = end
        out[key] = (span["end"] - span["start"]) - covered
    return out

