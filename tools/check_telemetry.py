#!/usr/bin/env python
"""Validate the telemetry artifacts of an experiment run.

CI's telemetry job runs the bundled smoke spec with
``FREQYWM_TELEMETRY=spans,metrics`` and then points this checker at the
run directory (plus a captured ``freqywm stats`` exposition). The
checker fails (exit 1) unless:

* ``telemetry.json`` exists, parses, names only known features, and
  carries the run summary; with the ``metrics`` feature on it also
  carries ``metrics.views``, an object of stats groups (each an
  object), and a ``scheduler`` group among them must report the same
  ``bytes_sent`` / ``bytes_deduped`` as the run summary: both read the
  run's one scheduler;
* ``telemetry/spans.jsonl`` parses line by line, every span carries the
  documented schema (``docs/observability.md``), the stream stitches
  into **one** trace with **zero** orphans, and the tree is rooted at
  ``experiment.run`` with task spans beneath it;
* the paper's stages are timed inside the tasks: the stream holds
  ``core.generate`` spans (the embedding tasks) and ``core.detect_pass``
  spans (the detection tasks), each under a ``task:`` span, and every
  ``core.generate`` holds its stage spans in Algorithm I's order;
* the Prometheus text (``--prometheus FILE``, optional) is valid
  exposition-format 0.0.4: every sample parses, every metric is
  ``# TYPE``-declared before its samples, all names carry the
  ``freqywm_`` prefix, and histogram buckets are cumulative ending in
  ``+Inf``.

Usage::

    python tools/check_telemetry.py RUN_DIR [--prometheus FILE]
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path
from typing import Dict, List

REPO_SRC = Path(__file__).resolve().parent.parent / "src"
if str(REPO_SRC) not in sys.path:
    sys.path.insert(0, str(REPO_SRC))

from repro.obs.report import SPANS_RELPATH, build_tree, load_spans, orphan_spans  # noqa: E402
from repro.obs.trace import TELEMETRY_FEATURES  # noqa: E402

#: Keys every span record must carry (see docs/observability.md).
SPAN_KEYS = ("trace", "span", "parent", "name", "start", "duration", "status", "pid")

#: The stage spans of ``core.generate`` in order. Every run has the
#: required ones; histogram input (what an experiment embeds) has no
#: ``core.histogram`` or ``core.transform`` stage.
GENERATE_STAGES = (
    "core.histogram",
    "core.eligibility",
    "core.mwm",
    "core.knapsack",
    "core.modification",
    "core.transform",
)
REQUIRED_STAGES = GENERATE_STAGES[1:-1]

#: Scheduler counters both the run summary and ``views.scheduler`` carry.
RUN_SCHEDULER_KEYS = ("bytes_sent", "bytes_deduped")

#: One exposition sample: name, optional labels, value.
SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^}]*\})?"
    r" (?P<value>-?[0-9.eE+]+|NaN|[+-]Inf)$"
)

TYPE_RE = re.compile(r"^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram|summary|untyped)$")


def check_telemetry_json(run_dir: Path) -> List[str]:
    """Failures for the run's ``telemetry.json`` summary artifact."""
    failures: List[str] = []
    path = run_dir / "telemetry.json"
    if not path.exists():
        return [f"missing {path}"]
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        return [f"{path}: not valid JSON ({error})"]
    features = payload.get("features")
    if not isinstance(features, list) or not features:
        failures.append(f"{path}: no enabled features recorded")
        features = []
    unknown = sorted(set(features) - set(TELEMETRY_FEATURES))
    if unknown:
        failures.append(f"{path}: unknown features {unknown}")
    run = payload.get("run")
    if not isinstance(run, dict) or "executed_total" not in run:
        failures.append(f"{path}: missing run summary")
    if "metrics" in features:
        failures += _check_views(path, payload.get("metrics"), run)
    if "spans" in features and not isinstance(payload.get("spans"), dict):
        failures.append(f"{path}: spans feature on but no spans summary")
    return failures


def _check_views(path: Path, metrics: object, run: object) -> List[str]:
    """Failures for ``metrics``: stats groups agreeing with the run summary."""
    views = metrics.get("views") if isinstance(metrics, dict) else None
    if not isinstance(views, dict) or not all(
        isinstance(group, dict) for group in views.values()
    ):
        return [f"{path}: metrics feature on but no 'views' object of groups"]
    scheduler = views.get("scheduler")
    if not isinstance(scheduler, dict) or not isinstance(run, dict):
        return []
    return [
        f"{path}: views.scheduler.{key} is {scheduler.get(key)!r} but the "
        f"run summary says {run.get(key)!r}"
        for key in RUN_SCHEDULER_KEYS
        if scheduler.get(key) != run.get(key)
    ]


def check_spans(run_dir: Path) -> List[str]:
    """Failures for the run's span stream: schema, stitching, rooting."""
    path = run_dir / SPANS_RELPATH
    if not path.exists():
        return [f"missing {path}"]
    try:
        spans = load_spans(path)
    except Exception as error:  # surfaced as one failure, not a traceback
        return [f"{path}: {error}"]
    failures: List[str] = []
    if not spans:
        return [f"{path}: no spans recorded"]
    for index, span in enumerate(spans):
        missing = [key for key in SPAN_KEYS if key not in span]
        if missing:
            failures.append(f"{path}:{index + 1}: span missing keys {missing}")
            continue
        if span["status"] not in ("ok", "error"):
            failures.append(f"{path}:{index + 1}: bad status {span['status']!r}")
        if not isinstance(span["duration"], (int, float)) or span["duration"] < 0:
            failures.append(f"{path}:{index + 1}: bad duration {span['duration']!r}")
    traces = build_tree(spans)
    if len(traces) != 1:
        failures.append(f"{path}: {len(traces)} traces, wanted one stitched tree")
    orphans = orphan_spans(spans)
    if orphans:
        names = sorted({str(span["name"]) for span in orphans})
        failures.append(f"{path}: {len(orphans)} orphan span(s) ({names})")
    roots = [root for roots in traces.values() for root in roots]
    if not any(root.name == "experiment.run" for root in roots):
        failures.append(f"{path}: no experiment.run root span")
    if not any(str(span["name"]).startswith("task:") for span in spans):
        failures.append(f"{path}: no task spans recorded")
    return failures + _check_stage_spans(path, spans)


def _check_stage_spans(path: Path, spans: List[dict]) -> List[str]:
    """Failures for the paper-stage spans the run's tasks must record."""
    by_id = {span.get("span"): span for span in spans}

    def under_task(span: dict) -> bool:
        parent = by_id.get(span.get("parent"))
        while parent is not None:
            if str(parent.get("name")).startswith("task:"):
                return True
            parent = by_id.get(parent.get("parent"))
        return False

    failures: List[str] = []
    for name in ("core.generate", "core.detect_pass"):
        found = [span for span in spans if span.get("name") == name]
        if not found:
            failures.append(f"{path}: no {name} span recorded")
        elif not all(under_task(span) for span in found):
            failures.append(f"{path}: a {name} span is not under a task span")
    for generate in (span for span in spans if span.get("name") == "core.generate"):
        # Spans are written as they finish, so sequential stages keep
        # their order in the stream.
        stages = [
            str(span.get("name")) for span in spans
            if span.get("parent") == generate.get("span")
        ]
        in_order = [name for name in GENERATE_STAGES if name in stages]
        if stages != in_order or not set(REQUIRED_STAGES) <= set(stages):
            failures.append(
                f"{path}: core.generate holds stages {stages}, wanted "
                f"{list(GENERATE_STAGES)} in order (histogram and transform "
                "only for token input)"
            )
    return failures


def check_prometheus(text: str, source: str = "exposition") -> List[str]:
    """Failures for a Prometheus text-format 0.0.4 exposition."""
    failures: List[str] = []
    if not text.strip():
        return [f"{source}: empty exposition"]
    if not text.endswith("\n"):
        failures.append(f"{source}: exposition must end with a newline")
    declared: Dict[str, str] = {}
    buckets: Dict[str, List[str]] = {}
    for number, line in enumerate(text.splitlines(), start=1):
        if not line or line.startswith("# HELP"):
            continue
        if line.startswith("#"):
            match = TYPE_RE.match(line)
            if match is None:
                failures.append(f"{source}:{number}: malformed comment {line!r}")
            else:
                declared[match.group(1)] = match.group(2)
            continue
        match = SAMPLE_RE.match(line)
        if match is None:
            failures.append(f"{source}:{number}: unparseable sample {line!r}")
            continue
        name = match.group("name")
        if not name.startswith("freqywm_"):
            failures.append(f"{source}:{number}: {name} lacks freqywm_ prefix")
        base = re.sub(r"_(bucket|sum|count)$", "", name)
        if name not in declared and base not in declared:
            failures.append(f"{source}:{number}: {name} has no # TYPE line")
        if name.endswith("_bucket") and match.group("labels"):
            label_match = re.search(r'le="([^"]*)"', match.group("labels"))
            if label_match is not None:
                buckets.setdefault(base, []).append(label_match.group(1))
    for base, bounds in buckets.items():
        if bounds[-1] != "+Inf":
            failures.append(f"{source}: histogram {base} does not end at +Inf")
    return failures


def main(argv=None) -> int:
    """Entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "run_dir", type=Path, help="run directory written with telemetry on"
    )
    parser.add_argument(
        "--prometheus",
        type=Path,
        default=None,
        metavar="FILE",
        help="a captured `freqywm stats` exposition to validate too",
    )
    args = parser.parse_args(argv)

    failures = check_telemetry_json(args.run_dir)
    failures += check_spans(args.run_dir)
    if args.prometheus is not None:
        failures += check_prometheus(
            args.prometheus.read_text(encoding="utf-8"), str(args.prometheus)
        )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        print(f"{len(failures)} telemetry failure(s)", file=sys.stderr)
        return 1
    checked = "telemetry.json + spans"
    if args.prometheus is not None:
        checked += " + prometheus exposition"
    print(f"telemetry artifacts valid ({checked})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
