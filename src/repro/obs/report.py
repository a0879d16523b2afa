"""Render a recorded span stream as a per-phase time breakdown.

``freqywm trace report RUN_DIR`` reads the ``telemetry/spans.jsonl``
JSON-lines file an experiment run (or any traced process) produced,
rebuilds the span tree, and prints where the wall-clock went: one
tree-indented line per span for small traces, plus an aggregated
per-span-name table (count, total, mean, max) that stays readable when
a run produced thousands of task spans. The same machinery backs the
programmatic API (:func:`load_spans`, :func:`build_tree`,
:func:`aggregate`) used by tests and ``tools/check_telemetry.py``.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Sequence

from repro.exceptions import ReproError

#: Where a run directory keeps its span stream.
SPANS_RELPATH = os.path.join("telemetry", "spans.jsonl")

#: Tree rendering stops expanding below this many spans.
TREE_LIMIT = 200


def load_spans(path: str) -> List[dict]:
    """Read one span dict per line from a JSON-lines file.

    ``path`` may be the spans file itself or a run directory containing
    ``telemetry/spans.jsonl``. Blank lines are skipped; an unreadable
    line raises :class:`ReproError` with its line number. A span is kept
    once per ``(trace, span)`` id: a worker task span lands in the
    worker's file and, shipped back on its result line, in the driver's,
    which is one file when both run in the same directory.
    """
    if os.path.isdir(path):
        path = os.path.join(path, SPANS_RELPATH)
    if not os.path.exists(path):
        raise ReproError(f"no span stream at {path}")
    spans = []
    seen = set()
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise ReproError(
                    f"{path}:{number}: invalid span JSON: {error}"
                ) from error
            if not isinstance(record, dict):
                raise ReproError(f"{path}:{number}: span is not an object")
            key = (str(record.get("trace")), str(record.get("span")))
            if key not in seen:
                seen.add(key)
                spans.append(record)
    return spans


class SpanNode:
    """One span plus its children in the reconstructed tree."""

    __slots__ = ("span", "children")

    def __init__(self, span: dict) -> None:
        self.span = span
        self.children: List["SpanNode"] = []

    @property
    def name(self) -> str:
        """The span's operation name."""
        return str(self.span.get("name", "?"))

    @property
    def duration(self) -> float:
        """The span's duration in seconds."""
        try:
            return float(self.span.get("duration", 0.0))
        except (TypeError, ValueError):
            return 0.0


def build_tree(spans: Sequence[dict]) -> Dict[str, List[SpanNode]]:
    """Group spans by trace id and parent each under its recorded parent.

    Returns ``{trace_id: [root nodes]}``. A span whose parent id never
    appears in the stream becomes a root of its trace — callers that
    want to *assert* stitching (the propagation tests) use
    :func:`orphan_spans` instead, which reports exactly those spans.
    Children are sorted by start time for a stable rendering.
    """
    nodes: Dict[str, SpanNode] = {}
    for span in spans:
        span_id = str(span.get("span"))
        nodes[span_id] = SpanNode(span)
    roots: Dict[str, List[SpanNode]] = {}
    for node in nodes.values():
        parent_id = node.span.get("parent")
        parent = nodes.get(str(parent_id)) if parent_id else None
        if parent is not None and parent is not node:
            parent.children.append(node)
        else:
            trace = str(node.span.get("trace", "?"))
            roots.setdefault(trace, []).append(node)
    for node in nodes.values():
        node.children.sort(key=lambda child: child.span.get("start", 0.0))
    for root_list in roots.values():
        root_list.sort(key=lambda child: child.span.get("start", 0.0))
    return roots


def orphan_spans(spans: Sequence[dict]) -> List[dict]:
    """Spans whose recorded parent id is absent from the stream."""
    known = {str(span.get("span")) for span in spans}
    orphans = []
    for span in spans:
        parent_id = span.get("parent")
        if parent_id and str(parent_id) not in known:
            orphans.append(span)
    return orphans


def aggregate(spans: Sequence[dict]) -> List[dict]:
    """Per-span-name totals: count, total/mean/max duration, errors.

    Sorted by total duration descending — the first row answers "where
    did the time go".
    """
    rows: Dict[str, dict] = {}
    for span in spans:
        name = str(span.get("name", "?"))
        try:
            duration = float(span.get("duration", 0.0))
        except (TypeError, ValueError):
            duration = 0.0
        row = rows.setdefault(
            name,
            {"name": name, "count": 0, "total": 0.0, "max": 0.0, "errors": 0},
        )
        row["count"] += 1
        row["total"] += duration
        row["max"] = max(row["max"], duration)
        if span.get("status") == "error":
            row["errors"] += 1
    output = []
    for row in rows.values():
        row["total"] = round(row["total"], 6)
        row["max"] = round(row["max"], 6)
        row["mean"] = round(row["total"] / row["count"], 6) if row["count"] else 0.0
        output.append(row)
    output.sort(key=lambda row: row["total"], reverse=True)
    return output


def _render_node(node: SpanNode, depth: int, lines: List[str]) -> None:
    indent = "  " * depth
    status = "" if node.span.get("status", "ok") == "ok" else " [ERROR]"
    lines.append(f"{indent}{node.name}  {node.duration * 1000:.1f}ms{status}")
    for child in node.children:
        _render_node(child, depth + 1, lines)


def render_report(spans: Sequence[dict], limit: Optional[int] = None) -> str:
    """The human-readable trace report for a span stream.

    Shows the aggregated per-name table always, and the full indented
    tree when the stream holds at most ``limit`` spans (default
    ``TREE_LIMIT``) — large runs get the table plus a per-trace summary
    line instead of thousands of tree rows.
    """
    if not spans:
        return "no spans recorded\n"
    cap = TREE_LIMIT if limit is None else limit
    lines: List[str] = []
    table = aggregate(spans)
    name_width = max(len(row["name"]) for row in table)
    name_width = max(name_width, len("span"))
    lines.append(
        f"{'span':<{name_width}}  {'count':>6}  {'total_s':>9}  "
        f"{'mean_s':>9}  {'max_s':>9}  {'errors':>6}"
    )
    for row in table:
        lines.append(
            f"{row['name']:<{name_width}}  {row['count']:>6}  "
            f"{row['total']:>9.3f}  {row['mean']:>9.3f}  "
            f"{row['max']:>9.3f}  {row['errors']:>6}"
        )
    orphans = orphan_spans(spans)
    traces = build_tree(spans)
    lines.append("")
    lines.append(
        f"{len(spans)} spans, {len(traces)} trace(s), {len(orphans)} orphan(s)"
    )
    if len(spans) <= cap:
        for trace_id, roots in sorted(traces.items()):
            lines.append("")
            lines.append(f"trace {trace_id}")
            for root in roots:
                _render_node(root, 1, lines)
    return "\n".join(lines) + "\n"


__all__ = [
    "SPANS_RELPATH",
    "TREE_LIMIT",
    "SpanNode",
    "aggregate",
    "build_tree",
    "load_spans",
    "orphan_spans",
    "render_report",
]
