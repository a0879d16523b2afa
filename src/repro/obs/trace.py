"""Hierarchical trace spans with cross-process stitching.

One :class:`Tracer` per process produces **spans** — named, timed
segments with a ``trace_id`` shared by every span of one logical
request, a unique ``span_id``, and a ``parent_id`` linking the segment
to whatever enclosed it. The ambient parent travels in a
:class:`contextvars.ContextVar`, so nested ``with span(...)`` blocks
stitch themselves without threading ids through call signatures, and a
*remote* parent (a scheduler client two processes away) is injected
explicitly via the ``parent=`` override — that is how a
``freqywm worker`` task span ends up under the experiment level span
that dispatched it.

Three properties keep the tracer honest about its costs:

* **off means off** — when no span would record (the ``spans``
  feature is off, no parent context is passed and no recording span
  encloses the call), :func:`span` returns one shared no-op context
  manager: no id generation, no clock reads, no allocation. A span
  opened inside a recording span records too, so a worker that records
  a dispatched task also records the stages that task runs.
* **bounded buffering** — finished spans land in a fixed-size ring
  buffer (:data:`SPAN_BUFFER_CAP`); overflow drops the *oldest* span
  and counts the loss instead of growing without bound. Worker
  processes :func:`drain` their buffer after every task and ship the
  spans back with the result, so a worker crash can never lose more
  than the crashing task's own spans.
* **JSON-lines sink** — a configured sink file receives each span as
  one JSON line the moment it finishes (flushed), so a killed parent
  still leaves every completed span on disk for
  ``freqywm trace report``.

Enablement comes from ``FREQYWM_TELEMETRY`` (a comma list out of
``spans``, ``metrics``, ``profile``) or an explicit
:func:`configure_telemetry` call; see ``docs/observability.md``.
"""

from __future__ import annotations

import contextvars
import json
import os
import threading
import time
import uuid
from typing import IO, Dict, Iterable, List, Optional, Tuple, Union

from repro.exceptions import ConfigurationError

#: Environment variable naming the enabled telemetry features.
TELEMETRY_ENV = "FREQYWM_TELEMETRY"

#: The features ``FREQYWM_TELEMETRY`` may name.
TELEMETRY_FEATURES = ("spans", "metrics", "profile")

#: Finished spans kept in the in-memory ring buffer before the oldest
#: is dropped (and counted). Sized for the largest realistic burst one
#: drain interval produces — an experiment level is hundreds of tasks,
#: not thousands of spans per task.
SPAN_BUFFER_CAP = 4096

#: A propagated trace context: ``(trace_id, parent_span_id)``.
TraceContext = Tuple[str, str]


def parse_telemetry(value: Optional[str]) -> frozenset:
    """Parse a ``FREQYWM_TELEMETRY``-style comma list into a feature set.

    ``None``/empty/``"off"`` mean no telemetry; ``"all"`` enables every
    feature; unknown names raise :class:`ConfigurationError` so a typo
    cannot silently disable the instrumentation someone asked for.
    """
    if value is None:
        return frozenset()
    names = [name.strip().lower() for name in value.split(",") if name.strip()]
    if not names or names == ["off"]:
        return frozenset()
    if "all" in names:
        return frozenset(TELEMETRY_FEATURES)
    unknown = sorted(set(names) - set(TELEMETRY_FEATURES))
    if unknown:
        raise ConfigurationError(
            f"unknown telemetry feature(s) {unknown} "
            f"(valid: {', '.join(TELEMETRY_FEATURES)}, or 'all'/'off')"
        )
    return frozenset(names)


_FEATURES: frozenset = frozenset()
_ENV_LOADED = False


def configure_telemetry(features: Union[str, Iterable[str], None]) -> frozenset:
    """Set the enabled telemetry features for this process explicitly.

    Accepts a comma string (CLI/policy form) or an iterable of feature
    names; returns the resulting feature set. Passing ``None`` disables
    everything. Overrides whatever the environment said.
    """
    global _FEATURES, _ENV_LOADED
    if features is None or isinstance(features, str):
        parsed = parse_telemetry(features)
    else:
        parsed = parse_telemetry(",".join(features))
    _FEATURES = parsed
    _ENV_LOADED = True
    return _FEATURES


def enabled_features() -> frozenset:
    """The enabled telemetry features (environment read once, lazily)."""
    global _ENV_LOADED, _FEATURES
    if not _ENV_LOADED:
        _FEATURES = parse_telemetry(os.environ.get(TELEMETRY_ENV))
        _ENV_LOADED = True
    return _FEATURES


def spans_active() -> bool:
    """Whether span recording is enabled in this process."""
    return "spans" in enabled_features()


def metrics_active() -> bool:
    """Whether run artifacts carry stats groups (``telemetry.json``)."""
    return "metrics" in enabled_features()


def profile_active() -> bool:
    """Whether the slow-task profiler is enabled in this process."""
    return "profile" in enabled_features()


def _new_id(nbytes: int) -> str:
    """A random lowercase-hex identifier of ``2 * nbytes`` characters."""
    return uuid.uuid4().hex[: 2 * nbytes]


class _NoopSpan:
    """The shared do-nothing span handed out while no span would record.

    It is its own context manager, so a ``with span(...)`` block that
    records nothing allocates nothing.
    """

    __slots__ = ()

    #: Attributes set on this span are dropped; callers skip computing them.
    recording = False

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *_exc_info: object) -> None:
        return None

    def set_attribute(self, _name: str, _value: object) -> None:
        """Ignore the attribute (nothing records)."""

    @property
    def context(self) -> None:
        """No context to propagate (nothing records)."""
        return None


_NOOP_SPAN = _NoopSpan()

_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "repro_obs_current_span", default=None
)


class ActiveSpan:
    """One recording span: the context manager of its ``with`` block.

    Attributes stay mutable until the block exits; the exit records the
    finished span on its tracer.
    """

    __slots__ = (
        "trace_id", "span_id", "parent_id", "name", "attrs",
        "_tracer", "_token", "_start", "_wall",
    )

    #: Attributes set on this span are kept.
    recording = True

    def __init__(
        self,
        tracer: "Tracer",
        trace_id: str,
        span_id: str,
        parent_id: Optional[str],
        name: str,
        attrs: Dict[str, object],
    ) -> None:
        self._tracer = tracer
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> "ActiveSpan":
        self._token = _CURRENT.set((self.trace_id, self.span_id))
        self._wall = time.time()
        self._start = time.perf_counter()
        return self

    def __exit__(self, error_type: Optional[type], _error: object, _tb: object) -> None:
        """Record the span; a raising block marks it ``status: "error"``."""
        duration = time.perf_counter() - self._start
        _CURRENT.reset(self._token)
        status = "ok"
        if error_type is not None:
            status = "error"
            self.attrs.setdefault("error_type", error_type.__name__)
        record: Dict[str, object] = {
            "trace": self.trace_id,
            "span": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "start": round(self._wall, 6),
            "duration": round(duration, 9),
            "status": status,
            "pid": os.getpid(),
        }
        if self.attrs:
            record["attrs"] = self.attrs
        self._tracer._record(record)

    def set_attribute(self, name: str, value: object) -> None:
        """Attach one structured attribute to the span."""
        self.attrs[name] = value

    @property
    def context(self) -> TraceContext:
        """This span's ``(trace_id, span_id)`` — inject it into children."""
        return (self.trace_id, self.span_id)


class Tracer:
    """Process-local span recorder with a ring buffer and optional sink.

    One instance per process (module singleton via :func:`tracer`). A
    forked child starts with a fresh lock, an empty buffer and no sink
    (:meth:`_after_fork`), so it never re-emits its parent's spans.
    """

    def __init__(self) -> None:
        self._buffer: List[Dict[str, object]] = []
        self.dropped = 0
        self._sink_path: Optional[str] = None
        self._sink_file: Optional[IO[str]] = None
        self._lock = threading.Lock()

    def _after_fork(self) -> None:
        """A forked child's fresh start (a parent thread may hold the lock).

        The parent's sink stays open but unused, as closing it would
        flush its buffer into the parent's file a second time."""
        self._lock = threading.Lock()
        self._buffer = []
        self.dropped = 0
        self._sink_path = None

    # -------------------------------------------------------------- #
    # Recording
    # -------------------------------------------------------------- #

    def start_span(
        self,
        name: str,
        parent: Optional[TraceContext],
        attributes: Optional[Dict[str, object]],
    ) -> ActiveSpan:
        """A recording span, parented by ``parent`` or the enclosing span.

        Without either it starts a new trace. :func:`span` decides
        whether to record; this only builds the span.
        """
        if parent is None:
            parent = _CURRENT.get()
        if parent is None:
            trace_id, parent_id = _new_id(16), None  # new root trace
        else:
            trace_id, parent_id = parent
        return ActiveSpan(
            self, trace_id, _new_id(8), parent_id, name, dict(attributes or ())
        )

    def _record(self, record: Dict[str, object]) -> None:
        """Buffer one finished span (bounded) and append it to the sink.

        Lock-guarded: spans finish on several threads (the service's
        executor and worker threads), and sink lines must never
        interleave mid-record.
        """
        with self._lock:
            if len(self._buffer) >= SPAN_BUFFER_CAP:
                del self._buffer[0]
                self.dropped += 1
            self._buffer.append(record)
            self._write_sink(record)

    # -------------------------------------------------------------- #
    # Cross-process stitching
    # -------------------------------------------------------------- #

    def drain(self, trace: Optional[str] = None) -> List[Dict[str, object]]:
        """Remove and return the buffered spans, or only ``trace``'s.

        A worker ships a task's own trace (result line) and keeps the
        spans it recorded for itself.
        """
        with self._lock:
            if trace is None:
                drained, self._buffer = self._buffer, []
            else:
                drained = [r for r in self._buffer if r.get("trace") == trace]
                self._buffer = [r for r in self._buffer if r.get("trace") != trace]
        return drained

    def ingest(self, spans: Iterable[Dict[str, object]]) -> None:
        """Adopt spans recorded in another process (result line → parent).

        Ingested spans re-enter this tracer's buffer and sink exactly as
        if they had finished locally — their ids already stitch them
        under the dispatching span.
        """
        for record in spans:
            if isinstance(record, dict):
                self._record(record)

    # -------------------------------------------------------------- #
    # Sink
    # -------------------------------------------------------------- #

    def set_sink(self, path: Union[str, os.PathLike, None]) -> None:
        """Stream every finished span to ``path`` as JSON lines.

        The file (and its parent directory) is created on first write;
        ``None`` detaches the sink. Already-buffered spans are flushed
        to the new sink immediately so a sink attached just after the
        root span opened still sees the whole trace.
        """
        with self._lock:
            if self._sink_file is not None:
                self._sink_file.close()
                self._sink_file = None
            self._sink_path = None if path is None else str(path)
            if self._sink_path is not None:
                for record in self._buffer:
                    self._write_sink(record)

    def _write_sink(self, record: Dict[str, object]) -> None:
        if self._sink_path is None:
            return
        if self._sink_file is None:
            directory = os.path.dirname(self._sink_path)
            if directory:
                os.makedirs(directory, exist_ok=True)
            self._sink_file = open(self._sink_path, "a", encoding="utf-8")
        self._sink_file.write(json.dumps(record, default=str, sort_keys=True) + "\n")
        self._sink_file.flush()

    # -------------------------------------------------------------- #
    # Introspection / lifecycle
    # -------------------------------------------------------------- #

    @property
    def buffered(self) -> int:
        """Spans currently held in the ring buffer."""
        return len(self._buffer)

    def reset(self) -> None:
        """Drop buffered spans, the drop counter, and any sink (tests)."""
        self.set_sink(None)
        self._buffer = []
        self.dropped = 0


_TRACER = Tracer()
os.register_at_fork(after_in_child=_TRACER._after_fork)


def tracer() -> Tracer:
    """The process-wide tracer singleton."""
    return _TRACER


def records(parent: Optional[TraceContext] = None) -> bool:
    """Whether a span opened here records.

    It does when the ``spans`` feature is on, when ``parent`` — a
    :data:`TraceContext` shipped from another process — is given (the
    dispatching parent asked for this trace, so a worker records even
    without telemetry of its own), or when a recording span encloses
    this one.
    """
    return parent is not None or _CURRENT.get() is not None or spans_active()


def span(
    name: str,
    *,
    parent: Optional[TraceContext] = None,
    attributes: Optional[Dict[str, object]] = None,
) -> Union[ActiveSpan, _NoopSpan]:
    """A span around the ``with`` block, on the process-wide tracer.

    When no span would record (:func:`records`), this returns one shared
    no-op object and allocates nothing; callers compute attributes only
    ``if span.recording``. Otherwise the span is parented by ``parent``
    or the enclosing span. A block that raises marks the span ``status:
    "error"`` with the exception type attached, then propagates.
    """
    if not records(parent):
        return _NOOP_SPAN
    return _TRACER.start_span(name, parent, attributes)


def current_context() -> Optional[TraceContext]:
    """The ambient ``(trace_id, span_id)``, or None outside any span."""
    return _CURRENT.get()


__all__ = [
    "SPAN_BUFFER_CAP",
    "TELEMETRY_ENV",
    "TELEMETRY_FEATURES",
    "ActiveSpan",
    "TraceContext",
    "Tracer",
    "configure_telemetry",
    "current_context",
    "enabled_features",
    "metrics_active",
    "parse_telemetry",
    "profile_active",
    "records",
    "span",
    "spans_active",
    "tracer",
]
