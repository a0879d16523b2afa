"""Task scheduler: one execution API behind every parallel path.

The batch functions in :mod:`repro.core.batch` and the experiment
executor share one abstraction for worker lifecycle, ordering and
fallback:

* a **task** is a :class:`TaskSpec` — a registered *function name*, a
  picklable payload, a fingerprint for error reporting/retry, and an
  optional named *initializer* whose product (a detector, a generator)
  is cached worker-locally under ``init_key`` so expensive per-worker
  state is built once and reused across tasks and batches;
* a **scheduler** takes a list of tasks and returns their results **in
  submission order**, whatever completion order the workers produce;
* :class:`LocalScheduler` reproduces the historical in-machine behavior
  bit-for-bit — ``workers=1`` (or a single task) never spawns anything,
  a pool that cannot start falls back in-process with the caller's own
  warning, and a worker killed mid-task is retried a bounded number of
  times before surfacing as
  :class:`~repro.exceptions.WorkerCrashError`;
* :class:`~repro.exec.remote.RemoteScheduler` dispatches the very same
  tasks over the JSON-lines wire to ``freqywm worker`` processes — same
  API, same ordering, same typed crash error.

Functions and initializers are registered *by name* (module import
registers them; :func:`load_builtin_tasks` covers spawn-fresh
processes), so a task travels as strings + payload and never pickles
code. ``tests/test_scheduler.py`` pins the fault paths; the cross-
scheduler report parity lives in ``tests/test_scheduler_experiment.py``.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import warnings
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.exceptions import SchedulerError, WorkerCrashError
from repro.exec.blobs import (
    default_blob_store,
    export_shm_blob,
    resolve_refs,
    rewrite_refs,
)
from repro.obs.logging import get_logger
from repro.obs.profile import maybe_profile
from repro.obs.trace import profile_active, records, span as trace_span, tracer

logger = get_logger(__name__)

#: How many distinct initializer products one worker keeps alive. Small:
#: states are detectors/generators holding derived moduli, and a worker
#: serving a sweep rarely alternates between more than a few secrets.
DEFAULT_STATE_CACHE = 8


# --------------------------------------------------------------------- #
# Task + registries
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class TaskSpec:
    """One schedulable unit of work.

    Attributes
    ----------
    fingerprint:
        Stable identifier for this task, carried into
        :class:`~repro.exceptions.WorkerCrashError` and the remote wire
        so lost work is attributable and resubmittable. Content-hash
        fingerprints (the experiment cache's) are ideal; any unique
        string works.
    function:
        Registered task-function name (:func:`register_task_function`).
        The function is called as ``function(state, payload)`` where
        ``state`` is the initializer product (``None`` without one).
    payload:
        Picklable argument object for the function.
    initializer:
        Optional registered initializer name
        (:func:`register_initializer`) building the worker-local state.
    init_key:
        Cache key for the initializer product. Tasks sharing an
        ``init_key`` share one state per worker — the detector built for
        chunk 0 serves chunk 40. Must uniquely describe ``init_args``
        (a fingerprint of them), or workers would serve stale state.
    init_args:
        Picklable positional arguments for the initializer.
    blob_refs:
        Digests of every :class:`~repro.exec.blobs.BlobRef` embedded in
        ``payload``/``init_args``. Declaring them up front lets a
        scheduler plan transport — export shared-memory segments, ship
        blobs to remote workers once — without walking payloads. Empty
        for fully-inline tasks (the historical shape).
    trace:
        Optional propagated ``(trace_id, parent_span_id)`` pair. When
        set, :func:`run_task` records a span for this task parented
        under the dispatching span *even in a process that never
        enabled telemetry* — the scheduler that stamped the context
        asked for the trace, and the worker ships the span back with
        its result. ``None`` (the default) keeps the task invisible.
    """

    fingerprint: str
    function: str
    payload: Any = None
    initializer: Optional[str] = None
    init_key: str = ""
    init_args: Tuple[Any, ...] = ()
    blob_refs: Tuple[str, ...] = ()
    trace: Optional[Tuple[str, str]] = None

    def __post_init__(self) -> None:
        if not self.function:
            raise SchedulerError("task function name must be non-empty")
        if self.initializer is not None and not self.init_key:
            raise SchedulerError(
                f"task {self.fingerprint!r} names initializer "
                f"{self.initializer!r} but no init_key to cache it under"
            )


_TASK_FUNCTIONS: Dict[str, Callable[[Any, Any], Any]] = {}
_INITIALIZERS: Dict[str, Callable[..., Any]] = {}
_BUILTINS_LOADED = False


def register_task_function(name: str, function: Callable[[Any, Any], Any]) -> None:
    """Register ``function`` under ``name`` for dispatch by TaskSpecs.

    Re-registering the same callable is a no-op; rebinding a name to a
    *different* callable raises — two call sites silently fighting over
    a name would make results depend on import order.
    """
    existing = _TASK_FUNCTIONS.get(name)
    if existing is not None and existing is not function:
        raise SchedulerError(f"task function {name!r} is already registered")
    _TASK_FUNCTIONS[name] = function


def register_initializer(name: str, function: Callable[..., Any]) -> None:
    """Register a named initializer building worker-local state."""
    existing = _INITIALIZERS.get(name)
    if existing is not None and existing is not function:
        raise SchedulerError(f"initializer {name!r} is already registered")
    _INITIALIZERS[name] = function


def load_builtin_tasks() -> None:
    """Import every module that registers built-in task functions.

    Spawn-started workers (and ``freqywm worker`` processes) begin with
    empty registries; importing the registering modules is what fills
    them. Idempotent and cheap after the first call.
    """
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    _BUILTINS_LOADED = True
    import repro.core.batch  # noqa: F401  (detect.*, embed.*, secrets.chunk)
    import repro.experiments.executor  # noqa: F401


def resolve_task_function(name: str) -> Callable[[Any, Any], Any]:
    """Look up a registered task function, loading builtins on a miss."""
    function = _TASK_FUNCTIONS.get(name)
    if function is None:
        load_builtin_tasks()
        function = _TASK_FUNCTIONS.get(name)
    if function is None:
        raise SchedulerError(f"unknown task function {name!r}")
    return function


def resolve_initializer(name: str) -> Callable[..., Any]:
    """Look up a registered initializer, loading builtins on a miss."""
    function = _INITIALIZERS.get(name)
    if function is None:
        load_builtin_tasks()
        function = _INITIALIZERS.get(name)
    if function is None:
        raise SchedulerError(f"unknown initializer {name!r}")
    return function


# --------------------------------------------------------------------- #
# Worker-side execution (runs inside pool workers and `freqywm worker`)
# --------------------------------------------------------------------- #

# Worker-local initializer products, LRU-bounded. Module-level so pool
# workers (which import this module once) and the remote worker server
# share one implementation.
_WORKER_STATE: "OrderedDict[str, Any]" = OrderedDict()
_WORKER_STATE_CAP = DEFAULT_STATE_CACHE


def set_state_cache_size(size: int) -> None:
    """Bound the worker-local state cache (``freqywm worker --max-state``)."""
    global _WORKER_STATE_CAP
    if size < 1:
        raise SchedulerError(f"state cache size must be >= 1, got {size}")
    _WORKER_STATE_CAP = size
    while len(_WORKER_STATE) > _WORKER_STATE_CAP:
        _WORKER_STATE.popitem(last=False)


def _ensure_worker_state(spec: TaskSpec, blob_fetch=None, states=None) -> Any:
    """Build-or-fetch the initializer product for ``spec`` (LRU).

    ``states`` maps ``init_key`` to product: this process's worker state
    by default, or a :class:`LocalScheduler`'s ``inline_state``. Either
    keeps the most recently used products, as many as
    :func:`set_state_cache_size` allows. ``init_args`` blob refs are
    materialised only on a cache miss: tasks sharing an ``init_key`` pay
    the blob fetch once per worker, which is exactly the dedup the data
    plane exists for.
    """
    assert spec.initializer is not None
    if states is None:
        states = _WORKER_STATE
    state = states.get(spec.init_key)
    if state is None and spec.init_key not in states:
        init_args = resolve_refs(spec.init_args, blob_fetch)
        state = resolve_initializer(spec.initializer)(*init_args)
        states[spec.init_key] = state
        while len(states) > _WORKER_STATE_CAP:
            states.popitem(last=False)
    else:
        states.move_to_end(spec.init_key)
    return state


def _execute_task(spec: TaskSpec, blob_fetch=None, states=None) -> Any:
    """The bare task body: resolve function/state/blobs, then call."""
    function = resolve_task_function(spec.function)
    state = (
        _ensure_worker_state(spec, blob_fetch, states)
        if spec.initializer is not None
        else None
    )
    payload = resolve_refs(spec.payload, blob_fetch)
    return function(state, payload)


def run_task(spec: TaskSpec, *, blob_fetch=None, states=None) -> Any:
    """Execute one task in this process (the one task body).

    Resolves the function and (cached) initializer state, materialises
    any blob references in the payload — ``blob_fetch(digest)`` supplies
    values, defaulting to the process-wide blob store; shared-memory
    handles load themselves — then calls ``function(state, payload)``.
    Pool workers, the remote worker server and
    :class:`LocalScheduler`'s inline path all run tasks here; the inline
    path passes its ``inline_state`` as ``states`` (see
    :func:`_ensure_worker_state`). Ref-free specs take no extra copies:
    payloads pass through untouched.

    When the spec carries a propagated trace context, span recording is
    enabled locally, or a recording span encloses the call, the
    execution is wrapped in a ``task:<function>`` span; with the
    ``profile`` feature on, a slow task additionally gets its top
    cProfile frames attached to that span. Otherwise the body runs with
    no overhead beyond that one check.
    """
    if not records(spec.trace):
        return _execute_task(spec, blob_fetch, states)
    with trace_span(
        f"task:{spec.function}",
        parent=spec.trace,
        attributes={"fingerprint": spec.fingerprint},
    ) as task_span:
        with maybe_profile(task_span, profile_active()):
            return _execute_task(spec, blob_fetch, states)


@dataclass
class _SpanEnvelope:
    """A pool child's result plus the spans it recorded for the parent."""

    value: Any
    spans: Tuple[Dict[str, Any], ...]


def _pool_run(spec: TaskSpec) -> Any:
    """Top-level pool target (picklable by reference).

    A traced spec returns a :class:`_SpanEnvelope` so the child's spans
    travel back on the result channel; the parent's drain loop unwraps
    it and ingests the spans into its own tracer/sink.
    """
    value = run_task(spec)
    if spec.trace is not None:
        recorded = tracer().drain()
        if recorded:
            return _SpanEnvelope(value, tuple(recorded))
    return value


def default_worker_count() -> int:
    """Worker count used when ``workers`` is not given: the visible cores.

    Honours CPU affinity masks (cgroup-limited containers) where the
    platform exposes them; never less than 1.
    """
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux platforms
        return max(1, os.cpu_count() or 1)


# --------------------------------------------------------------------- #
# Scheduler API
# --------------------------------------------------------------------- #


@dataclass
class SchedulerStats:
    """Data-plane accounting a scheduler accumulates across its runs.

    ``bytes_sent`` counts payload bytes the scheduler actually moved to
    workers (shared-memory segment sizes locally, wire bytes remotely);
    ``bytes_deduped`` counts bytes it *didn't* move because a referenced
    blob was already where it was needed. Their sum approximates what
    the pre-data-plane inline path would have shipped, so
    ``bytes_deduped / (bytes_sent + bytes_deduped)`` reads as the dedup
    ratio. Counters are cumulative; surface them via :meth:`summary`.
    """

    tasks: int = 0
    bytes_sent: int = 0
    bytes_deduped: int = 0
    blobs_sent: int = 0
    blobs_deduped: int = 0
    shm_segments: int = 0

    def summary(self) -> str:
        """One-line human-readable rendering for smoke tools and logs."""
        return (
            f"tasks={self.tasks} bytes_sent={self.bytes_sent} "
            f"bytes_deduped={self.bytes_deduped} blobs_sent={self.blobs_sent} "
            f"blobs_deduped={self.blobs_deduped} "
            f"shm_segments={self.shm_segments}"
        )

    def as_dict(self) -> Dict[str, int]:
        """Every counter as a plain dict (the ``scheduler`` stats group)."""
        return {
            "tasks": self.tasks,
            "bytes_sent": self.bytes_sent,
            "bytes_deduped": self.bytes_deduped,
            "blobs_sent": self.blobs_sent,
            "blobs_deduped": self.blobs_deduped,
            "shm_segments": self.shm_segments,
        }


class Scheduler:
    """Protocol every scheduler implements: ordered fan-out of TaskSpecs.

    ``run`` takes tasks, returns results **in submission order**, and
    optionally streams each result to ``on_result(index, value)`` as it
    completes (out of order) — the hook the experiment executor uses to
    cache finished tasks at task granularity, not at batch barriers.
    Implementations surface a worker lost mid-task as
    :class:`~repro.exceptions.WorkerCrashError` after bounded retries.
    """

    #: Effective worker count (schedulers may lower it on fallback).
    workers: int = 1

    def __init__(self) -> None:
        #: Cumulative data-plane accounting across this scheduler's runs.
        self.stats = SchedulerStats()

    @property
    def ships_payloads(self) -> bool:
        """Whether payloads cross a process boundary on the way to workers.

        Payload builders consult this before blob-ifying: when execution
        is in-process (``LocalScheduler`` with one worker) a blob ref
        buys nothing and would add a serialisation round-trip, so large
        values stay inline exactly as before the data plane existed.
        """
        return False

    def run(
        self,
        tasks: Sequence[TaskSpec],
        *,
        on_result: Optional[Callable[[int, Any], None]] = None,
    ) -> List[Any]:
        """Execute ``tasks``; result ``i`` corresponds to ``tasks[i]``."""
        raise NotImplementedError

    def close(self) -> None:
        """Release worker resources (idempotent)."""

    def __enter__(self) -> "Scheduler":
        """Context-manager entry: the scheduler itself."""
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Context-manager exit: release workers."""
        self.close()


@dataclass
class _Submission:
    """Book-keeping for one task's in-flight pool handles."""

    spec: TaskSpec
    attempts: int = 1
    handles: List[Any] = field(default_factory=list)


class _ShmExporter:
    """Parks each referenced blob in one shared-memory segment, refcounted.

    One segment per distinct digest per ``run`` call, however many tasks
    reference it — that is the local dedup. Each task holds a refcount
    on its digests from :meth:`prepare` until :meth:`release` (task
    completed); the segment is unlinked when its count hits zero, and
    :meth:`close` (always reached, crash paths included) unlinks
    whatever is left. Retried tasks are never released early: a task's
    refs drop only when its result actually landed, so resubmitted specs
    always find their segments alive.
    """

    def __init__(self, store, stats: SchedulerStats) -> None:
        self._store = store
        self._stats = stats
        self._segments: Dict[str, Tuple[Any, Any, int]] = {}
        self._counts: Dict[str, int] = {}
        self._task_refs: Dict[int, Tuple[str, ...]] = {}

    def prepare(self, index: int, spec: TaskSpec) -> TaskSpec:
        """Rewrite ``spec``'s blob refs to shared-memory handles.

        Raises ``OSError`` when a segment cannot be created (no
        ``/dev/shm``); the caller falls back to inline payloads.
        """
        mapping: Dict[str, Any] = {}
        for digest in spec.blob_refs:
            entry = self._segments.get(digest)
            if entry is None:
                data = self._store.get(digest)
                with trace_span(
                    "blob.ship",
                    attributes={"transport": "shm", "bytes": data.size},
                ):
                    handle, segment = export_shm_blob(digest, data)
                entry = (handle, segment, data.size)
                self._segments[digest] = entry
                self._counts[digest] = 0
                self._stats.bytes_sent += data.size
                self._stats.blobs_sent += 1
                self._stats.shm_segments += 1
            else:
                self._stats.bytes_deduped += entry[2]
                self._stats.blobs_deduped += 1
            mapping[digest] = entry[0]
            self._counts[digest] += 1
        self._task_refs[index] = tuple(mapping)
        return replace(
            spec,
            payload=rewrite_refs(spec.payload, mapping),
            init_args=rewrite_refs(spec.init_args, mapping),
            blob_refs=(),
        )

    def release(self, index: int) -> None:
        """Drop the completed task's refs; unlink segments at zero."""
        for digest in self._task_refs.pop(index, ()):
            count = self._counts.get(digest, 0) - 1
            if count > 0:
                self._counts[digest] = count
            else:
                self._counts.pop(digest, None)
                self._unlink(digest)

    def close(self) -> None:
        """Unlink every remaining segment (idempotent; crash-safe path)."""
        self._task_refs.clear()
        self._counts.clear()
        for digest in list(self._segments):
            self._unlink(digest)

    def _unlink(self, digest: str) -> None:
        entry = self._segments.pop(digest, None)
        if entry is None:
            return
        _, segment, _ = entry
        try:
            segment.close()
        except BufferError:  # pragma: no cover - a live view pins the map
            pass
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass


class LocalScheduler(Scheduler):
    """In-machine scheduler over a ``multiprocessing`` pool.

    Contracts:

    * ``workers=1`` — or a single submitted task — executes inline in
      the calling process; no worker is ever spawned;
    * a pool that cannot start (restricted sandboxes: no ``/dev/shm``,
      seccomp'd fork) degrades to inline execution *loudly*, via the
      ``on_spawn_failure`` hook so each call site keeps its established
      log/warning wording, and ``workers`` drops to 1;
    * a worker killed mid-task is detected (the pool auto-replaces the
      process but its in-flight task is lost), the lost tasks are
      resubmitted up to ``max_retries`` times, and persistent crashers
      surface as :class:`~repro.exceptions.WorkerCrashError` carrying
      the task fingerprint;
    * results always come back in submission order.

    Parameters
    ----------
    workers : int, optional
        Worker process count; ``None`` uses :func:`default_worker_count`.
    start_method : str, optional
        ``multiprocessing`` start method; ``None`` = platform default.
    size_to_batch : bool, optional
        When True the pool is created per ``run`` call sized
        ``min(workers, len(tasks))`` and closed afterwards (the
        experiment executor's per-level behavior); when False (default)
        one persistent ``workers``-sized pool serves every run.
    on_spawn_failure : callable, optional
        ``hook(error)`` invoked when the pool cannot start, before the
        inline fallback; defaults to a generic logged warning plus
        ``RuntimeWarning``.
    max_retries : int, optional
        Crash-of-worker resubmissions per task (default 1: retried
        exactly once, then raised).
    crash_grace : float, optional
        Seconds to let straggler results land after a crash before
        declaring still-unfinished tasks lost.
    inline_state : dict, optional
        Prebuilt initializer products keyed by ``init_key`` for the
        inline path — how a caller's existing detector is reused instead
        of rebuilt. The inline path caches the products it builds itself
        there too, bounded like a worker's state cache.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        *,
        start_method: Optional[str] = None,
        size_to_batch: bool = False,
        on_spawn_failure: Optional[Callable[[BaseException], None]] = None,
        max_retries: int = 1,
        crash_grace: float = 0.5,
        inline_state: Optional[Dict[str, Any]] = None,
    ) -> None:
        if workers is not None and workers < 1:
            raise SchedulerError(f"workers must be >= 1, got {workers}")
        if max_retries < 0:
            raise SchedulerError(f"max_retries must be >= 0, got {max_retries}")
        super().__init__()
        self.workers = workers if workers is not None else default_worker_count()
        self.start_method = start_method
        self.size_to_batch = size_to_batch
        self.on_spawn_failure = on_spawn_failure
        self.max_retries = max_retries
        self.crash_grace = crash_grace
        self.inline_state: "OrderedDict[str, Any]" = OrderedDict(inline_state or {})
        self._pool = None
        self._poll_interval = 0.005

    @property
    def ships_payloads(self) -> bool:
        """True once a pool is in play: payloads get pickled to children."""
        return self.workers > 1

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Shut down the worker processes (idempotent; pool recreates lazily)."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def _spawn_pool(self, processes: int):
        """Create a pool or fall back: hook fires, ``workers`` drops to 1."""
        context = (
            multiprocessing.get_context(self.start_method)
            if self.start_method
            else multiprocessing.get_context()
        )
        try:
            # Start the resource tracker *before* forking so workers
            # inherit it: an attach in a worker then re-registers a
            # segment with the shared tracker (a set, so a no-op)
            # instead of spawning a private tracker that would
            # miscount the parent's unlink as a leak at shutdown.
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
            return context.Pool(processes=processes)
        except (OSError, ValueError, RuntimeError, PermissionError) as error:
            if self.on_spawn_failure is not None:
                self.on_spawn_failure(error)
            else:
                logger.warning(
                    "cannot start scheduler workers (%s: %s); "
                    "falling back to in-process execution",
                    type(error).__name__,
                    error,
                )
                warnings.warn(
                    f"cannot start scheduler workers ({error}); "
                    "falling back to in-process execution",
                    RuntimeWarning,
                    stacklevel=4,
                )
            self.workers = 1
            return None

    def _ensure_pool(self):
        """The persistent pool, created lazily; None when unavailable."""
        if self._pool is None:
            self._pool = self._spawn_pool(self.workers)
        return self._pool

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def run(
        self,
        tasks: Sequence[TaskSpec],
        *,
        on_result: Optional[Callable[[int, Any], None]] = None,
    ) -> List[Any]:
        """Execute ``tasks``, inline or sharded, results in submission order."""
        specs = list(tasks)
        if not specs:
            return []
        self.stats.tasks += len(specs)
        with trace_span(
            "scheduler.run",
            attributes={"scheduler": "local", "tasks": len(specs)},
        ) as run_span:
            context = run_span.context
            if context is not None:
                specs = [
                    replace(spec, trace=context) if spec.trace is None else spec
                    for spec in specs
                ]
            if self.workers > 1 and len(specs) > 1:
                if self.size_to_batch:
                    pool = self._spawn_pool(min(self.workers, len(specs)))
                    if pool is not None:
                        with pool:
                            return self._run_pool(pool, specs, on_result)
                else:
                    pool = self._ensure_pool()
                    if pool is not None:
                        return self._run_pool(pool, specs, on_result)
            return self._run_inline(specs, on_result)

    def _run_inline(
        self,
        specs: List[TaskSpec],
        on_result: Optional[Callable[[int, Any], None]],
    ) -> List[Any]:
        """Execute every task in this process, reusing ``inline_state``.

        Blob refs resolve against the process-wide store, whose value
        cache returns the *original* objects — so a builder that
        blob-ified for a pool that then fell back inline still runs with
        zero extra copies.
        """
        results: List[Any] = []
        for index, spec in enumerate(specs):
            value = run_task(spec, states=self.inline_state)
            if on_result is not None:
                on_result(index, value)
            results.append(value)
        return results

    @staticmethod
    def _pool_pids(pool) -> Optional[frozenset]:
        """Live worker pids, or None when the pool does not expose them.

        ``Pool._pool`` is stdlib-private but stable across supported
        Pythons; when a future version hides it, crash detection
        degrades to "hung forever" rather than misfiring — hence the
        defensive None.
        """
        processes = getattr(pool, "_pool", None)
        if processes is None:
            return None
        try:
            return frozenset(proc.pid for proc in processes)
        except (AttributeError, TypeError):  # pragma: no cover - defensive
            return None

    def _run_pool(
        self,
        pool,
        specs: List[TaskSpec],
        on_result: Optional[Callable[[int, Any], None]],
    ) -> List[Any]:
        """Drain ``specs`` through ``pool`` with crash detection + retry.

        Tasks are submitted individually (``apply_async``) so a lost
        worker costs only its in-flight tasks. The pool replaces a
        killed process by itself but silently drops what it was running;
        the drain loop watches the worker pid-set, and on a change waits
        ``crash_grace`` for stragglers, then resubmits every unfinished
        task. Duplicate completions are harmless — scheduler tasks are
        pure by contract (the first result wins). A task that out-lives
        ``max_retries`` resubmissions raises
        :class:`~repro.exceptions.WorkerCrashError` with its
        fingerprint.

        Specs carrying blob refs go through the shared-memory exporter
        first: each distinct blob becomes one segment shared by every
        referencing task, released (and unlinked) as tasks complete,
        with the remainder torn down in the ``finally`` whatever path —
        crash, task exception, retry exhaustion — exits this method.
        """
        exporter, prepared = self._prepare_pool_specs(specs)
        try:
            return self._drain_pool(pool, prepared, on_result, exporter)
        finally:
            if exporter is not None:
                exporter.close()

    def _prepare_pool_specs(
        self, specs: List[TaskSpec]
    ) -> Tuple[Optional[_ShmExporter], List[TaskSpec]]:
        """Swap blob refs for shm handles (or inline values on fallback)."""
        if not any(spec.blob_refs for spec in specs):
            return None, specs
        exporter = _ShmExporter(default_blob_store(), self.stats)
        prepared: List[TaskSpec] = []
        try:
            for index, spec in enumerate(specs):
                prepared.append(
                    exporter.prepare(index, spec) if spec.blob_refs else spec
                )
            return exporter, prepared
        except OSError as error:
            logger.warning(
                "shared-memory export unavailable (%s: %s); "
                "shipping payloads inline",
                type(error).__name__,
                error,
            )
            exporter.close()
        return None, [self._resolve_spec(spec) for spec in specs]

    @staticmethod
    def _resolve_spec(spec: TaskSpec) -> TaskSpec:
        """Materialise a spec's blob refs back into inline values."""
        if not spec.blob_refs:
            return spec
        return replace(
            spec,
            payload=resolve_refs(spec.payload),
            init_args=resolve_refs(spec.init_args),
            blob_refs=(),
        )

    def _drain_pool(
        self,
        pool,
        specs: List[TaskSpec],
        on_result: Optional[Callable[[int, Any], None]],
        exporter: Optional[_ShmExporter],
    ) -> List[Any]:
        """The submission/harvest/crash-retry loop behind :meth:`_run_pool`."""
        submissions = [_Submission(spec) for spec in specs]
        for submission in submissions:
            submission.handles.append(pool.apply_async(_pool_run, (submission.spec,)))
        unfinished = set(range(len(specs)))
        results: List[Any] = [None] * len(specs)
        known_pids = self._pool_pids(pool)

        def collect_ready() -> bool:
            """Harvest every ready handle; True when any result landed."""
            progressed = False
            for index in sorted(unfinished):
                submission = submissions[index]
                ready = next(
                    (handle for handle in submission.handles if handle.ready()), None
                )
                if ready is None:
                    continue
                value = ready.get()  # task exceptions propagate as-is
                if isinstance(value, _SpanEnvelope):
                    tracer().ingest(value.spans)
                    value = value.value
                results[index] = value
                unfinished.discard(index)
                progressed = True
                if exporter is not None:
                    exporter.release(index)
                if on_result is not None:
                    on_result(index, value)
            return progressed

        while unfinished:
            progressed = collect_ready()
            if not unfinished:
                break
            pids = self._pool_pids(pool)
            if pids is not None and known_pids is not None and pids - known_pids:
                # At least one replacement pid appeared: a worker died.
                known_pids = pids
                deadline = time.monotonic() + self.crash_grace
                while unfinished and time.monotonic() < deadline:
                    if collect_ready():
                        deadline = time.monotonic() + self.crash_grace
                    time.sleep(self._poll_interval)
                for index in sorted(unfinished):
                    submission = submissions[index]
                    if submission.attempts > self.max_retries:
                        raise WorkerCrashError(
                            f"worker crashed running task "
                            f"{submission.spec.fingerprint!r} "
                            f"({submission.attempts} attempts, retries "
                            "exhausted)",
                            fingerprint=submission.spec.fingerprint,
                            attempts=submission.attempts,
                        )
                    submission.attempts += 1
                    logger.warning(
                        "worker crash lost task %s; resubmitting (attempt %d)",
                        submission.spec.fingerprint,
                        submission.attempts,
                    )
                    submission.handles.append(
                        pool.apply_async(_pool_run, (submission.spec,))
                    )
            elif pids is not None:
                known_pids = pids
            if not progressed:
                time.sleep(self._poll_interval)
        return results


# --------------------------------------------------------------------- #
# Factory
# --------------------------------------------------------------------- #


def create_scheduler(policy, **kwargs) -> Scheduler:
    """Build the scheduler an :class:`~repro.exec.policy.ExecutionPolicy` names.

    ``"local"`` builds a :class:`LocalScheduler` (extra keyword arguments
    are its knobs); ``"remote"`` builds a
    :class:`~repro.exec.remote.RemoteScheduler` over ``policy.addresses``,
    silently dropping the local-only knobs so call sites can pass a
    uniform set.
    """
    if policy.scheduler == "local":
        return LocalScheduler(
            policy.workers, start_method=policy.start_method, **kwargs
        )
    if policy.scheduler == "remote":
        from repro.exec.remote import RemoteScheduler

        for local_only in (
            "start_method", "size_to_batch", "on_spawn_failure", "inline_state"
        ):
            kwargs.pop(local_only, None)
        return RemoteScheduler(policy.addresses, **kwargs)
    raise SchedulerError(
        f"unknown scheduler {policy.scheduler!r} (known: ['local', 'remote'])"
    )


__all__ = [
    "DEFAULT_STATE_CACHE",
    "LocalScheduler",
    "Scheduler",
    "SchedulerStats",
    "TaskSpec",
    "create_scheduler",
    "default_worker_count",
    "load_builtin_tasks",
    "register_initializer",
    "register_task_function",
    "resolve_initializer",
    "resolve_task_function",
    "run_task",
    "set_state_cache_size",
]
