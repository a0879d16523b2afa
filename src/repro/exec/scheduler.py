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
* :class:`~repro.exec.remote.RemoteScheduler` sends tasks over the
  JSON-lines wire to ``freqywm worker`` processes, and
  :class:`LocalScheduler` runs them inline or forks its workers as
  ``freqywm worker`` servers that the same client drives: one worker
  path, one crash contract (bounded retry, then
  :class:`~repro.exceptions.WorkerCrashError`).

Functions and initializers are registered *by name* (module import
registers them; :func:`load_builtin_tasks` covers fresh ``freqywm
worker`` processes), so a task travels as strings + payload and never
pickles code. ``tests/test_scheduler.py`` pins the fault paths; the cross-
scheduler report parity lives in ``tests/test_scheduler_experiment.py``.
"""

from __future__ import annotations

import os
import warnings
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.exceptions import SchedulerError
from repro.exec.blobs import resolve_refs
from repro.obs.logging import get_logger
from repro.obs.profile import maybe_profile
from repro.obs.trace import profile_active, records, span as trace_span

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
        scheduler plan transport — ship each blob to a worker once —
        without walking payloads. Empty for fully-inline tasks (the
        historical shape).
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

    A fresh ``freqywm worker`` process begins with empty registries;
    importing the registering modules is what fills them. Idempotent and
    cheap after the first call.
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
# Worker-side execution (runs inside `freqywm worker` and forked children)
# --------------------------------------------------------------------- #

# Worker-local initializer products, LRU-bounded. Module-level, so every
# worker process keeps one cache whatever connection its tasks arrive on.
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
    values, defaulting to the process-wide blob store — then calls
    ``function(state, payload)``. The worker server (in ``freqywm
    worker`` and in a :class:`LocalScheduler`'s forked children) and
    :class:`LocalScheduler`'s inline path both run tasks here; the inline
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

    ``bytes_sent`` counts the wire bytes the scheduler actually moved to
    workers; ``bytes_deduped`` counts bytes it *didn't* move because a
    referenced blob was already where it was needed. Their sum
    approximates what the pre-data-plane inline path would have shipped, so
    ``bytes_deduped / (bytes_sent + bytes_deduped)`` reads as the dedup
    ratio. Counters are cumulative; surface them via :meth:`summary`.
    """

    tasks: int = 0
    bytes_sent: int = 0
    bytes_deduped: int = 0
    blobs_sent: int = 0
    blobs_deduped: int = 0

    def summary(self) -> str:
        """One-line human-readable rendering for smoke tools and logs."""
        return (
            f"tasks={self.tasks} bytes_sent={self.bytes_sent} "
            f"bytes_deduped={self.bytes_deduped} blobs_sent={self.blobs_sent} "
            f"blobs_deduped={self.blobs_deduped}"
        )

    def as_dict(self) -> Dict[str, int]:
        """Every counter as a plain dict (the ``scheduler`` stats group)."""
        return {
            "tasks": self.tasks,
            "bytes_sent": self.bytes_sent,
            "bytes_deduped": self.bytes_deduped,
            "blobs_sent": self.blobs_sent,
            "blobs_deduped": self.blobs_deduped,
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
        """Execute ``tasks``; result ``i`` corresponds to ``tasks[i]``.

        ``on_result(index, value)`` is called on the thread that called
        ``run``, once per task as its result arrives; an exception it
        raises ends the run.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release worker resources (idempotent)."""

    def __enter__(self) -> "Scheduler":
        """Context-manager entry: the scheduler itself."""
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Context-manager exit: release workers."""
        self.close()


class LocalScheduler(Scheduler):
    """In-machine scheduler: inline, or over forked ``freqywm worker`` children.

    With ``workers > 1`` the first sharded run forks ``workers``
    children of the calling process. Each serves one end of a
    socketpair with the :class:`~repro.exec.worker.TaskWorkerServer` of
    ``freqywm worker`` and exits at EOF, and the
    :class:`~repro.exec.remote.RemoteScheduler` client drives them. A
    child's blob cache is its copy-on-write snapshot of the driver's
    default store, so blobs put before the fork cost no transfer.

    Contracts: ``workers=1`` — or a single task — runs inline; results
    come back in submission order; a child that dies is replaced
    mid-run before its task is retried, only that task is charged an
    attempt, and one that out-lives ``max_retries`` resubmissions raises
    :class:`~repro.exceptions.WorkerCrashError` with its fingerprint;
    :meth:`close` reaps every child.

    Parameters
    ----------
    workers : int, optional
        Worker process count; ``None`` uses :func:`default_worker_count`.
    on_spawn_failure : callable, optional
        ``hook(error)`` called once when a child cannot start (so each
        call site keeps its own wording); ``workers`` then drops to 1
        and runs go on inline. Defaults to a logged ``RuntimeWarning``.
    max_retries : int, optional
        Resubmissions per task after its worker died (default 1).
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
        on_spawn_failure: Optional[Callable[[BaseException], None]] = None,
        max_retries: int = 1,
        inline_state: Optional[Dict[str, Any]] = None,
    ) -> None:
        if workers is not None and workers < 1:
            raise SchedulerError(f"workers must be >= 1, got {workers}")
        if max_retries < 0:
            raise SchedulerError(f"max_retries must be >= 0, got {max_retries}")
        super().__init__()
        self.workers = workers if workers is not None else default_worker_count()
        self.on_spawn_failure = on_spawn_failure
        self.max_retries = max_retries
        self.inline_state: "OrderedDict[str, Any]" = OrderedDict(inline_state or {})
        self._children = None

    @property
    def ships_payloads(self) -> bool:
        """True once children are in play: payloads cross a socket to them."""
        return self.workers > 1

    def close(self) -> None:
        """Kill and reap the children (idempotent; they fork again lazily)."""
        if self._children is not None:
            self._children.close()
            self._children = None

    def _fork_children(self):
        """The children, forked on first use; None once one failed to start.

        A failure calls ``on_spawn_failure`` (by default, a logged warning
        and a ``RuntimeWarning``) and drops ``workers`` to 1.
        """
        if self._children is None:
            from repro.exec.remote import _ForkedWorkers

            try:
                self._children = _ForkedWorkers(
                    self.workers, max_retries=self.max_retries, stats=self.stats
                )
            except (OSError, RuntimeError) as error:
                self.workers = 1
                if self.on_spawn_failure is not None:
                    self.on_spawn_failure(error)
                    return None
                message = (
                    f"cannot start scheduler workers ({type(error).__name__}: "
                    f"{error}); falling back to in-process execution"
                )
                logger.warning(message)
                warnings.warn(message, RuntimeWarning, stacklevel=3)
        return self._children

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
                children = self._fork_children()
                if children is not None:
                    return children._run_traced(specs, on_result)
            return self._run_inline(specs, on_result)

    def _run_inline(
        self,
        specs: List[TaskSpec],
        on_result: Optional[Callable[[int, Any], None]],
    ) -> List[Any]:
        """Execute every task in this process, reusing ``inline_state``.

        Blob refs resolve against the process-wide store, whose value
        cache returns the *original* objects — so a builder that
        blob-ified for children that then failed to start still runs
        with zero extra copies.
        """
        results: List[Any] = []
        for index, spec in enumerate(specs):
            value = run_task(spec, states=self.inline_state)
            if on_result is not None:
                on_result(index, value)
            results.append(value)
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
        return LocalScheduler(policy.workers, **kwargs)
    if policy.scheduler == "remote":
        from repro.exec.remote import RemoteScheduler

        for local_only in ("on_spawn_failure", "inline_state"):
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
