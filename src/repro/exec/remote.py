"""The worker client: tasks over the JSON-lines wire.

:class:`RemoteScheduler` implements the
:class:`~repro.exec.scheduler.Scheduler` API by dispatching each
:class:`~repro.exec.scheduler.TaskSpec` as one
``task`` line (:mod:`repro.service.wire`) to a ``freqywm worker``
process reachable by Unix socket or TCP, and reads one ``result`` line
back. The distribution model is deliberately plain:

* one ``selectors`` loop on the thread that called ``run`` serves every
  worker connection. Each worker has one task in flight, and its result
  pulls the next index off a shared work queue, so a fast worker simply
  takes more tasks (work stealing by construction, no partitioning
  step). Sockets are non-blocking and a connection's outbound bytes are
  written only while it is writable, so a large payload to one worker
  never holds up another worker's result or ``blob-request``;
* while a task runs remotely, the loop probes liveness with
  ``__heartbeat__`` task lines — the worker answers them from its own
  loop even mid-task. A connection that stays silent past the heartbeat
  timeout (or drops) marks that worker **dead**: its in-flight
  fingerprint is *not* lost but re-queued, and another worker picks it
  up, up to ``max_retries`` resubmissions before
  :class:`~repro.exceptions.WorkerCrashError` surfaces. A lost worker
  that can be replaced (a local scheduler's forked child) is replaced
  before its task is re-queued;
* a task that fails remotely raises its typed error as soon as its
  result is read. A task still running elsewhere finishes on its
  worker, and the next run skips its result by request id;
* results are gathered **in submission order** regardless of which
  worker answered first;
* connections outlive the scheduler: :meth:`RemoteScheduler.close`
  keeps each idle, drained connection in a process-wide pool, one per
  address, and the next scheduler of the process takes it back, so
  repeated ``detect_many`` calls connect once. A kept connection found
  closed is replaced by one fresh connect, a forked child drops the
  pool, and the pool closes at exit.

Task data always travels as length-prefixed binary frames after the
JSON header (pickle protocol 5), with shared values referenced by
digest — the worker ``blob-request``\\ s each digest it has not
cached, once, so a sweep ships a shared secret per *worker*, not per
*task*. When a task is resent after a blob miss, its refs are
materialised first, so the frames carry the full values and no blob is
fetched. Either way the frames are pickles, as they are to a local
scheduler's own forked workers, which this client also drives (see
:class:`_ForkedWorkers`) — so run remote workers only on hosts you
would run the driver on. ``docs/scheduler.md`` spells this out.
"""

from __future__ import annotations

import atexit
import contextlib
import contextvars
import gc
import itertools
import os
import selectors
import signal
import socket
import threading
import time
import warnings
from collections import deque
from dataclasses import replace
from typing import Any, Callable, Dict, List, NoReturn, Optional, Sequence, Tuple

import repro.exceptions as _exceptions
from repro.exceptions import (
    BlobNotFoundError,
    ReproError,
    SchedulerError,
    WorkerCrashError,
)
from repro.exec.blobs import (
    BlobData,
    default_blob_store,
    dumps_oob,
    loads_oob,
    resolve_refs,
)
from repro.exec.channel import Channel, ChannelLost
from repro.exec.scheduler import Scheduler, SchedulerStats, TaskSpec
from repro.exec.worker import TaskWorkerServer
from repro.obs.logging import get_logger
from repro.obs.trace import span as trace_span, tracer
from repro.service.wire import (
    HEARTBEAT_FUNCTION,
    BlobRequest,
    BlobResponse,
    TaskRequest,
    TaskResult,
    decode_response,
    encode_line,
)

logger = get_logger(__name__)

#: Request ids, unique in this process across every scheduler.
_REQUEST_IDS = itertools.count()


def parse_address(address: str) -> Tuple[str, Any]:
    """Parse a worker address into ``("unix", path)`` or ``("tcp", (host, port))``.

    Accepted forms: ``unix:/path/to.sock``, ``tcp:host:port`` and the
    bare ``host:port`` shorthand.
    """
    if address.startswith("unix:"):
        path = address[len("unix:"):]
        if not path:
            raise SchedulerError(f"unix address {address!r} is missing a path")
        return "unix", path
    spec = address[len("tcp:"):] if address.startswith("tcp:") else address
    host, separator, port_text = spec.rpartition(":")
    if not separator or not host:
        raise SchedulerError(
            f"worker address {address!r} is not 'unix:PATH', 'tcp:HOST:PORT' "
            "or 'HOST:PORT'"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise SchedulerError(
            f"worker address {address!r} has a non-integer port"
        ) from None
    if not 0 < port < 65536:
        raise SchedulerError(f"worker address {address!r} port out of range")
    return "tcp", (host, port)


def _remote_error(result: TaskResult) -> ReproError:
    """Rebuild a typed error from a failed ``result`` line.

    The wire carries the exception's *type name* and message, never a
    pickled exception object. Known :mod:`repro.exceptions` types are
    re-raised as themselves so remote failures stay catchable exactly
    like local ones; anything else degrades to ``SchedulerError``.
    """
    error_type = result.error_type or ""
    message = result.error or "remote task failed"
    candidate = getattr(_exceptions, error_type, None)
    if (
        isinstance(candidate, type)
        and issubclass(candidate, ReproError)
        and candidate is not WorkerCrashError
    ):
        return candidate(message)
    prefix = f"{error_type}: " if error_type else ""
    return SchedulerError(f"remote task {result.fingerprint!r} failed: {prefix}{message}")


def _decode_response(raw: bytearray) -> Tuple[Any, Tuple[int, ...]]:
    """A worker's line and the frames it announces (only a ``result`` has any).

    A line that does not decode loses the worker, since the stream
    position is gone.
    """
    try:
        response = decode_response(raw.decode("utf-8"))
    except (ReproError, ValueError) as error:
        raise ChannelLost(f"worker sent an unreadable line: {error}") from error
    return response, response.frames if isinstance(response, TaskResult) else ()


class _Channel(Channel):
    """One worker connection as the run loop drives it.

    Besides the framed socket it holds its one request in flight:
    ``request_id`` (``None`` when idle) and ``index``, the current run's
    task it carries (``None`` for a task left running by an earlier run).
    """

    def __init__(self, address: str, sock: socket.socket) -> None:
        super().__init__(sock, _decode_response)
        self.address = address
        self.request_id: Optional[str] = None
        self.index: Optional[int] = None
        self.refs: Tuple[str, ...] = ()
        #: Digests the worker asked for while the request was in flight.
        self.requested: set = set()
        self.heard_at = 0.0
        self.probed_at = 0.0

    def start(self, request_id: Optional[str], index: Optional[int], refs=()) -> None:
        """Mark a request as in flight (``None`` marks the channel idle)."""
        self.request_id, self.index = request_id, index
        self.refs, self.requested = refs, set()
        self.heard_at = time.monotonic()
        self.probed_at = 0.0

    def receive(self) -> int:
        """Read once; any bytes read count as hearing from the worker."""
        read = super().receive()
        if read:
            self.heard_at = time.monotonic()
        return read

    def peer_open(self) -> bool:
        """Whether the worker's end is still open: a peek, which reads nothing."""
        try:
            return bool(self.sock.recv(1, socket.MSG_PEEK))
        except BlockingIOError:
            return True
        except OSError:
            return False


# --------------------------------------------------------------------- #
# Connections kept between schedulers
# --------------------------------------------------------------------- #

#: One idle, drained channel per address, left by a closed scheduler.
_POOL: Dict[str, _Channel] = {}
_POOL_LOCK = threading.Lock()


def _pool_put(channel: _Channel) -> bool:
    """Keep an idle, drained channel for the next scheduler; whether it was kept."""
    if channel.request_id is not None or not channel.drained or channel.closed:
        return False
    with _POOL_LOCK:
        return _POOL.setdefault(channel.address, channel) is channel


def _pool_take(address: str) -> Optional[_Channel]:
    """The kept channel to ``address``, if one is kept and still open."""
    with _POOL_LOCK:
        channel = _POOL.pop(address, None)
    if channel is not None and not channel.peer_open():
        channel.close()  # the worker went away since: connect afresh
        return None
    return channel


def _close_pool() -> None:
    """Close every kept channel (at exit)."""
    with _POOL_LOCK:
        channels = list(_POOL.values())
        _POOL.clear()
    for channel in channels:
        channel.close()


def _drop_pool_in_child() -> None:
    """A forked child keeps none of its parent's connections.

    Closing its copies of the descriptors writes nothing, and the
    parent's channels stay as they were.
    """
    global _POOL_LOCK
    _POOL_LOCK = threading.Lock()
    for channel in _POOL.values():
        channel.close()
    _POOL.clear()


atexit.register(_close_pool)
os.register_at_fork(after_in_child=_drop_pool_in_child)


class RemoteScheduler(Scheduler):
    """Dispatch fingerprinted tasks to ``freqywm worker`` processes.

    Parameters
    ----------
    addresses : Sequence[str]
        Worker addresses (:func:`parse_address` forms). One loop on the
        thread that calls :meth:`run` serves them all; ``workers``
        equals the address count.
    max_retries : int, optional
        Resubmissions per task after a worker is lost (default 1 —
        retried exactly once, matching the local scheduler).
    heartbeat_interval : float, optional
        Seconds of silence before a liveness probe is sent.
    heartbeat_timeout : float, optional
        Seconds of *total* silence (no result, no probe answer) after
        which a worker is declared dead.
    connect_timeout : float, optional
        Seconds allowed for the initial connection per worker.
    """

    def __init__(
        self,
        addresses: Sequence[str],
        *,
        max_retries: int = 1,
        heartbeat_interval: float = 1.0,
        heartbeat_timeout: float = 10.0,
        connect_timeout: float = 10.0,
    ) -> None:
        if max_retries < 0:
            raise SchedulerError(f"max_retries must be >= 0, got {max_retries}")
        if heartbeat_timeout <= 0 or heartbeat_interval <= 0:
            raise SchedulerError("heartbeat interval/timeout must be positive")
        super().__init__()
        self.addresses = tuple(addresses)
        self._check_addresses()
        self.workers = len(self.addresses)
        self.max_retries = max_retries
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.connect_timeout = connect_timeout
        self._channels: Dict[str, _Channel] = {}
        self._dead: set = set()
        # Per-run state, set by _run_traced.
        self._selector: Optional[selectors.BaseSelector] = None
        self._specs: List[TaskSpec] = []
        self._queue: deque = deque()
        self._attempts: List[int] = []
        self._results: Dict[int, Any] = {}
        self._on_result: Optional[Callable[[int, Any], None]] = None
        #: Task indices resent with their blob refs materialised after
        #: a blob miss (the client evicted a digest a worker asked for).
        self._inline_only: set = set()

    @property
    def ships_payloads(self) -> bool:
        """Always true: every task crosses a socket to another host."""
        return True

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Release every worker connection (idempotent).

        An idle, drained channel is kept for the next scheduler of this
        process that serves its address; one with work in flight closes.
        """
        for channel in self._channels.values():
            if not _pool_put(channel):
                channel.close()
        self._channels.clear()

    def _check_addresses(self) -> None:
        """Fail fast on a missing or malformed worker address."""
        if not self.addresses:
            raise SchedulerError("RemoteScheduler needs at least one worker address")
        for address in self.addresses:
            parse_address(address)

    def _connect(self, address: str) -> _Channel:
        """The channel to one worker: this scheduler's, a kept one, or a new one.

        A kept channel whose worker has gone since is replaced by one
        fresh connect, which charges nothing to the worker.
        """
        channel = self._channels.get(address) or _pool_take(address)
        if channel is None:
            kind, target = parse_address(address)
            if kind == "unix":
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                try:
                    sock.settimeout(self.connect_timeout)
                    sock.connect(target)
                except BaseException:
                    sock.close()
                    raise
            else:
                sock = socket.create_connection(target, timeout=self.connect_timeout)
            channel = _Channel(address, sock)
        self._channels[address] = channel
        return channel

    def _drop(self, address: str) -> None:
        """Forget a dead worker's connection (and stop selecting on it)."""
        channel = self._channels.pop(address, None)
        if channel is not None:
            if self._selector is not None and channel.events:
                self._selector.unregister(channel.sock)
            channel.close()

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def run(
        self,
        tasks: Sequence[TaskSpec],
        *,
        on_result: Optional[Callable[[int, Any], None]] = None,
    ) -> List[Any]:
        """Fan ``tasks`` out to the workers; results in submission order."""
        specs = list(tasks)
        if not specs:
            return []
        self.stats.tasks += len(specs)
        with trace_span(
            "scheduler.run",
            attributes={"scheduler": "remote", "tasks": len(specs)},
        ) as run_span:
            context = run_span.context
            if context is not None:
                specs = [
                    replace(spec, trace=context) if spec.trace is None else spec
                    for spec in specs
                ]
            return self._run_traced(specs, on_result)

    def _run_traced(
        self,
        specs: List[TaskSpec],
        on_result: Optional[Callable[[int, Any], None]],
    ) -> List[Any]:
        """The fan-out body behind :meth:`run` (specs already counted and stamped).

        Serves every worker from one selector on this thread until each
        task has its result; ``on_result`` runs here too. A typed task
        failure, an exhausted retry budget or the loss of every worker
        raises at once. Channels outlive the run with whatever they
        still have in flight, and the next run reads on from there.
        """
        for address in [a for a in self.addresses if a in self._dead]:
            self._respawn(address)  # a worker lost after its run had settled
        live = [address for address in self.addresses if address not in self._dead]
        if not live:
            raise SchedulerError(
                "no live remote workers left "
                f"(all of {list(self.addresses)} marked dead)"
            )
        self._specs = specs
        self._queue = deque(range(len(specs)))
        self._attempts = [1] * len(specs)
        self._results = {}
        self._on_result = on_result
        self._inline_only = set()
        self._selector = selectors.DefaultSelector()
        try:
            for address in live:
                self._enlist(address)
            while len(self._results) < len(specs):
                self._dispatch()
                self._poll()
        finally:
            self._selector.close()
            self._selector = None
            for channel in self._channels.values():
                channel.events = 0
                channel.index = None  # whatever is still in flight is stale now
        return [self._results[index] for index in range(len(specs))]

    def _enlist(self, address: str) -> None:
        """Serve ``address`` in this run's loop, connecting if need be."""
        try:
            channel = self._connect(address)
        except (OSError, ChannelLost) as error:
            self._drop(address)
            self._lose(address, None, f"cannot connect: {error}")
            return
        # Nothing was read between runs: a task left in flight by an
        # earlier run is timed from now.
        channel.heard_at = time.monotonic()
        channel.watch(self._selector)

    def _dispatch(self) -> None:
        """Give every idle worker the next queued task."""
        while self._queue:
            channel = next(
                (c for c in self._channels.values() if c.request_id is None), None
            )
            if channel is None:
                return
            index = self._queue.popleft()
            try:
                self._send_task(channel, index)
            except ChannelLost as error:
                self._lose(channel.address, index, str(error))

    def _poll(self) -> None:
        """Wait for socket events or the next heartbeat deadline; serve both."""
        now = time.monotonic()
        deadline = now + self.heartbeat_interval
        for channel in self._channels.values():
            channel.watch(self._selector)
            if channel.request_id is not None:
                deadline = min(
                    deadline,
                    max(channel.heard_at, channel.probed_at) + self.heartbeat_interval,
                    channel.heard_at + self.heartbeat_timeout,
                )
        for key, mask in self._selector.select(max(0.0, deadline - now)):
            channel = key.data
            if self._channels.get(channel.address) is not channel:
                continue  # lost while serving an earlier event of this batch
            try:
                if mask & selectors.EVENT_WRITE:
                    channel.flush()
                if mask & selectors.EVENT_READ:
                    channel.receive()
                    for response, frames in channel.messages():
                        self._handle(channel, response, frames)
            except ChannelLost as error:
                self._lose(channel.address, channel.index, str(error))
        self._check_liveness()

    def _check_liveness(self) -> None:
        """Lose each busy worker silent past the timeout; probe the quiet ones."""
        now = time.monotonic()
        for channel in list(self._channels.values()):
            if channel.request_id is None:
                continue
            if now - channel.heard_at >= self.heartbeat_timeout:
                task = (
                    repr(self._specs[channel.index].fingerprint)
                    if channel.index is not None
                    else "of an earlier run"
                )
                self._lose(
                    channel.address,
                    channel.index,
                    f"worker {channel.address} silent for more than "
                    f"{self.heartbeat_timeout:.1f}s (task {task} in flight)",
                )
            elif now - max(channel.heard_at, channel.probed_at) >= self.heartbeat_interval:
                channel.probed_at = now
                probe = TaskRequest(
                    request_id=f"hb-{next(_REQUEST_IDS)}", function=HEARTBEAT_FUNCTION
                )
                try:
                    channel.send(encode_line(probe))
                except ChannelLost as error:
                    self._lose(channel.address, channel.index, str(error))

    def _send_task(self, channel: _Channel, index: int) -> None:
        """Ship one task line plus its payload and init-args frames.

        The line references the task's blob digests unless its refs
        were materialised after a blob miss. A payload that cannot be
        pickled fails the run with a :class:`SchedulerError`.
        """
        spec = self._specs[index]
        if index in self._inline_only:
            spec = self._inline_spec(spec)
        try:
            payload_frames = dumps_oob(spec.payload).frames()
            init_frames = dumps_oob(spec.init_args).frames() if spec.init_args else []
        except Exception as error:  # noqa: BLE001 - a client-side failure, typed
            raise SchedulerError(
                f"worker client for {channel.address} failed: "
                f"{type(error).__name__}: {error}"
            ) from error
        frames = payload_frames + init_frames
        request_id = f"task-{index}-{self._attempts[index]}-{next(_REQUEST_IDS)}"
        request = TaskRequest(
            request_id=request_id,
            function=spec.function,
            initializer=spec.initializer,
            init_key=spec.init_key,
            fingerprint=spec.fingerprint,
            blob_refs=spec.blob_refs,
            frames=tuple(len(frame) for frame in frames),
            payload_frames=len(payload_frames),
            init_frames=len(init_frames),
            trace=spec.trace,
        )
        channel.start(request_id, index, spec.blob_refs)
        self.stats.bytes_sent += channel.send(encode_line(request), frames)

    def _handle(self, channel: _Channel, response: Any, frames: List[bytes]) -> None:
        """Act on one message from a worker.

        A ``blob-request`` is answered from the blob store, whichever
        task asked. A result for the channel's request frees the
        worker; one for the current run is stored (and streamed to
        ``on_result``), resent inline after a blob miss or raised as its
        typed error. Every referenced digest the worker did not request
        before a successful result came from its own cache, and counts
        as deduped. Anything else (heartbeat acks, stale duplicates) was
        only a sign of life.
        """
        if isinstance(response, BlobRequest):
            if response.request_id == channel.request_id:
                channel.requested.add(response.digest)
            self._answer_blob_request(channel, response)
            return
        if not isinstance(response, TaskResult) or response.request_id != channel.request_id:
            return
        index, refs, requested = channel.index, channel.refs, channel.requested
        channel.start(None, None)
        if index is None:
            return  # a task an earlier run left in flight: the worker is free
        if response.spans:
            tracer().ingest(response.spans)
        if not response.ok:
            if response.error_type == "BlobNotFoundError":
                self._retry_inline(index, response.error or "worker missed a blob")
                return
            raise _remote_error(response)
        self._count_deduped([digest for digest in refs if digest not in requested])
        try:
            value = loads_oob(BlobData.from_frames(frames))
        except ReproError:
            raise
        except Exception as error:  # noqa: BLE001 - a client-side failure, typed
            raise SchedulerError(
                f"worker client for {channel.address} failed: "
                f"{type(error).__name__}: {error}"
            ) from error
        self._results[index] = value
        if self._on_result is not None:
            self._on_result(index, value)

    def _retry_inline(self, index: int, reason: str) -> None:
        """Re-queue a task whose worker missed a blob the client evicted.

        The worker is healthy and the task never ran. The resubmission
        carries its refs materialised, under the same bounded-attempt
        budget a crash gets.
        """
        if self._attempts[index] > self.max_retries:
            spec = self._specs[index]
            raise WorkerCrashError(
                f"task {spec.fingerprint!r} lost to a blob miss "
                f"({self._attempts[index]} attempts, retries exhausted): {reason}",
                fingerprint=spec.fingerprint,
                attempts=self._attempts[index],
            )
        self._attempts[index] += 1
        self._inline_only.add(index)
        self._queue.append(index)

    def _count_deduped(self, digests: Sequence[str]) -> None:
        """Count ``digests`` a worker served from its own blob cache.

        Shipping each by value would have cost its full serialised size.
        The worker's cache outlives this scheduler, so a blob shipped by
        an earlier scheduler counts here too.
        """
        store = default_blob_store()
        self.stats.blobs_deduped += len(digests)
        self.stats.bytes_deduped += sum(store.size_of(d) for d in digests)

    @staticmethod
    def _inline_spec(spec: TaskSpec) -> TaskSpec:
        """A spec with its blob refs materialised back into values."""
        if not spec.blob_refs:
            return spec
        return replace(
            spec,
            payload=resolve_refs(spec.payload),
            init_args=resolve_refs(spec.init_args),
            blob_refs=(),
        )

    def _answer_blob_request(self, channel: _Channel, request: BlobRequest) -> None:
        """Queue the answer to a worker's ``blob-request`` from the process-wide store."""
        try:
            data = default_blob_store().get(request.digest)
        except BlobNotFoundError as error:
            channel.send(
                encode_line(
                    BlobResponse(
                        request_id=request.request_id,
                        digest=request.digest,
                        ok=False,
                        error=str(error),
                        error_type="BlobNotFoundError",
                    )
                )
            )
            return
        frames = data.frames()
        line = encode_line(
            BlobResponse(
                request_id=request.request_id,
                digest=request.digest,
                ok=True,
                frames=tuple(len(frame) for frame in frames),
            )
        )
        with trace_span(
            "blob.ship", attributes={"transport": "wire", "bytes": data.size}
        ):
            self.stats.bytes_sent += channel.send(line, frames)
        self.stats.blobs_sent += 1

    def _lose(self, address: str, index: Optional[int], reason: str) -> None:
        """Mark a worker dead, replace it if it can be, then settle its task."""
        self._dead.add(address)
        self._drop(address)
        replacement = self._respawn(address)
        if replacement is not None:
            self._enlist(replacement)
        self._settle(address, index, reason)

    def _respawn(self, address: str) -> Optional[str]:
        """A replacement for the lost worker ``address`` (remote ones: None)."""
        return None

    def _settle(self, address: str, index: Optional[int], reason: str) -> None:
        """Re-queue (or fail) a lost worker's in-flight task."""
        if index is not None:
            spec = self._specs[index]
            if self._attempts[index] > self.max_retries:
                raise WorkerCrashError(
                    f"remote worker {address} lost running task "
                    f"{spec.fingerprint!r} "
                    f"({self._attempts[index]} attempts, retries "
                    "exhausted): " + reason,
                    fingerprint=spec.fingerprint,
                    attempts=self._attempts[index],
                )
            self._attempts[index] += 1
            self._queue.append(index)
            logger.warning(
                "worker %s lost task %s (%s); resubmitting (attempt %d)",
                address, spec.fingerprint, reason, self._attempts[index],
            )
        if all(a in self._dead for a in self.addresses) and len(self._results) < len(
            self._specs
        ):
            raise SchedulerError(
                f"all remote workers died; last loss at {address}: {reason}"
            )


# --------------------------------------------------------------------- #
# Forked local children
# --------------------------------------------------------------------- #


class _ForkedWorkers(RemoteScheduler):
    """The private seam between a LocalScheduler and its forked children.

    Each child is a fork of the driver serving a ``TaskWorkerServer`` on
    one end of a socketpair. The driver keeps the other end as the
    channel of ``fork:<pid>``, and the client above does the rest
    (the local scheduler calls ``_run_traced`` with specs it has already
    counted and stamped). A lost child is reaped and replaced before its
    task is requeued.
    """

    def __init__(self, workers: int, *, max_retries: int, stats: SchedulerStats) -> None:
        super().__init__((), max_retries=max_retries)
        self.stats = stats  # the local scheduler's counters
        self._pids: Dict[str, int] = {}
        try:
            self.addresses = tuple(self._fork() for _ in range(workers))
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        """Close every channel, then kill and reap every child (idempotent).

        A child's channel is never kept for another scheduler.
        """
        for address in list(self._pids):
            self._reap(address)
        for address in list(self._channels):
            self._drop(address)

    def _check_addresses(self) -> None:
        """Nothing to check: children join through :meth:`_fork`."""

    def _connect(self, address: str) -> _Channel:
        """A child's channel; a child is never reconnected."""
        channel = self._channels.get(address)
        if channel is None:
            raise ChannelLost(f"{address} has no channel left")
        return channel

    def _fork(self) -> str:
        """Start one child and return its name."""
        parent_end, child_end = socket.socketpair()
        try:
            with warnings.catch_warnings():
                # Python 3.12+ warns on every fork of a threaded process;
                # the locks the child takes are re-created in it at fork.
                warnings.filterwarnings(
                    "ignore", r".*fork\(\) may lead to deadlocks", DeprecationWarning
                )
                pid = os.fork()
        except BaseException:
            parent_end.close()
            child_end.close()
            raise
        if pid == 0:
            _serve_forked(child_end)
        child_end.close()
        name = f"fork:{pid}"
        self._pids[name] = pid
        self._channels[name] = _Channel(name, parent_end)
        return name

    def _respawn(self, address: str) -> Optional[str]:
        """Reap the lost child and fork its replacement (None if that fails)."""
        self._reap(address)
        try:
            replacement = self._fork()
        except (OSError, RuntimeError) as error:
            logger.warning("cannot replace worker %s (%r)", address, error)
            return None
        self.addresses = tuple(replacement if a == address else a for a in self.addresses)
        return replacement

    def _reap(self, address: str) -> None:
        """Close one child's channel, then kill it and wait for it."""
        self._drop(address)
        pid = self._pids.pop(address, None)
        if pid is not None:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)


def _serve_forked(sock: socket.socket) -> NoReturn:
    """A forked child's life: serve ``sock`` until EOF, then ``os._exit``.

    Only its socket and stdio stay open (closing the driver's end is its
    EOF), the inherited heap is frozen (no stale object closes a reused
    descriptor), and it serves outside the span that forked it.
    """
    status = 1
    try:
        gc.freeze()
        keep = sock.fileno()
        os.closerange(3, keep)
        os.closerange(keep + 1, os.sysconf("SC_OPEN_MAX"))
        server = TaskWorkerServer()
        server.blobs = default_blob_store()
        contextvars.Context().run(server.serve, sock, listening=False)
        status = 0
    finally:
        os._exit(status)


__all__ = ["RemoteScheduler", "parse_address"]
