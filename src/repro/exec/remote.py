"""The worker client: tasks over the JSON-lines wire.

:class:`RemoteScheduler` implements the
:class:`~repro.exec.scheduler.Scheduler` API by dispatching each
:class:`~repro.exec.scheduler.TaskSpec` as one
``task`` line (:mod:`repro.service.wire`) to a ``freqywm worker``
process reachable by Unix socket or TCP, and reads one ``result`` line
back. The distribution model is deliberately plain:

* one client thread per worker address pulls indices off a shared work
  queue, so a fast worker simply takes more tasks (work stealing by
  construction, no partitioning step);
* while a task runs remotely, the client probes liveness with
  ``__heartbeat__`` task lines — the worker answers them on its event
  loop even mid-task. A connection that stays silent past the heartbeat
  timeout (or drops) marks that worker **dead**: its in-flight
  fingerprint is *not* lost but re-queued, and another worker picks it
  up, up to ``max_retries`` resubmissions before
  :class:`~repro.exceptions.WorkerCrashError` surfaces. A lost worker
  that can be replaced (a local scheduler's forked child) is replaced
  before its task is re-queued;
* results are gathered **in submission order** regardless of which
  worker answered first.

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

import asyncio
import contextlib
import contextvars
import gc
import itertools
import os
import signal
import socket
import threading
import time
import warnings
from collections import deque
from dataclasses import replace
from typing import Any, Callable, Dict, List, NoReturn, Optional, Sequence, Tuple, Union

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
from repro.exec.scheduler import Scheduler, SchedulerStats, TaskSpec
from repro.exec.worker import TaskWorkerServer
from repro.obs.logging import get_logger
from repro.obs.trace import span as trace_span, tracer
from repro.service.wire import (
    HEARTBEAT_FUNCTION,
    MAX_LINE_BYTES,
    BlobRequest,
    BlobResponse,
    TaskRequest,
    TaskResult,
    decode_response,
    encode_line,
)

logger = get_logger(__name__)


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


class _WorkerDied(Exception):
    """Internal: the connection to one worker is gone (retry elsewhere)."""


class _RetryInline(Exception):
    """Internal: the worker misses a blob the client evicted.

    The task itself never ran — re-queue it with its blob refs
    materialised so the resubmission's frames carry full values, under
    the same bounded-attempt budget as a crash.
    """


class _LineChannel:
    """Blocking JSON-lines channel over one socket, with recv timeouts.

    :meth:`send_payload` writes a header line followed by raw frame
    bytes, and :meth:`recv_exact` reads a frame body announced by a
    decoded header. Line and frame reads share one
    buffer, so interleaving them never loses stream position.
    """

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._buffer = bytearray()

    def send_line(self, line: str) -> int:
        """Write one line (appending the newline delimiter); bytes sent."""
        data = line.encode("utf-8") + b"\n"
        try:
            self._sock.sendall(data)
        except OSError as error:
            raise _WorkerDied(f"send failed: {error}") from error
        return len(data)

    def send_payload(self, line: str, frames: Sequence[Union[bytes, memoryview]]) -> int:
        """Write a header line plus its binary frames; total bytes sent.

        Frames go out with separate ``sendall`` calls so large NumPy
        buffers are never copied into a joined bytestring first.
        """
        total = self.send_line(line)
        try:
            for frame in frames:
                self._sock.sendall(frame)
                total += len(frame)
        except OSError as error:
            raise _WorkerDied(f"send failed: {error}") from error
        return total

    def recv_exact(self, count: int, timeout: float) -> bytes:
        """Exactly ``count`` frame bytes, or :class:`_WorkerDied`.

        A timeout mid-frame is fatal for the connection (the stream
        position is unrecoverable), unlike :meth:`recv_line`'s soft
        ``None`` — the caller treats the worker as lost.
        """
        deadline = time.monotonic() + timeout
        while len(self._buffer) < count:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise _WorkerDied(
                    f"worker stalled mid-frame ({len(self._buffer)}/{count} bytes)"
                )
            self._sock.settimeout(remaining)
            try:
                data = self._sock.recv(max(65536, count - len(self._buffer)))
            except (TimeoutError, socket.timeout):
                continue
            except OSError as error:
                raise _WorkerDied(f"recv failed: {error}") from error
            if not data:
                raise _WorkerDied("worker closed the connection mid-frame")
            self._buffer.extend(data)
        frame = bytes(self._buffer[:count])
        del self._buffer[:count]
        return frame

    def recv_line(self, timeout: float) -> Optional[str]:
        """One decoded line, or None when ``timeout`` elapses first."""
        while b"\n" not in self._buffer:
            self._sock.settimeout(timeout)
            try:
                data = self._sock.recv(65536)
            except (TimeoutError, socket.timeout):
                return None
            except OSError as error:
                raise _WorkerDied(f"recv failed: {error}") from error
            if not data:
                raise _WorkerDied("worker closed the connection")
            self._buffer.extend(data)
        line, _, rest = bytes(self._buffer).partition(b"\n")
        self._buffer = bytearray(rest)
        return line.decode("utf-8")

    def close(self) -> None:
        """Close the underlying socket (idempotent, errors swallowed)."""
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass


class RemoteScheduler(Scheduler):
    """Dispatch fingerprinted tasks to ``freqywm worker`` processes.

    Parameters
    ----------
    addresses : Sequence[str]
        Worker addresses (:func:`parse_address` forms). One client
        thread serves each; ``workers`` equals the address count.
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
        self._channels: Dict[str, _LineChannel] = {}
        self._dead: set = set()
        self._sequence = itertools.count()
        self._stats_lock = threading.Lock()
        # Per-run state, guarded by _cond's lock.
        self._cond = threading.Condition()
        self._specs: List[TaskSpec] = []
        self._queue: deque = deque()
        self._attempts: List[int] = []
        self._results: Dict[int, Any] = {}
        self._failure: Optional[BaseException] = None
        self._on_result: Optional[Callable[[int, Any], None]] = None
        #: Task indices resent with their blob refs materialised after
        #: a blob miss (the client evicted a digest a worker asked for).
        self._inline_only: set = set()
        #: Workers lost this run, ``(address, in-flight index, reason)``,
        #: left for the thread that called :meth:`run` to settle.
        self._lost: List[Tuple[str, Optional[int], str]] = []

    @property
    def ships_payloads(self) -> bool:
        """Always true: every task crosses a socket to another host."""
        return True

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Drop every worker connection (idempotent)."""
        for channel in self._channels.values():
            channel.close()
        self._channels.clear()

    def _check_addresses(self) -> None:
        """Fail fast on a missing or malformed worker address."""
        if not self.addresses:
            raise SchedulerError("RemoteScheduler needs at least one worker address")
        for address in self.addresses:
            parse_address(address)

    def _connect(self, address: str) -> _LineChannel:
        """The (cached) channel to one worker, connecting on first use."""
        channel = self._channels.get(address)
        if channel is not None:
            return channel
        kind, target = parse_address(address)
        if kind == "unix":
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(self.connect_timeout)
            sock.connect(target)
        else:
            sock = socket.create_connection(target, timeout=self.connect_timeout)
        channel = _LineChannel(sock)
        self._channels[address] = channel
        return channel

    def _drop(self, address: str) -> None:
        """Forget a dead worker's connection."""
        channel = self._channels.pop(address, None)
        if channel is not None:
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
        """The fan-out body behind :meth:`run` (specs already counted and stamped)."""
        for address in [a for a in self.addresses if a in self._dead]:
            self._respawn(address)  # a worker lost after its run had settled
        live = [address for address in self.addresses if address not in self._dead]
        if not live:
            raise SchedulerError(
                "no live remote workers left "
                f"(all of {list(self.addresses)} marked dead)"
            )
        with self._cond:
            self._specs = specs
            self._queue = deque(range(len(specs)))
            self._attempts = [1] * len(specs)
            self._results = {}
            self._failure = None
            self._on_result = on_result
            self._inline_only = set()
            self._lost = []
        threads = [self._start_client(address) for address in live]
        while True:
            with self._cond:
                while not self._lost and not self._finished():
                    self._cond.wait(0.05)
                lost, self._lost = self._lost, []
                failure = self._failure
            if not lost:
                break
            # Replace each lost worker (if it can be) before requeueing
            # its task, on the thread that called run().
            for address, index, reason in lost:
                replacement = self._respawn(address)
                if replacement is not None:
                    threads.append(self._start_client(replacement))
                self._settle(address, index, reason)
        for thread in threads:
            thread.join(timeout=self.heartbeat_timeout + 1.0)
        if failure is not None:
            raise failure
        return [self._results[index] for index in range(len(specs))]

    def _start_client(self, address: str) -> threading.Thread:
        """Start ``address``'s client thread, in a copy of this context so
        the spans it opens (line encoding, blob shipping) nest under
        ``scheduler.run``."""
        thread = threading.Thread(
            target=contextvars.copy_context().run,
            args=(self._serve, address),
            daemon=True,
            name=f"repro-remote-{address}",
        )
        thread.start()
        return thread

    def _finished(self) -> bool:
        """Run-complete predicate (callers hold the condition's lock)."""
        return self._failure is not None or len(self._results) >= len(self._specs)

    def _serve(self, address: str) -> None:
        """One worker's client loop: pull indices, dispatch, collect."""
        try:
            channel = self._connect(address)
        except (OSError, _WorkerDied) as error:
            self._drop(address)
            self._lose_worker(address, None, f"cannot connect: {error}")
            return
        while True:
            with self._cond:
                while not self._queue and not self._finished():
                    # Idle but the run is live: another worker may still
                    # crash and re-queue its in-flight task, so poll.
                    self._cond.wait(0.05)
                if self._finished():
                    return
                index = self._queue.popleft()
                attempt = self._attempts[index]
            try:
                value = self._execute(channel, address, index, attempt)
            except _RetryInline as error:
                # The worker is healthy; the client side evicted a blob
                # it asked for. Re-queue the task with its refs
                # materialised under the same bounded-attempt budget a
                # crash gets, and keep serving.
                with self._cond:
                    if self._attempts[index] > self.max_retries:
                        if self._failure is None:
                            spec = self._specs[index]
                            self._failure = WorkerCrashError(
                                f"task {spec.fingerprint!r} lost to a blob "
                                f"miss ({self._attempts[index]} attempts, "
                                f"retries exhausted): {error}",
                                fingerprint=spec.fingerprint,
                                attempts=self._attempts[index],
                            )
                        self._cond.notify_all()
                        return
                    self._attempts[index] += 1
                    self._inline_only.add(index)
                    self._queue.append(index)
                    self._cond.notify_all()
                continue
            except _WorkerDied as error:
                self._drop(address)
                self._lose_worker(address, index, str(error))
                return
            except ReproError as error:
                # The task itself failed remotely: a typed library error,
                # not an infrastructure loss. Propagate, no retry — the
                # same task would fail the same way anywhere.
                with self._cond:
                    if self._failure is None:
                        self._failure = error
                    self._cond.notify_all()
                return
            except Exception as error:  # noqa: BLE001 - must never hang run()
                # A client-side bug (malformed wire line, codec error)
                # must surface as the run's failure, not as a silently
                # dead thread that leaves run() waiting forever.
                with self._cond:
                    if self._failure is None:
                        self._failure = SchedulerError(
                            f"worker client for {address} failed: "
                            f"{type(error).__name__}: {error}"
                        )
                    self._cond.notify_all()
                return
            with self._cond:
                if index not in self._results:
                    self._results[index] = value
                    if self._on_result is not None:
                        self._on_result(index, value)
                self._cond.notify_all()

    def _send_task(
        self, channel: _LineChannel, index: int, request_id: str
    ) -> Tuple[str, ...]:
        """Ship one task line plus its payload and init-args frames.

        Returns the blob digests the line references (none once the
        task's refs are materialised after a blob miss).
        """
        spec = self._specs[index]
        if index in self._inline_only:
            spec = self._inline_spec(spec)
        payload_frames = dumps_oob(spec.payload).frames()
        init_frames = dumps_oob(spec.init_args).frames() if spec.init_args else []
        frames = payload_frames + init_frames
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
        sent = channel.send_payload(encode_line(request), frames)
        with self._stats_lock:
            self.stats.bytes_sent += sent
        return spec.blob_refs

    def _count_deduped(self, digests: Sequence[str]) -> None:
        """Count ``digests`` a worker served from its own blob cache.

        Shipping each by value would have cost its full serialised size.
        The worker's cache outlives this scheduler, so a blob shipped by
        an earlier scheduler counts here too.
        """
        store = default_blob_store()
        with self._stats_lock:
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

    def _answer_blob_request(
        self, channel: _LineChannel, request: BlobRequest
    ) -> None:
        """Serve a worker's ``blob-request`` from the process-wide store."""
        try:
            data = default_blob_store().get(request.digest)
        except BlobNotFoundError as error:
            channel.send_line(
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
            sent = channel.send_payload(line, frames)
        with self._stats_lock:
            self.stats.bytes_sent += sent
            self.stats.blobs_sent += 1

    def _execute(
        self, channel: _LineChannel, address: str, index: int, attempt: int
    ) -> Any:
        """Send one task and await its result, heartbeating in between.

        Mid-flight the worker may interleave ``blob-request`` lines
        (answered inline from the blob store) and framed results. A
        framed result's frames are consumed *immediately* after its
        header — before the request-id match check — because skipping
        them would desynchronise the byte stream. Every referenced
        digest the worker did not request before a successful result
        came from its own cache, and counts as deduped.
        """
        spec = self._specs[index]
        request_id = f"task-{index}-{attempt}-{next(self._sequence)}"
        refs = self._send_task(channel, index, request_id)
        requested: set = set()
        last_heard = time.monotonic()
        while True:
            line = channel.recv_line(timeout=self.heartbeat_interval)
            now = time.monotonic()
            if line is None:
                if now - last_heard >= self.heartbeat_timeout:
                    raise _WorkerDied(
                        f"worker {address} silent for more than "
                        f"{self.heartbeat_timeout:.1f}s (task "
                        f"{spec.fingerprint!r} in flight)"
                    )
                channel.send_line(
                    encode_line(
                        TaskRequest(
                            request_id=f"hb-{next(self._sequence)}",
                            function=HEARTBEAT_FUNCTION,
                        )
                    )
                )
                continue
            last_heard = now
            response = decode_response(line)
            if isinstance(response, BlobRequest):
                requested.add(response.digest)
                self._answer_blob_request(channel, response)
                continue
            if not isinstance(response, TaskResult):
                continue  # not ours (future wire chatter): liveness only
            frame_bytes: List[bytes] = []
            if response.frames:
                # Consume the announced frames unconditionally to keep
                # the stream in sync, even for a stale duplicate.
                frame_bytes = [
                    channel.recv_exact(size, self.heartbeat_timeout)
                    for size in response.frames
                ]
            if response.request_id != request_id:
                continue  # heartbeat acks and stale duplicates
            if response.spans:
                tracer().ingest(response.spans)
            if response.ok:
                self._count_deduped([d for d in refs if d not in requested])
                return loads_oob(BlobData.from_frames(frame_bytes))
            if response.error_type == "BlobNotFoundError":
                raise _RetryInline(response.error or "worker missed a blob")
            raise _remote_error(response)

    def _lose_worker(self, address: str, index: Optional[int], reason: str) -> None:
        """Mark a worker dead and hand its in-flight task to the run thread."""
        with self._cond:
            self._dead.add(address)
            self._lost.append((address, index, reason))
            self._cond.notify_all()

    def _respawn(self, address: str) -> Optional[str]:
        """A replacement for the lost worker ``address`` (remote ones: None)."""
        return None

    def _settle(self, address: str, index: Optional[int], reason: str) -> None:
        """Re-queue (or fail) a lost worker's in-flight task."""
        with self._cond:
            if index is not None:
                spec = self._specs[index]
                if self._attempts[index] > self.max_retries:
                    if self._failure is None:
                        self._failure = WorkerCrashError(
                            f"remote worker {address} lost running task "
                            f"{spec.fingerprint!r} "
                            f"({self._attempts[index]} attempts, retries "
                            "exhausted): " + reason,
                            fingerprint=spec.fingerprint,
                            attempts=self._attempts[index],
                        )
                else:
                    self._attempts[index] += 1
                    self._queue.append(index)
                    logger.warning(
                        "worker %s lost task %s (%s); resubmitting (attempt %d)",
                        address, spec.fingerprint, reason, self._attempts[index],
                    )
            all_dead = all(a in self._dead for a in self.addresses)
            if all_dead and not self._finished() and self._failure is None:
                self._failure = SchedulerError(
                    f"all remote workers died; last loss at {address}: {reason}"
                )
            self._cond.notify_all()


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
        """Close every channel, then kill and reap every child (idempotent)."""
        for address in list(self._pids):
            self._reap(address)
        super().close()

    def _check_addresses(self) -> None:
        """Nothing to check: children join through :meth:`_fork`."""

    def _connect(self, address: str) -> _LineChannel:
        """A child's channel; a child is never reconnected."""
        channel = self._channels.get(address)
        if channel is None:
            raise _WorkerDied(f"{address} has no channel left")
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
        self._channels[name] = _LineChannel(parent_end)
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

        async def serve() -> None:
            reader, writer = await asyncio.open_connection(sock=sock, limit=MAX_LINE_BYTES)
            await server.handle_connection(reader, writer)

        contextvars.Context().run(asyncio.run, serve())
        status = 0
    finally:
        os._exit(status)


__all__ = ["RemoteScheduler", "parse_address"]
