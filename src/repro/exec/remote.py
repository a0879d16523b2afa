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
  ``__heartbeat__`` task lines — the worker answers them on its event
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
import selectors
import signal
import socket
import time
import warnings
from collections import deque
from dataclasses import replace
from typing import Any, Callable, Dict, Iterator, List, NoReturn, Optional, Sequence, Tuple, Union

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

#: Bytes asked of one ``recv`` while no announced frame is pending.
_RECV_BYTES = 1 << 16

#: Upper bound on one ``recv`` while a large frame is arriving.
_RECV_MAX = 1 << 20

#: Buffers handed to one ``sendmsg`` call (well under any ``IOV_MAX``).
_SEND_BATCH = 64


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


class _Channel:
    """One worker connection as the run loop drives it.

    A non-blocking socket, an inbound buffer that :meth:`messages` cuts
    into complete ``(response, frames)`` messages, and an outbound queue
    of buffers that :meth:`flush` writes as far as the socket takes
    them. Line and frame reads share the one buffer, so a result's
    frames are consumed right after its header whoever it answers, and
    the stream never loses position. The channel also holds its one
    request in flight: ``request_id`` (``None`` when idle) and
    ``index``, the current run's task it carries (``None`` for a task
    left running by an earlier run).
    """

    def __init__(self, address: str, sock: socket.socket) -> None:
        sock.setblocking(False)
        self.address = address
        self.sock = sock
        self._inbound = bytearray()
        #: A decoded line whose announced frames have not all arrived.
        self._pending: Optional[Tuple[Any, Tuple[int, ...]]] = None
        self._outbound: deque = deque()
        #: Selector events this channel is registered for, 0 when it is not.
        self.events = 0
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

    def send(self, line: str, frames: Sequence[Union[bytes, memoryview]] = ()) -> int:
        """Queue a header line plus its binary frames; total bytes queued.

        What the socket takes at once is written here; the rest waits
        for :meth:`flush`. Frames are queued as views, so large NumPy
        buffers are never copied into a joined bytestring.
        """
        head = memoryview((line + "\n").encode("utf-8"))
        self._outbound.append(head)
        total = head.nbytes
        for frame in frames:
            view = memoryview(frame).cast("B")
            if view.nbytes:
                self._outbound.append(view)
                total += view.nbytes
        self.flush()
        return total

    @property
    def writing(self) -> bool:
        """Whether queued bytes wait for the socket to become writable."""
        return bool(self._outbound)

    def flush(self) -> None:
        """Write queued bytes until the queue empties or the socket is full."""
        outbound = self._outbound
        while outbound:
            try:
                sent = self.sock.sendmsg(list(itertools.islice(outbound, _SEND_BATCH)))
            except BlockingIOError:
                return
            except OSError as error:
                raise _WorkerDied(f"send failed: {error}") from error
            while sent:
                head = outbound[0]
                if sent < head.nbytes:
                    outbound[0] = head[sent:]
                    break
                sent -= head.nbytes
                outbound.popleft()

    def receive(self) -> None:
        """Read once from the socket into the inbound buffer.

        Any bytes read count as hearing from the worker; a closed or
        failed connection loses it.
        """
        wanted = _RECV_BYTES
        if self._pending is not None:
            wanted = min(max(wanted, sum(self._pending[1]) - len(self._inbound)), _RECV_MAX)
        try:
            data = self.sock.recv(wanted)
        except BlockingIOError:
            return
        except OSError as error:
            raise _WorkerDied(f"recv failed: {error}") from error
        if not data:
            state = " mid-frame" if self._pending is not None else ""
            raise _WorkerDied(f"worker closed the connection{state}")
        self.heard_at = time.monotonic()
        self._inbound += data

    def messages(self) -> Iterator[Tuple[Any, List[bytes]]]:
        """Each complete buffered message, cut off the buffer as it is yielded.

        A message is a decoded response and the frames its line
        announced (only a ``result`` line announces any). A consumer
        that stops early leaves the rest buffered. A line that does not
        decode, or one longer than ``MAX_LINE_BYTES``, loses the worker,
        since the stream position is gone.
        """
        buffer = self._inbound
        while True:
            if self._pending is None:
                end = buffer.find(b"\n")
                if end < 0:
                    if len(buffer) > MAX_LINE_BYTES:
                        raise _WorkerDied(f"worker line exceeds {MAX_LINE_BYTES} bytes")
                    return
                try:
                    response = decode_response(buffer[:end].decode("utf-8"))
                except (ReproError, ValueError) as error:
                    raise _WorkerDied(f"worker sent an unreadable line: {error}") from error
                del buffer[:end + 1]
                sizes = response.frames if isinstance(response, TaskResult) else ()
                self._pending = (response, sizes)
            response, sizes = self._pending
            if len(buffer) < sum(sizes):
                return
            frames, start = [], 0
            with memoryview(buffer) as view:
                for size in sizes:
                    frames.append(view[start:start + size].tobytes())
                    start += size
            del buffer[:start]
            self._pending = None
            yield response, frames

    def close(self) -> None:
        """Close the underlying socket (idempotent, errors swallowed)."""
        try:
            self.sock.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass


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
        self._sequence = itertools.count()
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

    def _connect(self, address: str) -> _Channel:
        """The (cached) channel to one worker, connecting on first use."""
        channel = self._channels.get(address)
        if channel is not None:
            return channel
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
        except (OSError, _WorkerDied) as error:
            self._drop(address)
            self._lose(address, None, f"cannot connect: {error}")
            return
        # Nothing was read between runs: a task left in flight by an
        # earlier run is timed from now.
        channel.heard_at = time.monotonic()
        channel.events = selectors.EVENT_READ
        self._selector.register(channel.sock, channel.events, channel)

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
            except _WorkerDied as error:
                self._lose(channel.address, index, str(error))

    def _poll(self) -> None:
        """Wait for socket events or the next heartbeat deadline; serve both."""
        now = time.monotonic()
        deadline = now + self.heartbeat_interval
        for channel in self._channels.values():
            events = selectors.EVENT_READ | (
                selectors.EVENT_WRITE if channel.writing else 0
            )
            if events != channel.events:
                channel.events = events
                self._selector.modify(channel.sock, events, channel)
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
            except _WorkerDied as error:
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
                    request_id=f"hb-{next(self._sequence)}", function=HEARTBEAT_FUNCTION
                )
                try:
                    channel.send(encode_line(probe))
                except _WorkerDied as error:
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
        request_id = f"task-{index}-{self._attempts[index]}-{next(self._sequence)}"
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
        """Close every channel, then kill and reap every child (idempotent)."""
        for address in list(self._pids):
            self._reap(address)
        super().close()

    def _check_addresses(self) -> None:
        """Nothing to check: children join through :meth:`_fork`."""

    def _connect(self, address: str) -> _Channel:
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

        async def serve() -> None:
            reader, writer = await asyncio.open_connection(sock=sock, limit=MAX_LINE_BYTES)
            await server.handle_connection(reader, writer)

        contextvars.Context().run(asyncio.run, serve())
        status = 0
    finally:
        os._exit(status)


__all__ = ["RemoteScheduler", "parse_address"]
