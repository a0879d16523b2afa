"""The ``freqywm worker`` process: serves scheduler tasks over the wire.

A worker is one ``selectors`` loop (:meth:`TaskWorkerServer.serve`) over
a listening Unix or TCP socket, or over a forked child's socketpair end.
Each connection is a :class:`~repro.exec.channel.Channel`, as on the
client: ``task`` lines with their frames in, one ``result`` line per task
out. Four properties matter:

* **worker-local state reuse** — :func:`repro.exec.scheduler.run_task`
  caches initializer products (detectors) under their ``init_key``;
* **blob dedup** — for each referenced digest it does not hold, the loop
  sends one ``blob-request`` and parks the task until the blob is in the
  worker's bounded :class:`~repro.exec.blobs.BlobStore`, so a shared
  secret ships once per worker. A blob not delivered within
  :data:`BLOB_FETCH_TIMEOUT` (a select deadline) fails its tasks with
  ``BlobNotFoundError``, and the scheduler resends them inline;
* **heartbeats answer mid-task** — tasks run one at a time on one task
  thread, whose results reach the loop through a queue and a wake-up
  socketpair, so the loop answers a ``__heartbeat__`` probe at once even
  during a long task (how clients tell *slow* from *dead*);
* **failures stay typed** — a task that raises answers with its
  exception's type name and message, and the connection lives on.

``freqywm worker`` (:mod:`repro.cli`) stops the loop on SIGTERM or
SIGINT, announces ``listening on <address>`` on stderr once bound, and
prints a :meth:`TaskWorkerServer.summary_line` on shutdown.
"""

from __future__ import annotations

import contextvars
import json
import queue
import selectors
import socket
import stat
import threading
import time
from collections import deque
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.exceptions import BlobError, BlobNotFoundError, ReproError
from repro.exec.blobs import BlobData, BlobStore, dumps_oob, loads_oob
from repro.exec.channel import Channel, ChannelLost
from repro.exec.scheduler import TaskSpec, run_task, set_state_cache_size
from repro.obs.trace import span as trace_span, tracer
from repro.service.wire import (
    BlobRequest,
    TaskRequest,
    TaskResult,
    announced_frames,
    decode_request,
    encode_line,
    failure_for_line,
)

#: Seconds a task waits for the client to answer a ``blob-request``.
BLOB_FETCH_TIMEOUT = 30.0


def _decode_line(raw: bytearray) -> Tuple[Tuple[str, Optional[Dict[str, Any]]], Tuple[int, ...]]:
    """A line as ``((text, its JSON object or None), announced frame sizes)``.

    A byte that is not UTF-8 reaches the codec, which fails it typed; a
    bad frame announcement loses the connection (and the stream position).
    """
    line = raw.decode("utf-8", "surrogateescape").strip()
    try:
        header = json.loads(line)
    except (ValueError, RecursionError):
        header = None
    if not isinstance(header, dict):
        return (line, None), ()
    try:
        return (line, header), announced_frames(header)
    except ReproError as error:
        raise ChannelLost(str(error)) from None


def _drain_spans(request: TaskRequest) -> Tuple[Dict[str, object], ...]:
    """The spans of ``request``'s own trace; the worker's other traces stay buffered."""
    return () if request.trace is None else tuple(tracer().drain(request.trace[0]))


def _failure(
    request: TaskRequest, error: Exception, spans: Tuple[Dict[str, object], ...] = ()
) -> TaskResult:
    """A typed failure result: the exception's type name and message."""
    kind = type(error).__name__
    return TaskResult(request.request_id, ok=False, error=str(error), error_type=kind,
                      fingerprint=request.fingerprint, spans=spans)


class _Parked:
    """A task waiting for the blobs it references."""

    def __init__(self, request: TaskRequest, frames: List[bytes], missing: set) -> None:
        self.request, self.frames, self.missing = request, frames, missing


class _Connection(Channel):
    """One client connection, the blobs asked of it and the tasks they hold."""

    def __init__(self, sock: socket.socket) -> None:
        super().__init__(sock, _decode_line)
        #: Digest -> its deadline, open ``blob.fetch`` span and that span's context.
        self.asked: Dict[str, Tuple[float, Any, contextvars.Context]] = {}
        self.parked: List[_Parked] = []


class TaskWorkerServer:
    """Executes ``task`` wire requests for remote schedulers.

    Parameters
    ----------
    max_state : int, optional
        Bound on the worker-local initializer-state cache
        (:func:`repro.exec.scheduler.set_state_cache_size`).
    blob_capacity : int, optional
        Byte budget of the per-worker blob cache (default: the store's
        own default, 256 MiB).
    """

    def __init__(self, *, max_state: Optional[int] = None, blob_capacity: Optional[int] = None):
        if max_state is not None:
            set_state_cache_size(max_state)
        #: Bounded per-worker cache of client-shipped blobs, by digest.
        self.blobs = BlobStore(capacity=blob_capacity) if blob_capacity else BlobStore()
        #: Count of real (non-heartbeat) tasks served, for diagnostics.
        self.served = 0
        #: Wire bytes read (header lines + frames), all connections.
        self.bytes_received = 0
        #: Bytes *not* re-shipped because a referenced blob was cached.
        self.bytes_deduped = 0
        self._connections: set = set()
        self._selector = selectors.DefaultSelector()
        self._stopping = False
        # The task thread takes (connection, request, frames) jobs and
        # hands back (connection, result line, frames), then wakes the loop.
        self._jobs: queue.SimpleQueue = queue.SimpleQueue()
        self._done: deque = deque()
        self._wake_in, self._wake_out = socket.socketpair()
        for end in (self._wake_in, self._wake_out):
            end.setblocking(False)

    def serve(self, sock: socket.socket, *, listening: bool = True) -> None:
        """Serve on this thread until :meth:`stop`.

        A listening ``sock`` has its connections accepted and served.
        Otherwise ``sock`` is the one connection (a forked child's
        socketpair end), and the loop also returns at its EOF, even with
        a task running.
        """
        self._selector.register(self._wake_in, selectors.EVENT_READ, self._wake_in)
        if listening:
            sock.setblocking(False)
            self._selector.register(sock, selectors.EVENT_READ, sock)
        else:
            self._open(sock)
        threading.Thread(target=self._work, name="repro-worker-task", daemon=True).start()
        try:
            while not self._stopping and (listening or self._connections):
                self._poll()
        finally:
            self._jobs.put(None)
            for connection in list(self._connections):
                self._close(connection)

    def stop(self) -> None:
        """Make :meth:`serve` return (safe from a signal handler or thread)."""
        self._stopping = True
        self._wake()

    def _wake(self) -> None:
        try:
            self._wake_out.send(b"\0")
        except OSError:
            pass  # a wake-up is pending already, or the loop is gone

    def _poll(self) -> None:
        """Wait for socket events or the next blob deadline; serve both."""
        for connection in self._connections:
            connection.watch(self._selector)
        deadline = min(
            (asked[0] for c in self._connections for asked in c.asked.values()), default=None
        )
        timeout = None if deadline is None else max(0.0, deadline - time.monotonic())
        for key, mask in self._selector.select(timeout):
            if key.data is self._wake_in:
                self._collect()
            elif isinstance(key.data, _Connection):
                self._serve(key.data, mask)
            else:
                self._accept(key.data)
        if deadline is not None:
            self._expire()

    def _accept(self, listener: socket.socket) -> None:
        try:
            sock, _address = listener.accept()
        except OSError:
            return  # the peer gave up, or no descriptor is free right now
        if sock.family != socket.AF_UNIX:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._open(sock)

    def _open(self, sock: socket.socket) -> None:
        connection = _Connection(sock)
        connection.watch(self._selector)
        self._connections.add(connection)

    def _close(self, connection: _Connection) -> None:
        """Forget a connection; its parked and queued tasks go unanswered."""
        self._connections.discard(connection)
        self._selector.unregister(connection.sock)
        connection.close()

    def _serve(self, connection: _Connection, mask: int) -> None:
        if connection.closed:
            return  # closed while serving an earlier event of this batch
        try:
            if mask & selectors.EVENT_WRITE:
                connection.flush()
            if mask & selectors.EVENT_READ:
                self.bytes_received += connection.receive()
                for (line, header), frames in connection.messages():
                    self._message(connection, line, header, frames)
        except ChannelLost:
            self._close(connection)

    def _collect(self) -> None:
        """Write the results the task thread finished."""
        try:
            self._wake_in.recv(4096)
        except BlockingIOError:
            pass
        while self._done:
            connection, line, frames = self._done.popleft()
            if not connection.closed:
                try:
                    connection.send(line, frames)
                except ChannelLost:
                    self._close(connection)

    def _message(
        self, connection: _Connection, line: str, header: Optional[dict], frames: List[bytes]
    ) -> None:
        """Answer one line (never raises for bad input)."""
        if not line:
            return
        if header is not None and header.get("op") == "blob":
            self._deliver(connection, header, frames)
            return
        try:
            request = decode_request(line)
        except ReproError as error:
            connection.send(encode_line(failure_for_line(line, error, TaskResult)))
            return
        if not isinstance(request, TaskRequest):
            connection.send(encode_line(TaskResult.failure(
                request.request_id,
                "this worker serves only 'task' lines; detection verbs "
                "belong to freqywm serve",
            )))
            return
        if request.is_heartbeat:
            connection.send(encode_line(TaskResult(request_id=request.request_id, ok=True)))
            return
        self.served += 1
        missing = {digest for digest in request.blob_refs if digest not in self.blobs}
        self.bytes_deduped += sum(
            self.blobs.size_of(digest) for digest in request.blob_refs if digest not in missing
        )
        if not missing:
            self._jobs.put((connection, request, frames))
            return
        for digest in missing - connection.asked.keys():
            fetch, context = trace_span("blob.fetch", parent=request.trace), contextvars.Context()
            context.run(fetch.__enter__)
            connection.asked[digest] = (time.monotonic() + BLOB_FETCH_TIMEOUT, fetch, context)
            connection.send(encode_line(BlobRequest(request_id=request.request_id, digest=digest)))
        connection.parked.append(_Parked(request, frames, missing))

    def _deliver(self, connection: _Connection, header: dict, frames: List[bytes]) -> None:
        """Store a ``blob`` line's blob; a failed delivery or digest check fails its tasks."""
        digest = header.get("digest")
        if not isinstance(digest, str) or digest not in connection.asked:
            return  # never asked, or given up on
        error: Optional[ReproError] = None
        try:
            if not header.get("ok"):
                message = header.get("error") or f"client lost blob {digest[:12]}…"
                raise BlobNotFoundError(str(message), digest=digest)
            actual = self.blobs.put(BlobData.from_frames(frames))
            if actual != digest:
                raise BlobError(
                    f"blob failed its digest check (wanted {digest[:12]}…, got {actual[:12]}…)"
                )
        except ReproError as failure:
            error = failure
        self._settle(connection, digest, error)

    def _expire(self) -> None:
        """Fail the tasks of each blob the client did not deliver in time."""
        now = time.monotonic()
        for connection in list(self._connections):
            late = [digest for digest, asked in connection.asked.items() if asked[0] <= now]
            try:
                for digest in late:
                    message = f"client did not deliver blob {digest[:12]}… within "
                    message += f"{BLOB_FETCH_TIMEOUT:.0f}s"
                    self._settle(connection, digest, BlobNotFoundError(message, digest=digest))
            except ChannelLost:
                self._close(connection)

    def _settle(self, connection: _Connection, digest: str, error: Optional[ReproError]) -> None:
        """End ``digest``'s fetch: queue the tasks it completes, or fail its tasks.

        A digest asked again later (after a failure) is fetched afresh.
        """
        _deadline, fetch, context = connection.asked.pop(digest)
        context.run(fetch.__exit__, type(error) if error else None, error, None)
        for task in [task for task in connection.parked if digest in task.missing]:
            task.missing.discard(digest)
            if error is None and task.missing:
                continue
            connection.parked.remove(task)
            if error is None:
                self._jobs.put((connection, task.request, task.frames))
            else:
                connection.send(encode_line(_failure(task.request, error)))

    def _work(self) -> None:
        """The task thread: run queued tasks one at a time until the loop ends."""
        while True:
            job = self._jobs.get()
            if job is None:
                return
            connection, request, frames = job
            if not connection.closed:  # else nobody is left to answer
                result, out = self._run(request, frames)
                self._done.append((connection, encode_line(result), out))
                self._wake()

    def _run(
        self, request: TaskRequest, frames: Sequence[bytes]
    ) -> Tuple[TaskResult, List[Union[bytes, memoryview]]]:
        """Execute one task; always returns a result.

        A traced task's spans ride on its result line, on success and on
        failure, so the client stitches them into its own tree.
        """
        try:
            spec = self._spec_from(request, frames)
        except Exception as error:  # noqa: BLE001 - typed failure on the wire
            return _failure(request, error), []
        try:
            out = dumps_oob(run_task(spec, blob_fetch=self.blobs.get_object)).frames()
        except Exception as error:  # noqa: BLE001 - typed failure on the wire
            return _failure(request, error, _drain_spans(request)), []
        sizes = tuple(len(frame) for frame in out)
        spans = _drain_spans(request)
        return TaskResult(request.request_id, ok=True, frames=sizes,
                          fingerprint=request.fingerprint, spans=spans), out

    @staticmethod
    def _spec_from(request: TaskRequest, frames: Sequence[bytes]) -> TaskSpec:
        """A runnable spec from a task line and the frames that followed it."""
        if len(frames) != len(request.frames):
            raise BlobError(
                f"task {request.request_id!r} announced "
                f"{len(request.frames)} frames but {len(frames)} arrived"
            )
        payload_count, init_count = request.payload_frames, request.init_frames
        payload, init = frames[:payload_count], frames[payload_count:payload_count + init_count]
        return TaskSpec(
            fingerprint=request.fingerprint or request.request_id,
            function=request.function,
            payload=loads_oob(BlobData.from_frames(list(payload))) if payload_count else None,
            initializer=request.initializer,
            init_key=request.init_key,
            init_args=tuple(loads_oob(BlobData.from_frames(list(init)))) if init_count else (),
            blob_refs=request.blob_refs,
            trace=request.trace,
        )

    def summary(self) -> Dict[str, int]:
        """Counter snapshot: tasks served and data-plane byte movement."""
        return {
            "served": self.served,
            "bytes_received": self.bytes_received,
            "bytes_deduped": self.bytes_deduped,
            "blobs_cached": self.blobs.stats()["blobs"],
        }

    def summary_line(self) -> str:
        """One-line rendering of :meth:`summary` for shutdown stderr."""
        return " ".join(f"{name}={value}" for name, value in self.summary().items())

    def close(self) -> None:
        """Release the selector and the wake-up socketpair (idempotent)."""
        self._selector.close()
        self._wake_in.close()
        self._wake_out.close()


def serve_worker(
    address: Union[str, Path, Tuple[str, int]],
    *,
    server: Optional[TaskWorkerServer] = None,
    ready: Optional[threading.Event] = None,
    announce: Optional[Callable[[str], None]] = None,
) -> None:
    """Serve tasks on a Unix socket path or a TCP ``(host, port)`` until ``server.stop()``.

    Once the socket accepts connections, ``ready`` is set and ``announce``
    gets ``"listening on unix:<path>"`` or ``"listening on tcp:<host>:<port>"``
    (port 0 binds a free port, named there). A socket file at the path is
    replaced, and removed on shutdown.
    """
    worker = server if server is not None else TaskWorkerServer()
    path = None
    if isinstance(address, tuple):
        family, _type, _proto, _name, bind = socket.getaddrinfo(
            *address, type=socket.SOCK_STREAM, flags=socket.AI_PASSIVE
        )[0]
        listener = socket.create_server(bind, family=family)
        name = "tcp:{}:{}".format(*listener.getsockname())
    else:
        path = Path(address)
        if path.exists() and stat.S_ISSOCK(path.stat().st_mode):
            path.unlink()
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        name = f"unix:{path}"
    try:
        if path is not None:
            listener.bind(str(path))
        listener.listen(128)
        if announce is not None:
            announce(f"listening on {name}")
        if ready is not None:
            ready.set()
        worker.serve(listener)
    finally:
        listener.close()
        worker.close()
        if path is not None:
            path.unlink(missing_ok=True)


__all__ = ["BLOB_FETCH_TIMEOUT", "TaskWorkerServer", "serve_worker"]
