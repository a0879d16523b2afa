"""The ``freqywm worker`` process: serves scheduler tasks over the wire.

One worker is a small asyncio JSON-lines server (the same transport
shape as ``freqywm serve``, :mod:`repro.service.server`) that accepts
``task`` lines followed by their binary payload frames and executes
them through the shared worker-side entry point
:func:`repro.exec.scheduler.run_task`, answering each with one framed
``result`` line. Four properties matter:

* **worker-local state reuse** — ``run_task`` caches initializer
  products (detectors, generators) under their ``init_key``, so a
  long-lived worker serving a sweep builds each expensive state once;
* **blob dedup** — a task line may reference shared values by digest
  (``blob_refs``); the worker asks for each digest it has not cached
  with a single ``blob-request`` line and keeps the answer in a bounded
  per-worker :class:`~repro.exec.blobs.BlobStore`, so the client ships a
  shared secret once per worker, not once per task (the
  ``bytes_deduped`` counter measures exactly this saving);
* **heartbeats answer mid-task** — real tasks run on a single-thread
  executor while the event loop keeps reading lines, so a
  ``__heartbeat__`` probe is answered immediately even during a long
  task (this is what lets clients distinguish *slow* from *dead*);
* **failures stay typed** — a task raising inside the worker answers
  with the exception's type name and message, never a pickled exception
  object, and never kills the connection. A blob the client can no
  longer supply fails with ``BlobNotFoundError``, which the scheduler
  turns into a retry with the blob's value in the frames.

Started by ``freqywm worker --socket PATH`` or ``--tcp HOST:PORT``
(:mod:`repro.cli`); the worker announces ``listening on <address>`` on
stderr once bound, which tests and the CI scheduler-smoke job use as
the readiness signal, and prints a :meth:`TaskWorkerServer.summary_line`
on shutdown. A :class:`~repro.exec.scheduler.LocalScheduler`'s forked
children run the same server, each on one end of a socketpair.
"""

from __future__ import annotations

import asyncio
import json
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.exceptions import BlobError, BlobNotFoundError, ReproError
from repro.exec.blobs import BlobData, BlobStore, dumps_oob, loads_oob
from repro.exec.scheduler import TaskSpec, run_task, set_state_cache_size
from repro.obs.trace import span as trace_span, tracer
from repro.service.wire import (
    MAX_LINE_BYTES,
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


def _parse_header(line: str) -> Optional[Dict[str, object]]:
    """The line's JSON object, or None when it is not one."""
    try:
        payload = json.loads(line)
    except (ValueError, RecursionError):
        return None
    return payload if isinstance(payload, dict) else None


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

    def __init__(
        self,
        *,
        max_state: Optional[int] = None,
        blob_capacity: Optional[int] = None,
    ) -> None:
        if max_state is not None:
            set_state_cache_size(max_state)
        #: Bounded per-worker cache of client-shipped blobs, by digest.
        self.blobs = (
            BlobStore(capacity=blob_capacity) if blob_capacity else BlobStore()
        )
        # One thread: task execution is serialized (worker state is not
        # thread-safe) while the event loop stays free for heartbeats.
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-worker-task"
        )
        #: Count of real (non-heartbeat) tasks served, for diagnostics.
        self.served = 0
        #: Wire bytes read (header lines + frames), all connections.
        self.bytes_received = 0
        #: Bytes *not* re-shipped because a referenced blob was cached.
        self.bytes_deduped = 0

    # ------------------------------------------------------------------ #
    # Task execution
    # ------------------------------------------------------------------ #

    def _spec_from(
        self, request: TaskRequest, frames: Sequence[bytes]
    ) -> TaskSpec:
        """A runnable spec from a task line and the frames that followed it."""
        if len(frames) != len(request.frames):
            raise BlobError(
                f"task {request.request_id!r} announced "
                f"{len(request.frames)} frames but {len(frames)} arrived"
            )
        payload_count = request.payload_frames
        init_count = request.init_frames
        payload = (
            loads_oob(BlobData.from_frames(list(frames[:payload_count])))
            if payload_count
            else None
        )
        init_args = (
            tuple(
                loads_oob(
                    BlobData.from_frames(
                        list(frames[payload_count:payload_count + init_count])
                    )
                )
            )
            if init_count
            else ()
        )
        return TaskSpec(
            fingerprint=request.fingerprint or request.request_id,
            function=request.function,
            payload=payload,
            initializer=request.initializer,
            init_key=request.init_key,
            init_args=init_args,
            blob_refs=request.blob_refs,
            trace=request.trace,
        )

    async def _ensure_blobs(self, request: TaskRequest, fetch_blob) -> None:
        """Fetch every referenced blob this worker does not hold yet."""
        for digest in request.blob_refs:
            if digest in self.blobs:
                self.bytes_deduped += self.blobs.size_of(digest)
                continue
            if fetch_blob is None:
                raise BlobNotFoundError(
                    f"no transport to fetch blob {digest[:12]}…",
                    digest=digest,
                )
            with trace_span("blob.fetch", parent=request.trace):
                data = await fetch_blob(request.request_id, digest)
            actual = self.blobs.put(data)
            if actual != digest:
                raise BlobError(
                    f"blob for task {request.request_id!r} failed its digest "
                    f"check (wanted {digest[:12]}…, got {actual[:12]}…)"
                )

    def _run(
        self, request: TaskRequest, spec: TaskSpec
    ) -> Tuple[TaskResult, List[Union[bytes, memoryview]]]:
        """Execute one task in the executor thread; always returns a result.

        A request carrying a trace context gets the spans ``run_task``
        recorded drained out of this process's tracer and attached to
        the result line — success *and* failure — so the dispatching
        scheduler stitches worker-side spans into its own tree even
        when the task raised.
        """
        try:
            frames = dumps_oob(run_task(spec, blob_fetch=self.blobs.get_object)).frames()
        except Exception as error:  # noqa: BLE001 - typed failure on the wire
            return self._failure(request, error, self._drain_spans(request)), []
        return (
            TaskResult(
                request_id=request.request_id,
                ok=True,
                frames=tuple(len(frame) for frame in frames),
                fingerprint=request.fingerprint,
                spans=self._drain_spans(request),
            ),
            frames,
        )

    @staticmethod
    def _failure(
        request: TaskRequest,
        error: Exception,
        spans: Tuple[Dict[str, object], ...] = (),
    ) -> TaskResult:
        """A typed failure result: the exception's type name and message."""
        return TaskResult(
            request_id=request.request_id,
            ok=False,
            error=str(error),
            error_type=type(error).__name__,
            fingerprint=request.fingerprint,
            spans=spans,
        )

    @staticmethod
    def _drain_spans(request: TaskRequest) -> Tuple[Dict[str, object], ...]:
        """The spans of ``request``'s own trace (empty when untraced).

        Other traces (a worker with spans on records its own line codec)
        stay in this process's buffer."""
        if request.trace is None:
            return ()
        return tuple(tracer().drain(request.trace[0]))

    async def respond(
        self,
        line: str,
        *,
        frames: Sequence[bytes] = (),
        fetch_blob=None,
    ) -> Tuple[TaskResult, List[Union[bytes, memoryview]]]:
        """Answer one request line (never raises for bad input).

        Returns the result plus the binary frames to write after it
        (the pickled return value of a task that succeeded).
        """
        try:
            request = decode_request(line)
        except ReproError as error:
            return failure_for_line(line, error, TaskResult), []
        if not isinstance(request, TaskRequest):
            return (
                TaskResult.failure(
                    request.request_id,
                    "this worker serves only 'task' lines; detection verbs "
                    "belong to freqywm serve",
                ),
                [],
            )
        if request.is_heartbeat:
            return TaskResult(request_id=request.request_id, ok=True), []
        self.served += 1
        try:
            await self._ensure_blobs(request, fetch_blob)
            spec = self._spec_from(request, frames)
        except Exception as error:  # noqa: BLE001 - typed failure on the wire
            return self._failure(request, error), []
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._executor, self._run, request, spec)

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #

    async def handle_connection(
        self,
        conn_reader: asyncio.StreamReader,
        conn_writer: asyncio.StreamWriter,
    ) -> None:
        """Serve one client connection until EOF.

        The read loop alone consumes the byte stream: it parses each
        header line and reads its announced frames *before* dispatching,
        so concurrent per-line tasks (heartbeats answered mid-task, the
        self-pruning set the detection transports use) can never race
        for stream position. ``blob`` lines fulfil the connection's
        pending blob futures; everything else becomes a response.
        """
        write_lock = asyncio.Lock()
        blob_waits: Dict[str, asyncio.Future] = {}
        tasks: set = set()
        loop = asyncio.get_running_loop()

        async def send(message, out_frames: Sequence = ()) -> None:
            async with write_lock:
                conn_writer.write((encode_line(message) + "\n").encode("utf-8"))
                for frame in out_frames:
                    conn_writer.write(bytes(frame))
                await conn_writer.drain()

        async def fetch_blob(request_id: str, digest: str) -> BlobData:
            """Ask the client for ``digest`` (once per connection attempt)."""
            future = blob_waits.get(digest)
            if future is None:
                future = loop.create_future()
                blob_waits[digest] = future
                await send(BlobRequest(request_id=request_id, digest=digest))
            try:
                header, frames = await asyncio.wait_for(
                    asyncio.shield(future), timeout=BLOB_FETCH_TIMEOUT
                )
            except asyncio.TimeoutError:
                blob_waits.pop(digest, None)
                raise BlobNotFoundError(
                    f"client did not deliver blob {digest[:12]}… within "
                    f"{BLOB_FETCH_TIMEOUT:.0f}s",
                    digest=digest,
                ) from None
            blob_waits.pop(digest, None)
            if not header.get("ok"):
                raise BlobNotFoundError(
                    str(header.get("error") or f"client lost blob {digest[:12]}…"),
                    digest=digest,
                )
            return BlobData.from_frames(frames)

        async def handle(line: str, frames: List[bytes]) -> None:
            response, out_frames = await self.respond(
                line, frames=frames, fetch_blob=fetch_blob
            )
            await send(response, out_frames)

        try:
            while True:
                raw = await conn_reader.readline()
                if not raw:
                    break
                # A byte that is not UTF-8 reaches the codec, which fails it typed.
                line = raw.decode("utf-8", "surrogateescape").strip()
                if not line:
                    continue
                header = _parse_header(line)
                try:
                    sizes = announced_frames(header) if header is not None else ()
                except ReproError:
                    # Unparseable frame announcement: the stream position
                    # is lost, so the connection cannot continue.
                    break
                frames = [await conn_reader.readexactly(size) for size in sizes]
                self.bytes_received += len(raw) + sum(sizes)
                if header is not None and header.get("op") == "blob":
                    digest = header.get("digest")
                    future = (
                        blob_waits.get(digest) if isinstance(digest, str) else None
                    )
                    if future is not None and not future.done():
                        future.set_result((header, frames))
                    continue
                task = asyncio.ensure_future(handle(line, frames))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
            if tasks:
                await asyncio.gather(*list(tasks))
        except asyncio.IncompleteReadError:
            pass  # client vanished mid-frame: nothing left to answer
        finally:
            for future in blob_waits.values():
                if not future.done():
                    future.cancel()
            conn_writer.close()

    # ------------------------------------------------------------------ #
    # Diagnostics + lifecycle
    # ------------------------------------------------------------------ #

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
        counters = self.summary()
        return (
            f"served={counters['served']} "
            f"bytes_received={counters['bytes_received']} "
            f"bytes_deduped={counters['bytes_deduped']} "
            f"blobs_cached={counters['blobs_cached']}"
        )

    def close(self) -> None:
        """Shut down the task executor (idempotent)."""
        self._executor.shutdown(wait=False)


async def serve_worker_unix(
    socket_path: Union[str, Path],
    *,
    server: Optional[TaskWorkerServer] = None,
    ready: Optional[asyncio.Event] = None,
    announce: Optional[Callable[[str], None]] = None,
) -> None:
    """Serve scheduler tasks on a Unix domain socket until cancelled.

    ``ready`` is set — and ``announce`` called with
    ``"listening on unix:<path>"`` — once the socket accepts
    connections. The socket file is removed on shutdown.
    """
    worker = server if server is not None else TaskWorkerServer()
    path = Path(socket_path)
    listener = await asyncio.start_unix_server(
        worker.handle_connection, path=str(path), limit=MAX_LINE_BYTES
    )
    try:
        if announce is not None:
            announce(f"listening on unix:{path}")
        if ready is not None:
            ready.set()
        async with listener:
            await listener.serve_forever()
    finally:
        worker.close()
        if path.exists():
            path.unlink()


async def serve_worker_tcp(
    host: str,
    port: int,
    *,
    server: Optional[TaskWorkerServer] = None,
    ready: Optional[asyncio.Event] = None,
    announce: Optional[Callable[[str], None]] = None,
    bound: Optional[Callable[[Tuple[str, int]], None]] = None,
) -> None:
    """Serve scheduler tasks on a TCP socket until cancelled.

    ``port=0`` binds an ephemeral port; the actual ``(host, port)`` is
    passed to ``bound`` and announced as ``"listening on tcp:<host>:<port>"``
    so spawners (tests, CI) can learn where to connect.
    """
    worker = server if server is not None else TaskWorkerServer()
    listener = await asyncio.start_server(
        worker.handle_connection, host, port, limit=MAX_LINE_BYTES
    )
    try:
        address = listener.sockets[0].getsockname()[:2]
        if bound is not None:
            bound((address[0], address[1]))
        if announce is not None:
            announce(f"listening on tcp:{address[0]}:{address[1]}")
        if ready is not None:
            ready.set()
        async with listener:
            await listener.serve_forever()
    finally:
        worker.close()


__all__ = [
    "BLOB_FETCH_TIMEOUT",
    "TaskWorkerServer",
    "serve_worker_tcp",
    "serve_worker_unix",
]
