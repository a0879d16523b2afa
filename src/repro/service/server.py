"""JSON-lines transports for the detection service.

Two transports expose one :class:`~repro.service.service.DetectionService`
to out-of-process clients, both speaking the
:mod:`repro.service.wire` format (one JSON object per line):

* **stdio** (:func:`serve_stdio`) — requests on stdin, responses on
  stdout; this is what ``freqywm serve`` runs by default and what
  ``freqywm client`` spawns as a subprocess when no socket is given.
* **Unix socket** (:func:`serve_unix`) — ``freqywm serve --socket PATH``;
  many clients may connect concurrently, all served by the one service
  and its detector cache.

Each line is answered in its own task as soon as its verb completes, so
responses can arrive out of order; clients must match on the echoed
``id``. A malformed line never kills the transport — it is answered with
a failure response carrying the best-effort request id. A line over
:data:`~repro.service.wire.MAX_LINE_BYTES` on a socket is answered with
one failure response (id ``"?"``) after the requests read before it, and
then that connection is closed, since the rest of that line may still be
unread. Each line is answered inside one ``service.request`` span, the
root of its decode, verb and response-encode spans.
"""

from __future__ import annotations

import asyncio
import os
from pathlib import Path
from typing import IO, Optional, Union

from repro.exceptions import ReproError
from repro.obs.trace import span as trace_span
from repro.service.service import DetectionService
from repro.service.wire import (
    MAX_LINE_BYTES,
    DetectResponse,
    decode_request,
    encode_line,
    failure_for_line,
)


async def _answer(service: DetectionService, line: str) -> str:
    """Decode, answer and encode one request line (never raises for bad input).

    One ``service.request`` span covers the three steps, so a request's
    ``service.decode``, ``service.<verb>`` and ``service.encode`` share
    its trace.
    """
    with trace_span("service.request"):
        try:
            request = decode_request(line)
        except ReproError as error:
            service.stats.failures += 1
            response = failure_for_line(line, error)
        else:
            response = await service.submit(request)
        return encode_line(response)


async def serve_stdio(
    service: DetectionService,
    in_stream: Optional[IO[str]] = None,
    out_stream: Optional[IO[str]] = None,
) -> int:
    """Serve JSON-lines requests from a text stream until EOF.

    Each line is answered as a task, so a slow request (an embed, say)
    never holds up the lines behind it; responses are written (one JSON
    line each) as they complete. Returns the number of lines served.
    """
    import sys

    reader = in_stream if in_stream is not None else sys.stdin
    writer = out_stream if out_stream is not None else sys.stdout
    loop = asyncio.get_running_loop()
    write_lock = asyncio.Lock()
    # Finished tasks remove themselves, so a long-lived session holds
    # only the in-flight requests, not everything it ever served.
    tasks: set = set()

    async def handle(line: str) -> None:
        answer = await _answer(service, line)
        async with write_lock:
            writer.write(answer + "\n")
            writer.flush()

    served = 0
    while True:
        # stdin is a blocking file object; readline in the default
        # executor keeps the loop live for the requests in flight.
        line = await loop.run_in_executor(None, reader.readline)
        if not line:
            break
        line = line.strip()
        if not line:
            continue
        served += 1
        task = asyncio.ensure_future(handle(line))
        tasks.add(task)
        task.add_done_callback(tasks.discard)
    if tasks:
        await asyncio.gather(*list(tasks))
    return served


async def serve_unix(
    service: DetectionService,
    socket_path: Union[str, Path],
    *,
    ready: Optional[asyncio.Event] = None,
) -> None:
    """Serve JSON-lines requests on a Unix domain socket until cancelled.

    Every connection is handled concurrently and each connection's lines
    are answered as tasks. ``ready`` (when given) is set once the socket
    is listening — tests and the spawning client use it to avoid connect
    races. The socket file is removed on shutdown.
    """
    path = Path(socket_path)

    async def handle_connection(
        conn_reader: asyncio.StreamReader, conn_writer: asyncio.StreamWriter
    ) -> None:
        write_lock = asyncio.Lock()
        # Self-pruning like serve_stdio: memory stays O(in-flight), not
        # O(total served), on persistent connections.
        tasks: set = set()

        async def write(answer: str) -> None:
            async with write_lock:
                conn_writer.write((answer + "\n").encode("utf-8"))
                await conn_writer.drain()

        async def handle(line: str) -> None:
            await write(await _answer(service, line))

        try:
            while True:
                try:
                    raw = await conn_reader.readline()
                except ValueError:
                    # Over the limit: the rest of the line may still be
                    # unread, so the stream cannot go on past it.
                    service.stats.failures += 1
                    failure = DetectResponse.failure(
                        "?", f"request line exceeds {MAX_LINE_BYTES} bytes"
                    )
                    await write(encode_line(failure))
                    break
                if not raw:
                    break
                # As on stdio, a byte that is not UTF-8 gets a typed failure.
                line = raw.decode("utf-8", "surrogateescape").strip()
                if not line:
                    continue
                task = asyncio.ensure_future(handle(line))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
            if tasks:
                await asyncio.gather(*list(tasks))
        finally:
            conn_writer.close()

    server = await asyncio.start_unix_server(
        handle_connection, path=str(path), limit=MAX_LINE_BYTES
    )
    try:
        if ready is not None:
            ready.set()
        async with server:
            await server.serve_forever()
    finally:
        if path.exists():
            os.unlink(path)


__all__ = ["serve_stdio", "serve_unix"]
