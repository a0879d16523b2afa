"""Synchronous JSON-lines client for the detection service.

Speaks the :mod:`repro.service.wire` format against either transport:

* :meth:`ServiceClient.connect_unix` — connect to a running
  ``freqywm serve --socket PATH`` instance;
* :meth:`ServiceClient.spawn` — spawn a private ``freqywm serve``
  subprocess speaking stdio, so one-shot clients need no pre-started
  daemon (this is what ``freqywm client`` does by default).

The client pipelines: all requests are written before responses are
collected, so a burst costs one round trip rather than one per request.
A background reader thread drains responses while requests are still
being written, which keeps large pipelined bursts deadlock-free on
bounded OS pipe buffers. Responses may arrive in any order;
:meth:`request` re-orders them by the echoed request id.
"""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import threading
from pathlib import Path
from typing import Dict, IO, List, Optional, Sequence, Union

from repro.exceptions import ServiceError
from repro.service.wire import (
    WireRequest,
    WireResponse,
    decode_response,
    encode_line,
)


def _repro_pythonpath() -> str:
    """PYTHONPATH for spawned servers: the directory containing ``repro``."""
    import repro

    package_dir = str(Path(repro.__file__).resolve().parent.parent)
    existing = os.environ.get("PYTHONPATH")
    return package_dir if not existing else os.pathsep.join([package_dir, existing])


class ServiceClient:
    """One JSON-lines conversation with a detection server.

    Construct via :meth:`connect_unix` or :meth:`spawn`; use as a context
    manager to guarantee the connection (and any spawned server process)
    is torn down.
    """

    def __init__(
        self,
        reader: IO[str],
        writer: IO[str],
        *,
        process: Optional[subprocess.Popen] = None,
        sock: Optional[socket.socket] = None,
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._process = process
        self._socket = sock

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def connect_unix(cls, socket_path: Union[str, Path]) -> "ServiceClient":
        """Connect to a server listening on a Unix domain socket."""
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.connect(str(socket_path))
        except OSError as error:
            sock.close()
            raise ServiceError(
                f"cannot connect to detection server at {socket_path!s}: {error}"
            ) from error
        reader = sock.makefile("r", encoding="utf-8")
        writer = sock.makefile("w", encoding="utf-8")
        return cls(reader, writer, sock=sock)

    @classmethod
    def spawn(cls, serve_arguments: Sequence[str] = ()) -> "ServiceClient":
        """Spawn a private ``freqywm serve`` subprocess speaking stdio.

        ``serve_arguments`` are appended to the ``serve`` subcommand
        (e.g. ``["--secret", "owner.json", "--cache-capacity", "16"]``).
        """
        command = [sys.executable, "-m", "repro.cli", "serve", *serve_arguments]
        environment = dict(os.environ, PYTHONPATH=_repro_pythonpath())
        process = subprocess.Popen(
            command,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=environment,
            text=True,
        )
        assert process.stdin is not None and process.stdout is not None
        return cls(process.stdout, process.stdin, process=process)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Close the conversation and reap any spawned server (idempotent)."""
        for stream in (self._writer, self._reader):
            try:
                stream.close()
            except OSError:  # pragma: no cover - double close on sockets
                pass
        if self._socket is not None:
            self._socket.close()
            self._socket = None
        if self._process is not None:
            self._process.wait(timeout=30)
            self._process = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Requests
    # ------------------------------------------------------------------ #

    def request(self, requests: Sequence[WireRequest]) -> List[WireResponse]:
        """Send a pipelined burst and return responses in request order.

        Detect and embed requests mix freely within one burst. All
        request lines are written up front while a reader thread drains
        responses concurrently; the call returns once every request has
        been answered.
        """
        if not requests:
            return []
        expected = [request.request_id for request in requests]
        if len(set(expected)) != len(expected):
            raise ServiceError("request ids within one burst must be unique")
        by_id: Dict[str, WireResponse] = {}
        failure: List[Exception] = []

        def drain() -> None:
            try:
                while len(by_id) < len(expected):
                    line = self._reader.readline()
                    if not line:
                        raise ServiceError(
                            "detection server closed the connection mid-burst"
                        )
                    line = line.strip()
                    if not line:
                        continue
                    response = decode_response(line)
                    by_id[response.request_id] = response
            except Exception as error:  # surfaced after join
                failure.append(error)

        reader_thread = threading.Thread(target=drain, daemon=True)
        reader_thread.start()
        for request in requests:
            self._writer.write(encode_line(request) + "\n")
        self._writer.flush()
        reader_thread.join()
        if failure:
            raise failure[0]
        missing = [request_id for request_id in expected if request_id not in by_id]
        if missing:  # pragma: no cover - defensive: drain guarantees coverage
            raise ServiceError(f"no response for request ids {missing}")
        return [by_id[request_id] for request_id in expected]


__all__ = ["ServiceClient"]
