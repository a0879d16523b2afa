"""One framed wire connection, as a ``selectors`` loop drives it.

Both ends of the scheduler wire speak JSON lines, each optionally
followed by the binary frames its header announces (``frames``: byte
sizes). :class:`Channel` is that connection on a non-blocking socket,
shared by the :class:`~repro.exec.remote.RemoteScheduler` client and the
``freqywm worker`` server (:mod:`repro.exec.worker`): an inbound buffer
that :meth:`Channel.messages` cuts into complete ``(message, frames)``
pairs, and an outbound queue of memoryviews that :meth:`Channel.flush`
hands to ``sendmsg`` as far as the socket takes them. A line and its
frames are consumed together, so the stream never loses position; a line
longer than ``MAX_LINE_BYTES``, or one whose frame announcement the
reading side cannot trust, loses the connection instead.
"""

from __future__ import annotations

import itertools
import selectors
import socket
from collections import deque
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.service.wire import MAX_LINE_BYTES

#: Bytes asked of one ``recv`` while no announced frame is pending.
_RECV_BYTES = 1 << 16

#: Upper bound on one ``recv`` while a large frame is arriving.
_RECV_MAX = 1 << 20

#: Buffers handed to one ``sendmsg`` call (well under any ``IOV_MAX``).
_SEND_BATCH = 64

#: Reads one line's bytes into ``(message, announced frame sizes)``; it
#: raises :class:`ChannelLost` when the stream position cannot be trusted.
Decoder = Callable[[bytearray], Tuple[Any, Tuple[int, ...]]]


class ChannelLost(Exception):
    """The connection is gone, or its stream lost position."""


class Channel:
    """A non-blocking socket with framed inbound and queued outbound bytes.

    ``decode`` turns each line into its message and the frame sizes the
    line announces. ``events`` is the selector mask :meth:`watch` has
    registered the socket for (0 when it is not registered).
    """

    def __init__(self, sock: socket.socket, decode: Decoder) -> None:
        sock.setblocking(False)
        self.sock = sock
        self._decode = decode
        self._inbound = bytearray()
        #: A decoded line whose announced frames have not all arrived.
        self._pending: Optional[Tuple[Any, Tuple[int, ...]]] = None
        self._outbound: deque = deque()
        self.events = 0
        self.closed = False

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

    def watch(self, selector: selectors.BaseSelector) -> None:
        """Select this channel for reads, and for writes while bytes wait."""
        events = selectors.EVENT_READ | (selectors.EVENT_WRITE if self._outbound else 0)
        if events != self.events:
            if self.events:
                selector.modify(self.sock, events, self)
            else:
                selector.register(self.sock, events, self)
            self.events = events

    @property
    def drained(self) -> bool:
        """Whether nothing waits to be written or cut into a message."""
        return not (self._outbound or self._inbound or self._pending)

    def flush(self) -> None:
        """Write queued bytes until the queue empties or the socket is full."""
        outbound = self._outbound
        while outbound:
            try:
                sent = self.sock.sendmsg(list(itertools.islice(outbound, _SEND_BATCH)))
            except BlockingIOError:
                return
            except OSError as error:
                raise ChannelLost(f"send failed: {error}") from error
            while sent:
                head = outbound[0]
                if sent < head.nbytes:
                    outbound[0] = head[sent:]
                    break
                sent -= head.nbytes
                outbound.popleft()

    def receive(self) -> int:
        """Read once from the socket into the inbound buffer; bytes read.

        A closed or failed connection raises :class:`ChannelLost`.
        """
        wanted = _RECV_BYTES
        if self._pending is not None:
            wanted = min(max(wanted, sum(self._pending[1]) - len(self._inbound)), _RECV_MAX)
        try:
            data = self.sock.recv(wanted)
        except BlockingIOError:
            return 0
        except OSError as error:
            raise ChannelLost(f"recv failed: {error}") from error
        if not data:
            state = " mid-frame" if self._pending is not None else ""
            raise ChannelLost(f"peer closed the connection{state}")
        self._inbound += data
        return len(data)

    def messages(self) -> Iterator[Tuple[Any, List[bytes]]]:
        """Each complete buffered message, cut off the buffer as it is yielded.

        A message is a decoded line and the frames it announced. A
        consumer that stops early leaves the rest buffered.
        """
        buffer = self._inbound
        while True:
            if self._pending is None:
                end = buffer.find(b"\n")
                if end < 0:
                    if len(buffer) > MAX_LINE_BYTES:
                        raise ChannelLost(f"line exceeds {MAX_LINE_BYTES} bytes")
                    return
                self._pending = self._decode(buffer[:end])
                del buffer[:end + 1]
            message, sizes = self._pending
            if len(buffer) < sum(sizes):
                return
            frames, start = [], 0
            with memoryview(buffer) as view:
                for size in sizes:
                    frames.append(view[start:start + size].tobytes())
                    start += size
            del buffer[:start]
            self._pending = None
            yield message, frames

    def close(self) -> None:
        """Close the underlying socket (idempotent, errors swallowed)."""
        self.closed = True
        try:
            self.sock.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass


__all__ = ["Channel", "ChannelLost", "Decoder"]
