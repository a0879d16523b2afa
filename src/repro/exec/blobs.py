"""Content-addressed data plane: task data by digest, not by value.

The scheduler (PR 8) separated task *metadata* (function names,
fingerprints) from task *code* (registries); this module separates it
from task *data*. A large immutable value — a shared secret, a detector
pair table, a materialised token chunk — is serialised **once** into a
:class:`BlobData` (a pickle-protocol-5 envelope: small metadata bytes
plus zero-copy out-of-band buffers), keyed by its SHA-256 digest, and
referenced from task payloads as a tiny :class:`BlobRef`. Transports
then move the bytes in whatever way is cheapest:

* **in-process** — the :class:`BlobStore` caches the original Python
  object next to its bytes, so the inline execution path resolves a ref
  back to the very object that was put (no serialisation at all);
* **worker processes** — the wire ships each blob to each worker at
  most once as binary frames (``blob-request`` / ``blob`` verbs, see
  :mod:`repro.exec.remote` / :mod:`repro.exec.worker`), cached in a
  bounded per-worker store. A local scheduler's forked children use
  their copy-on-write snapshot of the driver's default store as that
  cache, so a blob put before the fork is never shipped at all.

The store is an in-process LRU bounded by byte capacity; an evicted
digest is gone (a remote worker that asks for it gets its task resent
inline). A value is blobbed only for a scheduler that ships payloads
to other processes; the in-process path keeps values inline, with
byte-identical results either way (``tests/test_dataplane.py``).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import struct
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.exceptions import BlobError, BlobNotFoundError
from repro.obs.trace import span as trace_span

#: Default in-memory byte capacity of a :class:`BlobStore` (256 MiB).
DEFAULT_CAPACITY = 256 * 1024 * 1024

#: Values whose serialised form is smaller than this stay inline: a
#: blob ref saves nothing on a payload that fits in one wire line.
MIN_BLOB_BYTES = 4096

# --------------------------------------------------------------------- #
# Serialised form + digests
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class BlobData:
    """One blob's serialised form: pickle metadata + out-of-band buffers.

    ``meta`` is the protocol-5 pickle stream with every large buffer
    (NumPy arrays, bytes) extracted; ``buffers`` holds those raw buffer
    bodies in extraction order. Keeping the two apart is what makes
    zero-copy possible: a transport can ship the buffers as binary
    frames and reconstruct with
    ``pickle.loads(meta, buffers=...)`` without ever copying them
    through a text encoding.
    """

    meta: bytes
    buffers: Tuple[Union[bytes, memoryview], ...] = ()

    @property
    def size(self) -> int:
        """Total payload bytes (metadata plus every buffer)."""
        return len(self.meta) + sum(len(buffer) for buffer in self.buffers)

    def frames(self) -> List[Union[bytes, memoryview]]:
        """The wire frames for this blob: metadata first, then buffers."""
        return [self.meta, *self.buffers]

    @classmethod
    def from_frames(cls, frames: List[bytes]) -> "BlobData":
        """Rebuild from :meth:`frames` output (first frame is metadata)."""
        if not frames:
            raise BlobError("a blob needs at least a metadata frame")
        return cls(meta=bytes(frames[0]), buffers=tuple(frames[1:]))


def dumps_oob(value: Any) -> BlobData:
    """Serialise ``value`` with protocol-5 out-of-band buffer extraction."""
    buffers: List[memoryview] = []

    def grab(buffer: pickle.PickleBuffer) -> bool:
        view = buffer.raw()
        buffers.append(view.toreadonly() if not view.readonly else view)
        return False  # keep the body out of the metadata stream

    meta = pickle.dumps(value, protocol=5, buffer_callback=grab)
    return BlobData(meta=meta, buffers=tuple(buffers))


def loads_oob(data: BlobData) -> Any:
    """Invert :func:`dumps_oob` (zero-copy where the buffers allow it)."""
    return pickle.loads(data.meta, buffers=[memoryview(b) for b in data.buffers])


def blob_digest(data: BlobData) -> str:
    """SHA-256 digest over the length-prefixed metadata and buffers."""
    digest = hashlib.sha256()
    digest.update(struct.pack("<Q", len(data.meta)))
    digest.update(data.meta)
    for buffer in data.buffers:
        digest.update(struct.pack("<Q", len(buffer)))
        digest.update(buffer)
    return digest.hexdigest()


@dataclass(frozen=True)
class BlobRef:
    """A by-digest reference embedded in task payloads instead of a value."""

    digest: str

    def __post_init__(self) -> None:
        if len(self.digest) != 64:
            raise BlobError(f"blob digest must be 64 hex chars, got {self.digest!r}")


# --------------------------------------------------------------------- #
# The store
# --------------------------------------------------------------------- #

_NO_VALUE = object()


@dataclass
class _Entry:
    """One resident blob: its bytes, size, and (optionally) the live object."""

    data: BlobData
    size: int
    value: Any = _NO_VALUE


class BlobStore:
    """Content-addressed blob cache: a byte-capacity LRU.

    Thread-safe. ``put`` computes (or verifies) the SHA-256 digest of
    the serialised form; ``get`` returns the bytes, ``get_object`` the
    deserialised value — preferring the cached original object so the
    in-process resolution path costs nothing. An evicted digest raises
    :class:`~repro.exceptions.BlobNotFoundError`, like one never put.

    Parameters
    ----------
    capacity : int, optional
        In-memory byte budget (default 256 MiB). A single blob larger
        than the budget is still admitted (it would otherwise be
        unusable); everything else is evicted around it.
    """

    def __init__(self, *, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise BlobError(f"blob store capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = threading.RLock()
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        self._bytes = 0
        self.puts = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- write side ---------------------------------------------------- #

    def put(self, data: BlobData, *, value: Any = _NO_VALUE) -> str:
        """Insert serialised ``data``; returns its digest (idempotent)."""
        with trace_span("blob.put") as blob_span:
            if blob_span.recording:
                blob_span.set_attribute("bytes", data.size)
            digest = blob_digest(data)
            with self._lock:
                entry = self._entries.get(digest)
                if entry is not None:
                    self._entries.move_to_end(digest)
                    if entry.value is _NO_VALUE and value is not _NO_VALUE:
                        entry.value = value
                    return digest
                self.puts += 1
                self._entries[digest] = _Entry(data=data, size=data.size, value=value)
                self._bytes += data.size
                self._shrink()
            return digest

    # -- read side ----------------------------------------------------- #

    def __contains__(self, digest: str) -> bool:
        with self._lock:
            return digest in self._entries

    def touch(self, digest: str) -> bool:
        """Mark ``digest`` as just used, as a repeated :meth:`put` would.

        Returns whether the store holds it.
        """
        with self._lock:
            if digest not in self._entries:
                return False
            self._entries.move_to_end(digest)
            return True

    def size_of(self, digest: str) -> int:
        """Resident size of ``digest`` in bytes (0 when not in memory)."""
        with self._lock:
            entry = self._entries.get(digest)
            return entry.size if entry is not None else 0

    def get(self, digest: str) -> BlobData:
        """The serialised blob for ``digest``."""
        with trace_span("blob.get") as blob_span:
            if blob_span.recording:
                blob_span.set_attribute("digest", digest[:12])
            with self._lock:
                entry = self._entries.get(digest)
                if entry is not None:
                    self._entries.move_to_end(digest)
                    self.hits += 1
                    return entry.data
                self.misses += 1
            raise BlobNotFoundError(
                f"blob {digest[:12]}… is not in this store (evicted, or never put)",
                digest=digest,
            )

    def get_object(self, digest: str) -> Any:
        """The live value for ``digest`` — the original object when cached."""
        with self._lock:
            entry = self._entries.get(digest)
            if entry is not None and entry.value is not _NO_VALUE:
                self._entries.move_to_end(digest)
                self.hits += 1
                return entry.value
        data = self.get(digest)
        value = loads_oob(data)
        with self._lock:
            entry = self._entries.get(digest)
            if entry is not None and entry.value is _NO_VALUE:
                entry.value = value
        return value

    def stats(self) -> Dict[str, int]:
        """Counter snapshot (puts/hits/misses/evictions and bytes)."""
        with self._lock:
            return {
                "blobs": len(self._entries),
                "bytes": self._bytes,
                "puts": self.puts,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }

    def clear(self) -> None:
        """Drop every entry."""
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    # -- internals ----------------------------------------------------- #

    def _shrink(self) -> None:
        """Evict least recently used entries down to capacity.

        The newest entry always stays, even when it alone is over budget.
        """
        while self._bytes > self.capacity and len(self._entries) > 1:
            _, entry = self._entries.popitem(last=False)
            self._bytes -= entry.size
            self.evictions += 1


# --------------------------------------------------------------------- #
# Process-wide default store
# --------------------------------------------------------------------- #

_DEFAULT_STORE: Optional[BlobStore] = None
_DEFAULT_LOCK = threading.Lock()


def default_blob_store() -> BlobStore:
    """The process-wide store payload builders and schedulers share."""
    global _DEFAULT_STORE
    with _DEFAULT_LOCK:
        if _DEFAULT_STORE is None:
            _DEFAULT_STORE = BlobStore()
        return _DEFAULT_STORE


def set_default_blob_store(store: Optional[BlobStore]) -> Optional[BlobStore]:
    """Swap the default store (tests); returns the previous one."""
    global _DEFAULT_STORE
    with _DEFAULT_LOCK:
        previous = _DEFAULT_STORE
        _DEFAULT_STORE = store
        return previous


def _after_fork() -> None:
    """Fresh locks in a forked child: a parent thread may have held them."""
    global _DEFAULT_LOCK
    _DEFAULT_LOCK = threading.Lock()
    if _DEFAULT_STORE is not None:
        _DEFAULT_STORE._lock = threading.RLock()


os.register_at_fork(after_in_child=_after_fork)


def maybe_blob(
    value: Any,
    *,
    min_bytes: int = MIN_BLOB_BYTES,
    store: Optional[BlobStore] = None,
) -> Tuple[Any, Tuple[str, ...]]:
    """Blob-ify ``value`` when it is worth it.

    Returns ``(replacement, digests)``: a :class:`BlobRef` plus its
    one-element digest tuple when the serialised form reaches
    ``min_bytes``, or the untouched value and an empty tuple otherwise.
    This is the single call payload builders make, so the "is the data
    plane on, is this value big enough" policy lives in one place.
    """
    data = dumps_oob(value)
    if data.size < min_bytes:
        return value, ()
    target = store if store is not None else default_blob_store()
    digest = target.put(data, value=value)
    return BlobRef(digest), (digest,)


# --------------------------------------------------------------------- #
# Ref substitution in payload structures
# --------------------------------------------------------------------- #


def _resolve(obj: Any, lookup: Callable[[str], Any], depth: int) -> Any:
    """``obj`` with every :class:`BlobRef` replaced; containers only, bounded.

    Container copies happen only on an actual change, so ref-free payloads
    pass through untouched (same object, no copying).
    """
    if isinstance(obj, BlobRef):
        return lookup(obj.digest)
    if depth <= 0:
        return obj
    if type(obj) is tuple:
        items = [_resolve(item, lookup, depth - 1) for item in obj]
        if all(new is old for new, old in zip(items, obj)):
            return obj
        return tuple(items)
    if type(obj) is list:
        items = [_resolve(item, lookup, depth - 1) for item in obj]
        if all(new is old for new, old in zip(items, obj)):
            return obj
        return items
    if type(obj) is dict:
        values = {key: _resolve(item, lookup, depth - 1) for key, item in obj.items()}
        if all(values[key] is obj[key] for key in obj):
            return obj
        return values
    return obj


def resolve_refs(
    obj: Any,
    fetch: Optional[Callable[[str], Any]] = None,
    *,
    depth: int = 6,
) -> Any:
    """Materialise every :class:`BlobRef` in ``obj``.

    ``fetch(digest)`` supplies ref values (default: the process-wide
    store's ``get_object``). Structures without refs come back
    unchanged — the same object.
    """
    lookup = fetch if fetch is not None else default_blob_store().get_object
    return _resolve(obj, lookup, depth)


__all__ = [
    "DEFAULT_CAPACITY",
    "MIN_BLOB_BYTES",
    "BlobData",
    "BlobRef",
    "BlobStore",
    "blob_digest",
    "default_blob_store",
    "dumps_oob",
    "loads_oob",
    "maybe_blob",
    "resolve_refs",
    "set_default_blob_store",
]
