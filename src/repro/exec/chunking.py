"""Shared chunk-size heuristic for every sharded dispatch path.

Detection and embedding batches split ``n`` items into contiguous
chunks sized so each worker receives a target number of chunks,
optionally capped so no single dispatch holds too many items. Detection
over token sequences or files wants several small chunks per worker
(suspects vary wildly in size, so slack load-balances). Detection over
histograms and count mappings, which the driver reads into one count
row per suspect, wants one chunk per worker: every row costs a worker
the same, so extra chunks would only add round trips. Embedding also
wants one big chunk per worker (each chunk shares one set of scan
plans, so bigger amortises more). The *heuristic* is one function with
two parameter settings, not two functions.

``tests/test_exec_chunking.py`` pins the boundary behaviour: fewer items
than workers, ``chunk_size=1``, and the cap interacting with tiny
batches.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

from repro.exceptions import SchedulerError

#: Detection's default chunks per worker for a batch holding token
#: sequences or files: small enough to load-balance uneven datasets,
#: large enough that each chunk amortises the worker round-trip over one
#: vectorized matrix pass. A batch of histograms and count mappings only
#: uses one chunk per worker instead, since its rows cost the same.
DETECTION_CHUNKS_PER_WORKER = 4
#: Detection's cap on the derived chunk size: bounds how many suspects
#: are resident per dispatch (and per in-process fallback step), and the
#: rows of each count matrix a ``detect.counts`` task carries.
DETECTION_MAX_CHUNK = 64


def derive_chunk_size(
    n_items: int,
    workers: int,
    *,
    chunk_size: Optional[int] = None,
    chunks_per_worker: int = 1,
    max_chunk: Optional[int] = None,
) -> int:
    """The chunk size one dispatch should use for ``n_items`` items.

    Parameters
    ----------
    n_items : int
        Number of items in the batch (>= 0).
    workers : int
        Worker count the batch is split across (>= 1).
    chunk_size : int, optional
        Explicit caller-chosen size; returned verbatim when given.
    chunks_per_worker : int, optional
        Target chunks per worker when deriving (default 1: one chunk per
        worker, the setting of embedding and of counted detection;
        detection over token sequences or files passes
        :data:`DETECTION_CHUNKS_PER_WORKER`).
    max_chunk : int, optional
        Upper bound applied to the *derived* size (never to an explicit
        ``chunk_size``); ``None`` leaves the derived size uncapped.

    Returns
    -------
    int
        A chunk size >= 1.
    """
    if chunk_size is not None:
        if chunk_size < 1:
            raise SchedulerError(f"chunk_size must be >= 1, got {chunk_size}")
        return chunk_size
    if workers < 1:
        raise SchedulerError(f"workers must be >= 1, got {workers}")
    if chunks_per_worker < 1:
        raise SchedulerError(
            f"chunks_per_worker must be >= 1, got {chunks_per_worker}"
        )
    size = max(1, -(-n_items // (workers * chunks_per_worker)))
    if max_chunk is not None:
        size = min(size, max_chunk)
    return max(1, size)


def chunk_spans(n_items: int, size: int) -> Iterator[Tuple[int, int]]:
    """Contiguous ``(start, stop)`` spans covering ``range(n_items)`` in order.

    Ordered collection of sharded results relies on the spans being
    contiguous and emitted in input order.
    """
    if size < 1:
        raise SchedulerError(f"chunk size must be >= 1, got {size}")
    for start in range(0, n_items, size):
        yield start, min(start + size, n_items)


def split_chunks(items: Sequence, size: int) -> Iterator[List]:
    """The items of each :func:`chunk_spans` span, as lists, in order."""
    sequence = list(items)
    for start, stop in chunk_spans(len(sequence), size):
        yield sequence[start:stop]


__all__ = [
    "DETECTION_CHUNKS_PER_WORKER",
    "DETECTION_MAX_CHUNK",
    "chunk_spans",
    "derive_chunk_size",
    "split_chunks",
]
