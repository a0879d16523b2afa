"""LRU cache of constructed detectors, keyed by secret/config fingerprint.

Constructing a :class:`~repro.core.detector.WatermarkDetector` resolves
its per-pair thresholds and its column layout (the suspect tokens it
reads) — work that depends only on the secret and the detection
configuration. The SHA-256 moduli are not part of it: the secret derives
them once and memoises them
(:meth:`~repro.core.secrets.WatermarkSecret.moduli`), so rebuilding an
evicted detector hashes nothing. Any caller that answers many verdicts
against a recurring set of watermarks — the resident service, the
dispute judge, provenance chains, the attack-robustness sweeps — keeps
its detectors here: a bounded (or unbounded), thread-safe LRU map from
:func:`~repro.core.detector.detector_fingerprint` keys to live detectors.

The detection service, the attack, dispute and multi-watermark layers
all share this one cache type; :mod:`repro.service` re-exports it.

The fingerprint is a keyed commitment (it reveals nothing about the pairs
to a party without ``R``) so cache keys are safe to log and to send over
the service wire as secret references.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.config import DetectionConfig
from repro.core.detector import WatermarkDetector, detector_fingerprint
from repro.core.secrets import WatermarkSecret
from repro.exceptions import ServiceError

#: Default number of distinct (secret, config) detectors kept resident.
DEFAULT_CACHE_CAPACITY = 8


@dataclass(frozen=True)
class CacheStats:
    """Immutable snapshot of a cache's hit/miss/eviction counters."""

    hits: int
    misses: int
    evictions: int
    size: int
    capacity: Optional[int]

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served without construction (0 when idle)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> Dict[str, object]:
        """Flat dictionary for reports and ``--json`` output."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": self.size,
            "capacity": self.capacity,
            "hit_rate": self.hit_rate,
        }


class DetectorCache:
    """Bounded (or unbounded) LRU cache of :class:`WatermarkDetector` instances.

    Parameters
    ----------
    capacity : int, optional
        Maximum number of detectors kept resident; the least recently
        used entry is evicted when a new watermark would exceed it.
        ``None`` disables eviction entirely — the right setting for
        owner-side working sets whose size is already bounded elsewhere
        (a provenance chain's stages, a judge's claimants).

    Notes
    -----
    All operations take an internal lock, so one cache may be shared
    between the asyncio service loop and synchronous facade threads.
    """

    def __init__(self, capacity: Optional[int] = DEFAULT_CACHE_CAPACITY) -> None:
        if capacity is not None and capacity < 1:
            raise ServiceError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[str, WatermarkDetector]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # ------------------------------------------------------------------ #
    # Pickling
    # ------------------------------------------------------------------ #

    def __getstate__(self) -> Dict[str, object]:
        """Pickle the configuration and counters, never the residents.

        The lock is process-local and the cached detectors are pure
        derived state, so objects that embed a cache (provenance chains,
        multi-watermark results) stay picklable/deepcopy-able; the cache
        simply starts cold on the other side.
        """
        with self._lock:
            return {
                "capacity": self.capacity,
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
            }

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.capacity = state["capacity"]  # type: ignore[assignment]
        self._entries = OrderedDict()
        self._lock = threading.Lock()
        self._hits = int(state["hits"])  # type: ignore[arg-type]
        self._misses = int(state["misses"])  # type: ignore[arg-type]
        self._evictions = int(state["evictions"])  # type: ignore[arg-type]

    def lookup(
        self,
        secret: WatermarkSecret,
        config: Optional[DetectionConfig] = None,
    ) -> Tuple[WatermarkDetector, bool]:
        """Return ``(detector, cache_hit)`` for a secret/config pair.

        On a miss the detector is constructed and inserted, evicting
        the least recently used entry when the cache is full.
        """
        key = detector_fingerprint(secret, config)
        with self._lock:
            detector = self._entries.get(key)
            if detector is not None:
                self._entries.move_to_end(key)
                self._hits += 1
                return detector, True
            self._misses += 1
        # Construct outside the lock: a first construction derives the
        # secret's moduli and must not serialise unrelated lookups.
        detector = WatermarkDetector(secret, config)
        with self._lock:
            resident = self._entries.get(key)
            if resident is not None:  # lost a construction race: keep first
                self._entries.move_to_end(key)
                return resident, False
            self._entries[key] = detector
            while self.capacity is not None and len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._evictions += 1
        return detector, False

    def get(
        self,
        secret: WatermarkSecret,
        config: Optional[DetectionConfig] = None,
    ) -> WatermarkDetector:
        """:meth:`lookup` without the hit flag."""
        detector, _hit = self.lookup(secret, config)
        return detector

    def peek(self, key: str) -> Optional[WatermarkDetector]:
        """The resident detector for a fingerprint key, without side effects."""
        with self._lock:
            return self._entries.get(key)

    def clear(self) -> None:
        """Drop every resident detector (counters are preserved)."""
        with self._lock:
            self._entries.clear()

    def stats(self) -> CacheStats:
        """Snapshot of the hit/miss/eviction counters."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._entries),
                capacity=self.capacity,
            )


__all__ = ["DEFAULT_CACHE_CAPACITY", "CacheStats", "DetectorCache"]
