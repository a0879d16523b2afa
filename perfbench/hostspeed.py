"""Host-speed yardstick: every time metric is scaled to one reference speed.

The benchmark runs on a few vCPUs of a shared host whose speed moves by
up to ~2x between minutes, often while the vCPUs are hardly stolen: on
the same code and the same day, per-run medians of the ``generate`` op
read 0.46-0.49 s in one hour and 0.68-1.26 s in the next, and ten runs
in a row can straddle both states. No run length averages that away, so
between ops the harness takes a reading of a fixed probe -- the CPU time
of a few small parts of work (``MIXES``) -- and reports an op as

    (wall time - time the host stole the vCPU) * reference_ms / p

where ``p`` is the median reading within ``WINDOW_S`` of the op's
midpoint (single readings jump by up to 60% for a few hundred ms, while
the slow states last minutes) and the stolen time is the largest
per-vCPU ``steal`` delta of ``/proc/stat`` over the op. The result reads
as the op's latency on the quiet host where the reading was
``reference_ms``. The probe is the benchmark's own code on fixed inputs,
so a change to the program never moves it. The raw op intervals, the
readings (with each part's time) and the stolen time stay in each run's
detail line.
"""

from __future__ import annotations

import gc
import os
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

REPEATS = 3
WINDOW_S = 2.0
TIME_UNITS = ("s", "ms", "us", "ns")
TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")

#: (start, end, stolen) of a timed interval, in seconds.
Interval = Tuple[float, float, float]


def steal_ticks() -> List[int]:
    """Cumulative ``steal`` ticks of each vCPU (``/proc/stat``)."""
    with open("/proc/stat", "rb") as handle:
        return [int(line.split()[8]) for line in handle if line.startswith(b"cpu") and line[3:4].isdigit()]


class _Inputs:
    """The probe's fixed inputs (the same on every run and every seed)."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20240601)
        names = [f"probe-{index:04d}" for index in range(1000)]
        self.tokens = [names[i] for i in rng.integers(0, 1000, 80_000).tolist()]
        ends = rng.integers(0, 400, (400, 8)).tolist()
        self.graph = {u: {v: (u * v) % 97 for v in row} for u, row in enumerate(ends)}
        self.floats = rng.random(120_000)
        self.table = rng.integers(0, 1 << 30, 1 << 19)
        self.index = rng.integers(0, len(self.table), 200_000)


def _count(d: _Inputs) -> int:  # histogram building, ~2.4 ms
    return len(Counter(d.tokens))


def _graph(d: _Inputs) -> int:  # dict-of-dicts graph walk, ~1.2 ms
    total = 0
    for _ in range(8):
        for u, edges in d.graph.items():
            for v, weight in edges.items():
                if weight > total % 97:
                    total += u ^ v
    return total


def _loop(d: _Inputs) -> int:  # interpreted arithmetic, ~1.1 ms
    total = 0
    for value in range(20_000):
        total += value * value % 7
    return total


def _sort(d: _Inputs) -> int:  # vectorised NumPy, ~2.1 ms
    return int(np.argsort(d.floats)[0])


def _gather(d: _Inputs) -> int:  # random reads over a 4 MiB table, ~0.7 ms
    return int(d.table[d.index].sum() & 0xFF)


_PARTS = (_count, _graph, _loop, _sort, _gather)

#: (weight of each part in a reading, the reading on a quiet 2-vCPU Intel
#: Xeon VM). Between a quiet hour and a slow one the parts slowed by
#: different factors (random reads 3.9x, the counter 2.3x, the loops
#: 2.0-2.1x, the sort 1.8x) and so did the ops: ``generate`` 2.03x,
#: ``remote-sweep`` 2.07x and ``serve-mix`` 2.55x (every traced call in its
#: server slowed 2.3-2.7x). The weights make each reading slow by its op's
#: factor.
Mix = Tuple[Dict[str, float], float]
BASE: Mix = ({"count": 1.0, "graph": 1.0, "loop": 1.0, "sort": 1.0}, 7.1)
MIXES: Dict[str, Mix] = {
    "generate": BASE,
    "serve-mix": ({**BASE[0], "gather": 3.0}, 9.3),
    "remote-sweep": BASE,
}
#: Set-ups (interpreter start, imports, vault replay) slow like the base
#: mix in every workload: scaled by the ``serve-mix`` mix they read ~28%
#: lower in the slow hour than in the quiet one.
SETUP: Mix = BASE


class Probe:
    """Times the probe parts between a workload's ops and scales its times."""

    def __init__(self, workload: str) -> None:
        self._inputs = _Inputs()
        self.mix = MIXES[workload]
        #: perf_counter time and median CPU ms of each part, per measurement.
        self.times: List[float] = []
        self.parts: List[Dict[str, float]] = []
        for part in _PARTS:  # first calls run slower (allocator, caches)
            part(self._inputs)

    def measure(self) -> None:
        """Time every part ``REPEATS`` times and record each part's median."""
        samples: Dict[str, List[float]] = {}
        gc.disable()  # the parts make no cycles; collecting the harness's heap is not host speed
        try:
            for _ in range(REPEATS):
                for part in _PARTS:
                    start = time.thread_time()
                    part(self._inputs)
                    samples.setdefault(part.__name__.lstrip("_"), []).append((time.thread_time() - start) * 1e3)
        finally:
            gc.enable()
        self.times.append(time.perf_counter())
        self.parts.append({name: float(np.median(values)) for name, values in samples.items()})

    def readings(self, mix: Optional[Mix] = None) -> np.ndarray:
        """Each measurement's reading: the mix's weighted sum of part ms."""
        weights = (mix or self.mix)[0]
        return np.array([sum(w * parts[name] for name, w in weights.items()) for parts in self.parts])

    def tick(self, gap: float = 0.25) -> None:
        """Measure if the last measurement is at least ``gap`` seconds old."""
        if not self.times or time.perf_counter() - self.times[-1] >= gap:
            self.measure()

    @staticmethod
    def start() -> Tuple[float, List[int]]:
        steal = steal_ticks()
        return time.perf_counter(), steal

    @staticmethod
    def stop(mark: Tuple[float, List[int]], end: Optional[float] = None) -> Interval:
        """The interval from ``mark`` to now (or to ``end``, already past)."""
        if end is None:
            end = time.perf_counter()
        stolen = max(after - before for before, after in zip(mark[1], steal_ticks()))
        return mark[0], end, stolen * TICK_S

    def factor(self, start: float, end: float, mix: Optional[Mix] = None, window: Optional[float] = WINDOW_S) -> float:
        """``reference / p``: ``p`` is the median reading within ``window`` s
        of the interval's midpoint (at least the three nearest; ``None``:
        every reading of the run)."""
        if not self.times:
            raise RuntimeError("no probe measured yet")
        values = self.readings(mix)
        if window is not None:
            distance = np.abs(np.array(self.times) - (start + end) / 2.0)
            near = distance <= window
            values = values[near] if near.sum() >= 3 else values[np.argsort(distance)[:3]]
        return (mix or self.mix)[1] / float(np.median(values))

    def scale(self, interval: Interval, mix: Optional[Mix] = None) -> float:
        """An interval's unstolen seconds, at reference speed."""
        start, end, stolen = interval
        return max(end - start - stolen, 0.0) * self.factor(start, end, mix)

    def scale_times(self, metrics: Dict[str, tuple]) -> Dict[str, tuple]:
        """``{name: (value, unit)}`` with every time scaled by the run's
        median reading (per-layer metrics; not corrected for stolen time)."""
        factor = self.factor(0.0, 0.0, window=None)
        return {
            name: (value * factor if unit in TIME_UNITS else value, unit)
            for name, (value, unit) in metrics.items()
        }

    def summary(self, intervals: Sequence[Optional[Interval]] = ()) -> dict:
        """Readings, each part's ms and the raw op intervals, times from the first reading."""
        origin = self.times[0]
        values = self.readings()
        return {
            "n": len(values),
            "min_ms": float(values.min()),
            "median_ms": float(np.median(values)),
            "max_ms": float(values.max()),
            "points": [[round(t - origin, 4), round(float(v), 3)] for t, v in zip(self.times, values)],
            "parts": [{name: round(ms, 4) for name, ms in parts.items()} for parts in self.parts],
            "ops": [[round(i[0] - origin, 4), round(i[1] - i[0], 5), round(i[2], 2)] for i in intervals if i],
        }
