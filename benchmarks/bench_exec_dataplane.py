"""Zero-copy data plane — bytes-on-wire dedup and local blob dispatch guards.

Not a paper figure: this benchmark guards the execution-layer data plane
(content-addressed blobs, the forked local workers' inherited blob
cache, deduplicated remote payloads) against functional and performance
regression.

* **Remote dedup**: a 200-task shared-secret screen — every task carries
  the same suspect histogram — dispatched to a spawned ``freqywm
  worker`` must move **>=5x fewer bytes** over the socket with the
  histogram referenced by digest than with it inline (framed payloads
  without blob refs, so every task's frames carry the whole histogram),
  while returning verdicts identical to the inline run. The
  shared histogram ships once as a content-addressed blob; each task
  line then carries only its digest.
* **Local blob dispatch**: fanning a large shared NumPy array out to a
  :class:`~repro.exec.scheduler.LocalScheduler`'s two forked workers
  must be faster by digest (the blob is put before the workers fork, so
  each already holds it) than through per-task pickling of the full
  array.

Run directly (``python benchmarks/bench_exec_dataplane.py``) or via
pytest; the CI smoke job includes the timings in ``BENCH_smoke.json``.
"""

from __future__ import annotations

import contextlib
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.core.config import DetectionConfig
from repro.core.histogram import TokenHistogram
from repro.core.secrets import WatermarkSecret
from repro.core.tokens import TokenPair
from repro.exec.blobs import maybe_blob
from repro.exec.policy import ExecutionPolicy
from repro.exec.remote import RemoteScheduler
from repro.exec.scheduler import (
    TaskSpec,
    create_scheduler,
    register_task_function,
)

from bench_utils import experiment_banner

TASK_COUNT = 200
DEDUP_FLOOR = 5.0


def _smoke() -> bool:
    return os.environ.get("REPRO_BENCH_SCALE", "").lower() == "smoke"


@contextlib.contextmanager
def _spawn_worker(socket_path: Path):
    """A live ``freqywm worker`` on ``socket_path`` for the block."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "worker", "--socket", str(socket_path)],
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        line = process.stderr.readline()
        if "listening on" not in line:
            process.terminate()
            raise RuntimeError(f"worker failed to start: {line!r}")
        yield process
    finally:
        process.terminate()
        process.wait(timeout=10)


def _screen_workload(tokens: int):
    """One big suspect histogram plus a fleet of candidate secrets."""
    histogram = TokenHistogram.from_counts(
        {f"tok{i:05d}": 10_000 - i for i in range(tokens)}
    )
    pairs = tuple(
        TokenPair(f"tok{i:05d}", f"tok{i + 1:05d}") for i in range(0, 16, 2)
    )
    secret = WatermarkSecret(pairs=pairs, secret=0x5EC4E7, modulus_cap=131)
    return histogram, secret


def _screen_specs(histogram, secret, detection, *, blobs: bool):
    """The 200 shared-histogram ``secrets.chunk`` tasks, one secret each."""
    value, refs = (histogram, ())
    if blobs:
        value, refs = maybe_blob(histogram)
    return [
        TaskSpec(
            fingerprint=f"dataplane:{detection.fingerprint()}:{index}",
            function="secrets.chunk",
            payload=(value, [secret], detection, False),
            blob_refs=refs,
        )
        for index in range(TASK_COUNT)
    ]


def test_remote_payload_dedup():
    """200-task shared-secret screen: >=5x fewer bytes on the wire."""
    tokens = 1_500 if _smoke() else 4_000
    histogram, secret = _screen_workload(tokens)
    detection = DetectionConfig()

    outcomes = {}
    with tempfile.TemporaryDirectory(prefix="bench-dataplane-") as tmp:
        for mode in ("inline", "blob"):
            socket_path = Path(tmp) / f"worker-{mode}.sock"
            with _spawn_worker(socket_path):
                scheduler = RemoteScheduler([f"unix:{socket_path}"])
                try:
                    specs = _screen_specs(
                        histogram, secret, detection, blobs=(mode == "blob")
                    )
                    start = time.perf_counter()
                    results = scheduler.run(specs)
                    seconds = time.perf_counter() - start
                    outcomes[mode] = (results, scheduler.stats, seconds)
                finally:
                    scheduler.close()

    inline_results, inline_stats, inline_seconds = outcomes["inline"]
    blob_results, blob_stats, blob_seconds = outcomes["blob"]
    assert blob_results == inline_results, "data plane changed the verdicts"
    assert blob_stats.blobs_sent >= 1
    assert blob_stats.bytes_deduped > 0

    ratio = inline_stats.bytes_sent / max(blob_stats.bytes_sent, 1)
    experiment_banner(
        "Data plane: remote dedup",
        f"{TASK_COUNT} tasks sharing one {tokens}-token histogram",
    )
    print(  # noqa: T201
        f"  inline: {inline_stats.bytes_sent:,} bytes ({inline_seconds:.2f} s)   "
        f"blob: {blob_stats.bytes_sent:,} bytes ({blob_seconds:.2f} s)   "
        f"reduction: {ratio:.1f}x "
        f"(deduped {blob_stats.bytes_deduped:,} bytes)"
    )
    assert ratio >= DEDUP_FLOOR, (
        f"blob plane moved only {ratio:.1f}x fewer bytes than inline "
        f"(floor {DEDUP_FLOOR}x)"
    )


def _array_sum(_state, payload) -> int:
    """Trivial task: touch the shared array so transport cost dominates."""
    array, index = payload
    return int(array[index]) + int(array[-1])


register_task_function("dataplane.sum", _array_sum)


def _fanout_specs(array, count: int, *, blobs: bool):
    value, refs = (array, ())
    if blobs:
        value, refs = maybe_blob(array)
    return [
        TaskSpec(
            fingerprint=f"fanout:{len(array)}:{index}",
            function="dataplane.sum",
            payload=(value, index),
            blob_refs=refs,
        )
        for index in range(count)
    ]


def test_local_shm_dispatch():
    """Shared-array fan-out: dispatch by digest beats per-task pickling."""
    import pytest

    length = 1_000_000 if _smoke() else 2_000_000
    count = 24 if _smoke() else 32
    array = np.arange(length, dtype=np.int64)
    expected = [int(array[i]) + int(array[-1]) for i in range(count)]

    failures = []
    timings = {}
    for mode in ("inline", "blob"):
        scheduler = create_scheduler(
            ExecutionPolicy(workers=2),
            on_spawn_failure=lambda error: failures.append(error),
        )
        try:
            if scheduler.workers < 2 or failures:
                pytest.skip("cannot start local workers here")
            # Warm the scheduler outside the timed window.
            scheduler.run(_fanout_specs(array[:8], 1, blobs=False))
            specs = _fanout_specs(array, count, blobs=(mode == "blob"))
            start = time.perf_counter()
            results = scheduler.run(specs)
            timings[mode] = time.perf_counter() - start
            assert results == expected, f"{mode} dispatch corrupted results"
        finally:
            scheduler.close()

    speedup = timings["inline"] / max(timings["blob"], 1e-9)
    experiment_banner(
        "Data plane: local blob dispatch",
        f"{count} tasks sharing one {array.nbytes / 1e6:.0f} MB array",
    )
    print(  # noqa: T201
        f"  inline: {timings['inline']:.2f} s   blob: {timings['blob']:.2f} s   "
        f"speedup: {speedup:.2f}x"
    )
    floor = 1.05 if _smoke() else 1.2
    assert speedup >= floor, (
        f"blob dispatch only {speedup:.2f}x faster than inline (floor {floor}x)"
    )


if __name__ == "__main__":
    raise SystemExit(
        subprocess.call([sys.executable, "-m", "pytest", "-q", "-x", __file__])
    )
