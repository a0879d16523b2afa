"""Shared helpers: statistics, host context, process control, result output.

Nothing here imports ``repro``: the workloads decide when the program is
imported, because that import is part of what ``setup_s`` measures.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
BOOT = BENCH_DIR / "boot.py"

#: Scratch space for sockets, vaults and span files. Relative to the
#: checkout root (the working directory of every process the benchmark
#: starts), so Unix socket paths stay far below the 108-byte limit.
TMP_PARENT = Path(".perfbench_tmp")


def now() -> float:
    """Monotonic seconds; CLOCK_MONOTONIC on Linux, shared by all processes."""
    return time.perf_counter()


# --------------------------------------------------------------------- #
# Statistics
# --------------------------------------------------------------------- #


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile (numpy's default method)."""
    if not values:
        raise ValueError("quantile of an empty sample")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


def op_p50(latencies: Sequence[float]) -> float:
    """The ``op_p50_ms`` statistic: Harrell-Davis median of the ops that
    succeeded (failed ops are counted in ``failed`` and fail the run)."""
    finite = [value for value in latencies if math.isfinite(value)]
    return hd_median(finite) if finite else 0.0


def hd_median(values: Sequence[float]) -> float:
    """Harrell-Davis estimate of the median.

    A weighted average of every order statistic, with Beta((n+1)/2,
    (n+1)/2) weights that peak at the middle. It estimates the same p50
    as the sample median, but moves smoothly when host speed flips
    between a fast and a slow state during a run, where the sample
    median jumps from one state's value to the other's.
    """
    ordered = np.sort(np.asarray(values, dtype=float))
    n = len(ordered)
    if n < 3:
        return median(values)
    shape = (n + 1) / 2.0
    grid = np.linspace(0.0, 1.0, 20 * n + 1)[1:-1]
    log_pdf = (shape - 1) * (np.log(grid) + np.log1p(-grid))
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate(([0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2)))
    cdf = np.concatenate(([0.0], cdf / cdf[-1], [1.0]))
    weights = np.diff(np.interp(np.arange(n + 1) / n, np.concatenate(([0.0], grid, [1.0])), cdf))
    used = weights > 1e-9
    return float(np.dot(weights[used], ordered[used]) / weights[used].sum())


def rate(done: int, seconds: Sequence[float]) -> float:
    """``done`` per second of the finite ``seconds`` (0 if none are)."""
    busy = sum(value for value in seconds if math.isfinite(value))
    return done / busy if busy > 0 else 0.0


def tail_supported(count: int, q: float) -> bool:
    """Whether at least ten samples lie beyond the ``q`` quantile."""
    return count * (1.0 - q) >= 10


def summary(values: Sequence[float]) -> Dict[str, float]:
    """Sample count, median, every tail with ten samples beyond it, max."""
    out: Dict[str, float] = {"n": len(values)}
    if not values:
        return out
    out["p50"] = median(values)
    out["max"] = max(values)
    for label, q in (("p90", 0.90), ("p95", 0.95), ("p99", 0.99)):
        if tail_supported(len(values), q):
            out[label] = quantile(values, q)
    return out


# --------------------------------------------------------------------- #
# Host context
# --------------------------------------------------------------------- #


def _steal_ticks() -> int:
    with open("/proc/stat", encoding="ascii") as handle:
        fields = handle.readline().split()
    return int(fields[8]) if len(fields) > 8 else 0


def reference_loop_ms(repeats: int = 7) -> float:
    """Median time of a fixed pure-Python loop: a yardstick for host speed."""
    samples = []
    for _ in range(repeats):
        start = now()
        total = 0
        for value in range(200_000):
            total += value * value % 7
        samples.append((now() - start) * 1e3)
    return median(samples)


class HostContext:
    """Host facts recorded around one run (printed, never gated)."""

    def __init__(self) -> None:
        self.steal_start = _steal_ticks()
        self.reference_before_ms = reference_loop_ms()

    def finish(self) -> Dict[str, object]:
        versions = {}
        for package in ("numpy", "networkx"):
            try:
                versions[package] = metadata.version(package)
            except metadata.PackageNotFoundError:
                versions[package] = None
        return {
            "nproc": os.cpu_count(),
            "loadavg": list(os.getloadavg()),
            "steal_ticks": _steal_ticks() - self.steal_start,
            "python": platform.python_version(),
            **versions,
            "reference_loop_ms": {
                "before": round(self.reference_before_ms, 3),
                "after": round(reference_loop_ms(), 3),
            },
        }


def vmhwm_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (VmHWM) of a process, in MiB."""
    path = f"/proc/{pid if pid is not None else 'self'}/status"
    with open(path, encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")


# --------------------------------------------------------------------- #
# Processes and scratch space
# --------------------------------------------------------------------- #


def scratch_dir() -> Path:
    """A fresh per-run scratch directory under the checkout root."""
    path = TMP_PARENT / str(os.getpid())
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def program_env(trace_out: Optional[Path] = None) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("FREQYWM_TELEMETRY", None)
    env.pop("PERFBENCH_SPANS", None)
    if trace_out is not None:
        env["PERFBENCH_SPANS"] = str(trace_out)
    return env


def _die_with_parent() -> None:
    """Child-side: SIGKILL this process if the harness dies first (Linux)."""
    ctypes.CDLL(None, use_errno=True).prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG


class Children:
    """Every process a run starts; all are stopped and reaped on close."""

    def __init__(self) -> None:
        self.procs: List[subprocess.Popen] = []

    def spawn_cli(
        self, argv: Sequence[str], log: Path, trace_out: Optional[Path] = None
    ) -> subprocess.Popen:
        """Start ``freqywm <argv>`` through the bootstrap module."""
        with open(log, "wb") as stderr:
            proc = subprocess.Popen(
                [sys.executable, str(BOOT), *argv],
                cwd=str(ROOT),
                env=program_env(trace_out),
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=stderr,
                preexec_fn=_die_with_parent,
            )
        self.procs.append(proc)
        return proc

    def stop(self, proc: subprocess.Popen, timeout: float = 15.0) -> None:
        """SIGINT (the CLI's graceful path), then SIGKILL; always reaped."""
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if proc in self.procs:
            self.procs.remove(proc)

    def close(self) -> None:
        for proc in list(self.procs):
            self.stop(proc, timeout=5.0)


def wait_for_text(path: Path, text: str, proc: subprocess.Popen, timeout: float) -> float:
    """Poll a log file until ``text`` appears; returns the time it was seen."""
    deadline = now() + timeout
    while now() < deadline:
        try:
            if text in path.read_text(errors="replace"):
                return now()
        except FileNotFoundError:
            pass
        if proc.poll() is not None:
            raise RuntimeError(f"process exited ({proc.returncode}) before {text!r}: {path.read_text(errors='replace')[-2000:]}")
        time.sleep(0.002)
    raise RuntimeError(f"timed out waiting for {text!r} in {path}")


# --------------------------------------------------------------------- #
# Independent verdict check (the acceptance rule of WM_Detect, Sec. III-D)
# --------------------------------------------------------------------- #


def pair_modulus(first: str, second: str, secret: int, cap: int) -> int:
    """``s_ij = H(tk_i || H(R || tk_j)) mod z`` with SHA-256 (paper Sec. III-B)."""
    inner = hashlib.sha256(str(secret).encode("ascii") + b"\x00" + second.encode("utf-8")).digest()
    outer = hashlib.sha256(first.encode("utf-8") + b"\x00" + inner).digest()
    return int.from_bytes(outer, "big") % cap


def expected_accepted(
    counts: Dict[str, int],
    pairs: Iterable[tuple],
    moduli: Sequence[int],
    threshold: int,
    min_fraction: float = 0.5,
) -> bool:
    """``(f_i - f_j) mod s_ij <= t`` on at least ``ceil(k * pairs)`` pairs.

    A pair only counts when both tokens occur and its modulus is at
    least 2; this mirrors ``repro.core.reference.detect_reference``
    without going through any of the program's detection code.
    """
    pairs = list(pairs)
    accepted = 0
    for (first, second), modulus in zip(pairs, moduli):
        f_first = counts.get(first, 0)
        f_second = counts.get(second, 0)
        if f_first > 0 and f_second > 0 and modulus >= 2:
            if (f_first - f_second) % modulus <= threshold:
                accepted += 1
    required = max(1, math.ceil(min_fraction * len(pairs)))
    return accepted >= required


# --------------------------------------------------------------------- #
# Output
# --------------------------------------------------------------------- #


def emit(
    correct: bool,
    attempted: int,
    failed: int,
    metrics: Dict[str, tuple],
    detail: Dict[str, object],
) -> None:
    """Print the detail line, then the result object as the last line."""
    print(json.dumps({"detail": detail}, sort_keys=True, default=float))
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": {
                    name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        ),
        flush=True,
    )
