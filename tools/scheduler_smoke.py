#!/usr/bin/env python
"""Cross-scheduler smoke harness: one spec, three backends, identical bytes.

Runs the bundled smoke experiment spec three ways —

1. in-process (``ExecutionPolicy(workers=1)``),
2. on a :class:`LocalScheduler` with two forked workers (``workers=2``),
3. on a :class:`RemoteScheduler` against two spawned ``freqywm worker``
   processes —

renders ``report.json`` / ``report.md`` for each, and exits non-zero
unless all three pairs are byte-identical, no forked worker of the
local run is left behind once it returns, and a cached rerun of the
warm run directory executes zero tasks. CI's ``scheduler-smoke`` job calls
this; it is equally useful locally after touching anything under
``src/repro/exec``.

Usage::

    python tools/scheduler_smoke.py [--spec experiments/specs/smoke.json]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

from repro.exec.policy import ExecutionPolicy
from repro.experiments import load_spec, run_experiment, write_report


@contextmanager
def spawn_worker(socket_path: Path):
    """A live ``freqywm worker`` on ``socket_path`` for the block's duration."""
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "worker",
            "--socket",
            str(socket_path),
        ],
        stderr=subprocess.PIPE,
        text=True,
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


def run_backend(spec, run_dir: Path, policy: ExecutionPolicy, label: str):
    """Run the spec under one policy and return (result, json bytes, md bytes)."""
    result = run_experiment(spec, run_dir, policy=policy)
    json_path, md_path = write_report(run_dir)
    print(
        f"  {label}: {result.executed_total} executed, "
        f"{result.cached_total} cached, {result.seconds:.2f}s "
        f"({result.workers} worker(s), {result.bytes_sent} bytes sent, "
        f"{result.bytes_deduped} deduped)"
    )
    telemetry_path = Path(run_dir) / "telemetry.json"
    if telemetry_path.exists():
        # Present only when FREQYWM_TELEMETRY was on for this process;
        # surfacing it here lets the CI telemetry job reuse this harness.
        telemetry = json.loads(telemetry_path.read_text(encoding="utf-8"))
        spans = telemetry.get("spans", {})
        print(
            f"    telemetry: features={','.join(telemetry.get('features', []))} "
            f"spans_buffered={spans.get('buffered', 0)} "
            f"dropped={spans.get('dropped', 0)} ({telemetry_path})"
        )
    return result, json_path.read_bytes(), md_path.read_bytes()


def leftover_child() -> str:
    """A description of a child process still around, or ``""`` if none is."""
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return ""
    if pid == 0:
        return "a child process is still running"
    return f"child {pid} was left unreaped (status {status})"


def main(argv=None) -> int:
    """Entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--spec",
        default="experiments/specs/smoke.json",
        help="experiment spec to run (default: the bundled smoke spec)",
    )
    args = parser.parse_args(argv)
    spec = load_spec(args.spec)

    with tempfile.TemporaryDirectory(prefix="scheduler-smoke-") as tmp:
        tmp_path = Path(tmp)
        print("running the smoke spec on all three scheduler backends:")
        serial, serial_json, serial_md = run_backend(
            spec, tmp_path / "serial", ExecutionPolicy(workers=1), "in-process"
        )
        local, local_json, local_md = run_backend(
            spec, tmp_path / "local", ExecutionPolicy(workers=2), "local x2"
        )
        leftover = leftover_child()

        sock_a = tmp_path / "worker-a.sock"
        sock_b = tmp_path / "worker-b.sock"
        with spawn_worker(sock_a), spawn_worker(sock_b):
            remote_policy = ExecutionPolicy(
                scheduler="remote",
                addresses=(f"unix:{sock_a}", f"unix:{sock_b}"),
            )
            remote, remote_json, remote_md = run_backend(
                spec, tmp_path / "remote", remote_policy, "remote x2"
            )

        failures = []
        if serial.executed_total == 0:
            failures.append("the in-process run executed nothing")
        if leftover:
            failures.append(f"after the local run, {leftover}")
        if remote.workers != 2:
            failures.append(f"remote run used {remote.workers} workers, wanted 2")
        for label, payload, baseline in [
            ("local report.json", local_json, serial_json),
            ("local report.md", local_md, serial_md),
            ("remote report.json", remote_json, serial_json),
            ("remote report.md", remote_md, serial_md),
        ]:
            if payload != baseline:
                failures.append(f"{label} differs from the in-process report")

        rerun = run_experiment(
            spec, tmp_path / "local", policy=ExecutionPolicy(workers=2)
        )
        if rerun.executed_total != 0:
            failures.append(
                f"cached rerun executed {rerun.executed_total} tasks, wanted 0"
            )
        else:
            print(f"  cached rerun: all {rerun.cached_total} tasks served from cache")

        if failures:
            for failure in failures:
                print(f"FAIL: {failure}", file=sys.stderr)
            return 1

    print("scheduler smoke passed: all three backends byte-identical")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
