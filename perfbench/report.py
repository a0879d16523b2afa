"""Traced-run report: per-layer metrics and tracing overhead, per workload.

    python3 perfbench/report.py [--seed N] [--seconds S] [--workload W ...]

For each workload this runs ``run.py`` once untraced and once traced
with the same seed, then prints every per-layer metric of the traced
run (the layers the workload is meant to exercise first) and, for each
end-to-end metric, the traced value minus the untraced one. On
``generate`` it also checks that the stage self times plus
``core.generate.unattributed_ms`` add up to the traced op time.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import common
import layers
import run

#: Layer prefixes each workload is meant to exercise (the others read 0).
EXERCISED = {
    "generate": ("core.generate", "core.histogram", "core.eligibility", "core.mwm",
                 "core.knapsack", "core.modification", "core.transform"),
    "serve-mix": ("core.from_counts", "core.detect_pass", "core.detector_build",
                  "core.cache_hit_rate", "service.", "dispute.", "cli."),
    "remote-sweep": ("core.detect_pass", "core.detector_build", "exec.", "cli."),
}


def _run(workload: str, seed: int, seconds: float, trace: int):
    out = subprocess.run(
        [sys.executable, str(common.BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=str(common.ROOT), capture_output=True, text=True, timeout=600,
    )
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} --trace {trace} failed ({out.returncode}):\n{out.stderr[-3000:]}")
    return json.loads(lines[-1]), json.loads(lines[-2])["detail"]


def report(workload: str, seed: int, seconds: float) -> bool:
    plain, _ = _run(workload, seed, seconds, 0)
    traced, detail = _run(workload, seed, seconds, 1)
    ok = plain["correct"] and traced["correct"]
    print(f"\n== {workload} (seed {seed}, {seconds:g} s): attempted {plain['attempted']}/{traced['attempted']}"
          f" (untraced/traced), failed {plain['failed']}/{traced['failed']}")
    metrics = traced["metrics"]
    exercised = [name for name, _ in layers.PER_LAYER if name.startswith(EXERCISED[workload])]
    print("per-layer (traced run; layers this workload exercises):")
    for name in exercised:
        print(f"  {name:34s} {metrics[name]['value']:14.4f} {metrics[name]['unit']}")
    idle = [name for name, _ in layers.PER_LAYER if name not in exercised]
    print("  other layers: " + ", ".join(f"{name}={metrics[name]['value']:.4g}" for name in idle))
    print("traced - untraced (end-to-end):")
    for name, entry in plain["metrics"].items():
        traced_value = detail["end_to_end"][name]
        delta = traced_value - entry["value"]
        print(f"  {name:14s} {entry['value']:12.4f} -> {traced_value:12.4f}  {delta:+.4f} {entry['unit']}"
              f" ({delta / entry['value']:+.1%})")
    if workload == "generate":
        parts = sum(metrics[name]["value"] for name in (
            "core.histogram_ms", "core.eligibility_ms", "core.mwm_ms", "core.knapsack_ms",
            "core.modification_ms", "core.transform_ms", "core.generate.unattributed_ms"))
        total = metrics["core.generate_ms"]["value"]
        adds_up = abs(parts - total) <= 1e-6 * max(total, 1.0)
        ok = ok and adds_up
        print(f"stage self times + unattributed = {parts:.4f} ms; traced op = {total:.4f} ms"
              f" -> {'adds up' if adds_up else 'MISMATCH'}")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--workload", action="append", choices=run.WORKLOADS)
    args = parser.parse_args()
    results = [report(workload, args.seed, args.seconds) for workload in args.workload or run.WORKLOADS]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
