"""FreqyWM benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload {generate,serve-mix,remote-sweep} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ``src/``.
The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics (``layers.PER_LAYER``)
with ``--trace 1``. The line before it carries the sample counts,
tails and host context of the run.
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import sys

import common

WORKLOADS = ("generate", "serve-mix", "remote-sweep")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", choices=("generate",), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")
    if not (common.SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {common.SRC}", file=sys.stderr)
        return 2
    # SIGTERM unwinds like an error, so every started process is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.chdir(common.ROOT)
    sys.path.insert(0, str(common.SRC))
    if args.setup_probe:
        import wl_generate

        print(wl_generate.setup_probe(args.seed))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "generate":
        import wl_generate as workload
    elif args.workload == "serve-mix":
        import wl_serve_mix as workload
    else:
        import wl_remote_sweep as workload
    try:
        workload.run(args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(common.TMP_PARENT / str(os.getpid()), ignore_errors=True)
        try:
            common.TMP_PARENT.rmdir()
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
