"""Start ``freqywm`` the way the benchmark's spawned processes run it.

``python3 perfbench/boot.py <freqywm arguments>``. With ``PERFBENCH_SPANS``
set to a file path, the process times ``import repro.cli``, installs the
span wrappers of :mod:`tracing` and writes its spans to that file when
``repro.cli.main`` returns (SIGINT is the graceful stop).
"""

import os
import sys
import time


def main() -> int:
    spans_path = os.environ.get("PERFBENCH_SPANS")
    start = time.perf_counter()
    import repro.cli

    end = time.perf_counter()
    if not spans_path:
        return repro.cli.main(sys.argv[1:])
    import tracing

    tracing.RECORDER.add("cli.import", start, end)
    tracing.install()
    try:
        return repro.cli.main(sys.argv[1:])
    finally:
        tracing.RECORDER.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
