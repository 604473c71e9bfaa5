#!/usr/bin/env python3
"""crossphy benchmark entry point.

    python3 crossbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: the program is imported from
``src/`` next to this directory, never from an installed copy.  Each call
runs one workload in this fresh process, a closed loop with one caller and
BLAS pinned to one thread.  The last line of standard output is the result
object; see crossbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("plan-webee", "plan-trained", "link-sweep")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true",
                   help="store this run's output digest in crossbench/digests.json")
    p.add_argument("--setup-probe", action="store_true",
                   help="only import and warm up, then exit (timed by the parent run)")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not args.seconds > 0:
        p.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # BLAS reads these once, when numpy loads; set them before any import of it
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import crossphy
    except ImportError as exc:
        print(f"crossbench: cannot import crossphy from {src}: {exc}", file=sys.stderr)
        return 2
    if Path(crossphy.__file__).resolve().parent.parent != src:
        print(f"crossbench: crossphy resolved to {crossphy.__file__}, not {src}",
              file=sys.stderr)
        return 2

    import bench

    if args.setup_probe:
        bench.warm_up(bench.WORKLOADS[args.workload], args.seed)
        print(time.clock_gettime(time.CLOCK_MONOTONIC))  # set-up ends here
        return 0
    return bench.run(args, ROOT)


if __name__ == "__main__":
    sys.exit(main())
