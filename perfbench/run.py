"""Benchmark of `psychoval validate`, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One operation takes one survey from CSV text to JSON report bytes
(loads_csv, run_validation, render_report). A closed loop with one client
runs operations for --seconds seconds in this process, then every output
is checked. --trace 0 prints the end-to-end metrics; --trace 1 runs
traced and untraced operations in alternation and prints per-layer
metrics. The last stdout line is the result object; the line before it
records the environment, the report digest and the check tallies.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_tmp"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Benchmark of psychoval validate.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "psychoval" / "__init__.py").is_file():
        print(f"perfbench: no psychoval sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench

    if args.workload not in bench.workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(bench.workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    tmp = SCRATCH / f"{args.workload}-{args.seed}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        bench.run(args.workload, args.seed, args.seconds, bool(args.trace), SRC, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            SCRATCH.rmdir()  # only when no other run is using it
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
