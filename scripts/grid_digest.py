"""Digest of the validation report on the north-star grid of simulated surveys.

Each cell is a seeded simulator draw: n respondents on p 5-point Likert
items and m factors, item j loading on factor j mod m with
0.6 + 0.2 * floor(j / m) / (p / m - 1), seed 11. The script prints one line
per cell:

    <n> x <p>, m = <m>: <sha256 of render_report(run_validation(ds), "json")>

With ``--time K`` each line also gives the median wall-clock seconds of K
in-process ``run_validation`` runs, with the cold-eigen memo cleared
before each. A change that keeps every report byte is checked with the
diff of two runs:

    python3 scripts/grid_digest.py > after.txt

Run it from any directory; the package is imported from the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from psychoval import FactorModelSpec, generate, render_report, run_validation  # noqa: E402
from psychoval.core_stats import _cold_eigen  # noqa: E402

GRID = ((300, 6, 2), (1000, 20, 4), (2000, 40, 5), (4000, 80, 8))
SEED = 11


def grid_dataset(n: int, p: int, m: int):
    """The grid cell's survey: item j loads on factor j mod m."""
    j = np.arange(p)
    L = np.zeros((p, m))
    L[j, j % m] = 0.6 + 0.2 * (j // m) / (p // m - 1)
    return generate(FactorModelSpec(loadings=L, n=n, seed=SEED, likert_min=1, likert_max=5))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--time", type=int, default=0, metavar="K",
                        help="also print the median seconds of K runs per cell")
    args = parser.parse_args(argv)
    for n, p, m in GRID:
        ds = grid_dataset(n, p, m)
        _cold_eigen.cache_clear()
        digest = hashlib.sha256(render_report(run_validation(ds), "json")).hexdigest()
        line = f"{n} x {p}, m = {m}: {digest}"
        if args.time > 0:
            seconds = []
            for _ in range(args.time):
                _cold_eigen.cache_clear()
                start = time.perf_counter()
                run_validation(ds)
                seconds.append(time.perf_counter() - start)
            line += f" {statistics.median(seconds):.3f} s"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
