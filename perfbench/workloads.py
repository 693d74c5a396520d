"""Seeded simulator inputs for the benchmark workloads.

Each workload fixes a population factor model, an instrument count and a
pipeline configuration. The workload seed and an instrument's index seed
a numpy generator that picks that instrument's simulator seed and, where
the workload has missing data, the cells set to NA. The program only ever
sees the resulting CSV text, so the same seed always gives the same inputs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

import psychoval as pv

LIKERT_MIN, LIKERT_MAX = 1, 7


def simple_structure(
    per_factor: int, m: int, lo: float, hi: float, noise: int = 0
) -> np.ndarray:
    """Loadings for m factors of per_factor items each, spread lo..hi.

    ``noise`` zero-loading items are appended after the signal items.
    """
    L = np.zeros((per_factor * m + noise, m))
    spread = np.linspace(lo, hi, per_factor)
    for k in range(m):
        L[k * per_factor : (k + 1) * per_factor, k] = spread
    return L


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n: int
    loadings: np.ndarray = field(repr=False)
    instruments: int
    missing_frac: float = 0.0
    config: dict = field(default_factory=dict)

    @property
    def p(self) -> int:
        return self.loadings.shape[0]

    @property
    def m(self) -> int:
        return self.loadings.shape[1]

    @property
    def items(self) -> tuple[str, ...]:
        return tuple(f"item{j + 1}" for j in range(self.p))

    def factor_of(self) -> dict[str, int | None]:
        """Population factor of each item; None for a zero-loading item."""
        out: dict[str, int | None] = {}
        for item, row in zip(self.items, self.loadings):
            out[item] = int(np.argmax(np.abs(row))) if np.any(row) else None
        return out

    def pipeline_config(self) -> pv.PipelineConfig:
        return pv.PipelineConfig(**self.config)

    def cli_flags(self) -> list[str]:
        """`psychoval validate` flags that select this workload's config."""
        flags: list[str] = []
        for key, value in self.config.items():
            flags += [f"--{key}", str(value)]
        return flags

    def spec(self, sim_seed: int) -> pv.FactorModelSpec:
        return pv.FactorModelSpec(
            loadings=self.loadings,
            phi=np.eye(self.m),
            likert_min=LIKERT_MIN,
            likert_max=LIKERT_MAX,
            n=self.n,
            seed=sim_seed,
            items=self.items,
        )

    def dataset_name(self, index: int) -> str:
        return f"{self.name}-{index:03d}.csv"


# pairwise-prune draws many instruments because the work of one operation
# varies by a quarter between datasets (PAF iterations and prune steps);
# over 40 datasets, the median operation of a run hardly depends on the seed.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="demo-batch",
            why="many small 300 x 6 instruments: per-call overhead dominates, "
            "the small-p side of any kernel trade-off",
            n=300,
            loadings=simple_structure(3, 2, 0.8, 0.8),
            instruments=200,
        ),
        Workload(
            name="pairwise-prune",
            why="600 x 20 with 4 noise items and 10 % cells NA: the MSA prune loop, "
            "masked correlations, varimax; the large-p side of any kernel trade-off",
            n=600,
            loadings=simple_structure(4, 4, 0.60, 0.74, noise=4),
            instruments=40,
            missing_frac=0.10,
            config={"policy": "pairwise", "rotation": "varimax", "retention": "fixed:4"},
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    names: tuple[str, ...]
    texts: tuple[str, ...]
    draws: int  # normal deviates the simulator drew, n * (m + p) per instrument


def simulate_instrument(w: Workload, seed: int, index: int) -> tuple[str, float]:
    """CSV text of one instrument, and its generate + to_csv time.

    Each instrument has a generator of its own, seeded by (seed, index), so
    any one can be simulated again without the others.
    """
    rng = np.random.default_rng([seed, index])
    spec = w.spec(int(rng.integers(0, 2**63)))
    t0 = time.perf_counter()
    ds = pv.generate(spec)
    busy = time.perf_counter() - t0
    if w.missing_frac:
        values = ds.values.copy()
        values[rng.random(values.shape) < w.missing_frac] = np.nan
        ds = pv.SurveyDataset(ds.items, ds.respondents, values, ds.likert_min, ds.likert_max)
    t0 = time.perf_counter()
    text = pv.to_csv(ds)
    return text, busy + time.perf_counter() - t0


def generate_inputs(w: Workload, seed: int) -> Inputs:
    return Inputs(
        names=tuple(w.dataset_name(i) for i in range(w.instruments)),
        texts=tuple(simulate_instrument(w, seed, i)[0] for i in range(w.instruments)),
        draws=w.instruments * w.n * (w.m + w.p),
    )
