"""One-off calibration for the discretization-attenuation targets.

Likert discretization shrinks latent correlations, so round-trip tests
cannot compare recovered loadings against the generator's latent values
directly. This script estimates the attenuated targets empirically at
large n and checks the seeded fixtures the test suite freezes, at the
seeds tests/frozen.py pins. Run it from the repository root:

    python3 scripts/calibrate_attenuation.py

The printed constants are frozen in tests/frozen.py; re-run this script
whenever the generator, thresholds, or fixture seeds change. It exits 1
when a target differs from its frozen value or a fixture misses its
tolerance.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from psychoval import (  # noqa: E402
    FactorModelSpec,
    PipelineConfig,
    correlation_matrix,
    generate,
    population_correlation,
    run_validation,
)
from tests.frozen import (  # noqa: E402
    ATTENUATED_LOADING,
    ATTENUATED_PHI,
    NOISE_SEED,
    PRUNE_SEED,
    ROUND_TRIP_SEED,
    SIM_CORR_SEED,
)

ITEMS = tuple("ABCDEF")


def block_loadings(value: float = 0.8) -> np.ndarray:
    L = np.zeros((6, 2))
    L[:3, 0] = value
    L[3:, 1] = value
    return L


def calibrate_orthogonal(n: int, seed: int) -> tuple[float, float]:
    """Mean within-block observed r and the implied single-factor loading."""
    spec = FactorModelSpec(loadings=block_loadings(), n=n, seed=seed, items=ITEMS)
    ds = generate(spec)
    R = correlation_matrix(ds.values, list(ITEMS)).values
    within = [R[i, j] for b in (0, 3) for i in range(b, b + 3)
              for j in range(i + 1, b + 3)]
    mean_r = float(np.mean(within))
    return mean_r, float(np.sqrt(mean_r))


def calibrate_oblique(n: int, seed: int) -> float:
    """Recovered factor correlation for a generator phi of 0.5."""
    phi = np.array([[1.0, 0.5], [0.5, 1.0]])
    spec = FactorModelSpec(loadings=block_loadings(), phi=phi, n=n, seed=seed,
                           items=ITEMS)
    report = run_validation(generate(spec))
    return float(report.solution.phi[0, 1])


def check_sample_corr_bound(n: int, seed: int) -> float:
    """Max entrywise |sample corr - latent population corr| at the test seed."""
    spec = FactorModelSpec(loadings=block_loadings(), n=n, seed=seed, items=ITEMS)
    pop = population_correlation(spec).values
    R = correlation_matrix(generate(spec).values, list(ITEMS)).values
    return float(np.max(np.abs(R - pop)))


def check_round_trip(seed: int, target: float) -> float:
    """Max |own-block loading - target| for the PAF+varimax acceptance run."""
    spec = FactorModelSpec(loadings=block_loadings(), n=2000, seed=seed, items=ITEMS)
    cfg = PipelineConfig(extraction="paf", rotation="varimax")
    report = run_validation(generate(spec), cfg)
    L = report.solution.loadings
    scales = {s.name: set(s.items) for s in report.scales}
    assert scales["F1"] | scales["F2"] == set(ITEMS), scales
    own = [abs(L[j, 0 if ITEMS[j] in scales["F1"] else 1]) for j in range(6)]
    return float(np.max(np.abs(np.array(own) - target)))


def check_noise_fixture(n: int, seed: int) -> float:
    """Bartlett p-value for the pure-noise fixture (want comfortably > 0.05)."""
    from psychoval import bartlett_sphericity

    spec = FactorModelSpec(loadings=np.zeros((6, 1)), n=n, seed=seed, items=ITEMS)
    ds = generate(spec)
    R = correlation_matrix(ds.values, list(ITEMS))
    _, _, p = bartlett_sphericity(R, n)
    return p


def check_prune_fixture(n: int, seed: int):
    """MSA layout for the two-blocks-plus-noise-item pruning fixture."""
    from psychoval import complete_cases, kmo

    L = np.zeros((7, 2))
    L[:3, 0] = 0.8
    L[3:6, 1] = 0.8
    items = tuple("ABCDEFG")  # G is pure noise
    spec = FactorModelSpec(loadings=L, n=n, seed=seed, items=items)
    ds = generate(spec)
    view = complete_cases(ds, "listwise")
    R = correlation_matrix(view.data, list(items))
    _, msa = kmo(R, list(items))
    return msa


def main() -> int:
    t0 = time.time()
    mean_r, loading = calibrate_orthogonal(n=200_000, seed=12345)
    print(f"attenuated within-block r  : {mean_r:.4f}")
    print(f"attenuated loading target  : {loading:.4f}")
    phi = calibrate_oblique(n=200_000, seed=12345)
    print(f"attenuated phi target      : {phi:.4f}")

    round_trip = check_round_trip(ROUND_TRIP_SEED, round(loading, 4))
    print(f"c1 max |loading-target| @seed {ROUND_TRIP_SEED}: "
          f"{round_trip:.4f} (tolerance 0.10)")
    corr_bound = check_sample_corr_bound(5000, SIM_CORR_SEED)
    print(f"sim corr bound @n=5000 seed {SIM_CORR_SEED}: "
          f"{corr_bound:.4f} (tolerance 0.06)")
    p_noise = check_noise_fixture(500, NOISE_SEED)
    print(f"noise fixture bartlett p @seed {NOISE_SEED}: {p_noise:.4f} (want > 0.05)")
    msa = check_prune_fixture(400, PRUNE_SEED)
    ranked = sorted(msa, key=msa.get)
    print(f"prune fixture msa @seed {PRUNE_SEED}: min item {ranked[0]} "
          f"({msa[ranked[0]]:.4f}); all: "
          + " ".join(f"{k}={v:.3f}" for k, v in msa.items()))
    print(f"elapsed {time.time() - t0:.1f}s")

    failed = [name for name, ok in (
        ("loading target", round(loading, 4) == ATTENUATED_LOADING),
        ("phi target", round(phi, 4) == ATTENUATED_PHI),
        ("round trip", round_trip < 0.10),
        ("sim corr bound", corr_bound < 0.06),
        ("noise fixture", p_noise > 0.05),
        ("prune fixture", ranked[0] == "G" and msa["G"] < 0.5),
    ) if not ok]
    if failed:
        print("differs from tests/frozen.py: " + ", ".join(failed))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
