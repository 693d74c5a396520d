"""Shared fixtures plus a per-criterion acceptance summary.

The terminal summary prints one PASS/FAIL line for every test in
tests/test_acceptance.py so the criterion-level outcome is visible at a
glance even inside a large run.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from psychoval import FactorModelSpec, generate
from psychoval.core_stats import _cold_eigen

DATA_DIR = Path(__file__).resolve().parent.parent / "data"

ITEMS6 = tuple("ABCDEF")


def two_block_loadings(value: float = 0.8, p: int = 6) -> np.ndarray:
    """p items split evenly over two factors, each loading only on its own."""
    half = p // 2
    L = np.zeros((p, 2))
    L[:half, 0] = value
    L[half:, 1] = value
    return L


@pytest.fixture
def numerics(monkeypatch):
    """Set fixed numeric settings for one test: numerics(module, NAME=value).

    The eigen memo is cleared before and after the test, so no
    decomposition made under one Jacobi setting answers a call made under
    another.
    """
    def patch(module, **settings):
        for name, value in settings.items():
            monkeypatch.setattr(module, name, value)  # raises on an unknown name

    _cold_eigen.cache_clear()
    yield patch
    _cold_eigen.cache_clear()


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture(scope="session")
def two_factor_dataset():
    """n=2000 draw from the orthogonal two-factor generator (seeded)."""
    from tests.frozen import ROUND_TRIP_SEED

    spec = FactorModelSpec(loadings=two_block_loadings(), n=2000,
                           seed=ROUND_TRIP_SEED, items=ITEMS6)
    return generate(spec)


@pytest.fixture(scope="session")
def noise_dataset():
    """n=500 draw with all loadings zero: six mutually independent items."""
    from tests.frozen import NOISE_SEED

    spec = FactorModelSpec(loadings=np.zeros((6, 1)), n=500,
                           seed=NOISE_SEED, items=ITEMS6)
    return generate(spec)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    results: dict[str, str] = {}
    for outcome in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py::" not in nodeid:
                continue
            name = nodeid.split("::")[-1]
            status = "PASS" if outcome == "passed" else "FAIL"
            # a failed setup and a skipped call can both report; FAIL wins
            if results.get(name) != "FAIL":
                results[name] = status
    if not results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name in sorted(results):
        parts = name.split("_")  # test_c01_round_trip -> 1, "round trip"
        num = int(parts[1].lstrip("c"))
        label = " ".join(parts[2:])
        terminalreporter.write_line(
            f"[acceptance] criterion {num:2d} ({label}): {results[name]}"
        )
