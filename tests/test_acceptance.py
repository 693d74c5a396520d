"""Top-level acceptance suite.

One test per criterion, each named test_cNN_<what it checks>; the
conftest terminal summary prints a PASS/FAIL line per criterion. Expected
numbers come from tests/oracles.py and the calibration constants frozen
in tests/frozen.py.
"""

from __future__ import annotations

import json
import math
import time

import jsonschema
import numpy as np
import pytest

from psychoval import (
    FactorModelSpec,
    PipelineConfig,
    ScaleDefinition,
    SurveyDataset,
    SymMatrix,
    alpha_from_covariance,
    bartlett_sphericity,
    chi_square_sf,
    complete_cases,
    correlation_matrix,
    cronbach_alpha,
    extract_paf,
    generate,
    kmo,
    loads_csv,
    msa_prune,
    render_report,
    rotate_oblimin,
    rotate_varimax,
    run_validation,
    sym_eigen,
    to_csv,
    varimax_criterion,
)
from psychoval import test_retest as retest
from psychoval.cli import main as cli_main
from tests import oracles
from tests.conftest import ITEMS6, two_block_loadings
from tests.frozen import (
    ATTENUATED_LOADING,
    ATTENUATED_PHI,
    PRUNE_SEED,
    ROUND_TRIP_SEED,
)
from tests.test_efa import align, cluster_loadings, population_matrix


def test_c01_round_trip_construct_recovery():
    """n=2000 two-factor simulation; PAF + varimax recovers the design."""
    spec = FactorModelSpec(loadings=two_block_loadings(0.8), n=2000,
                           seed=ROUND_TRIP_SEED, items=ITEMS6)
    started = time.perf_counter()
    ds = generate(spec)
    report = run_validation(
        ds, PipelineConfig(extraction="paf", rotation="varimax")
    )
    elapsed = time.perf_counter() - started

    assert report.solution.m == 2, "Kaiser must retain exactly two factors"
    blocks = {frozenset(s.items) for s in report.scales}
    assert blocks == {frozenset("ABC"), frozenset("DEF")}

    target = two_block_loadings(ATTENUATED_LOADING)
    deviation = np.max(np.abs(align(report.solution.loadings, target) - target))
    assert deviation <= 0.10, f"aligned loading deviation {deviation:.4f}"
    assert elapsed < 5.0, f"round trip took {elapsed:.2f}s"


def test_c02_oblique_recovery():
    """Correlated factors (phi 0.5): oblimin recovers the attenuated phi."""
    phi = np.array([[1.0, 0.5], [0.5, 1.0]])
    spec = FactorModelSpec(loadings=two_block_loadings(0.8), phi=phi,
                           n=2000, seed=ROUND_TRIP_SEED, items=ITEMS6)
    started = time.perf_counter()
    report = run_validation(
        generate(spec), PipelineConfig(extraction="paf", rotation="oblimin")
    )
    elapsed = time.perf_counter() - started

    recovered = abs(float(report.solution.phi[0, 1]))
    assert abs(recovered - ATTENUATED_PHI) <= 0.10, (
        f"phi {recovered:.4f} vs target {ATTENUATED_PHI}"
    )
    assert elapsed < 10.0, f"oblique run took {elapsed:.2f}s"


def test_c03_population_identifiability():
    """Noise-free R*: PAF + varimax recovers loadings to < 0.02."""
    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)
        m = int(rng.integers(2, 4))
        p = int(rng.integers(3 * m, 3 * m + 4))
        L = cluster_loadings(rng, p, m)
        assert np.all((L[L != 0.0] ** 2 >= 0.3 - 1e-12))
        assert np.all(((L ** 2).sum(axis=1) <= 0.81 + 1e-12))
        rotated = rotate_varimax(extract_paf(population_matrix(L), m))
        err = float(np.max(np.abs(align(rotated.loadings, L) - L)))
        assert err < 0.02, f"seed {seed}: max-abs recovery error {err:.4f}"


def test_c04_alpha_identities():
    """alpha = 1, alpha = 0, and the two-item Spearman-Brown identity."""
    assert alpha_from_covariance(np.ones((4, 4))).alpha_raw == pytest.approx(
        1.0, abs=1e-9
    )

    # sample path with four identical columns
    col = np.array([1.0, 3, 5, 7, 2, 6, 4, 5, 3, 6])
    ds = SurveyDataset(
        ("I1", "I2", "I3", "I4"),
        tuple(f"r{i}" for i in range(10)),
        np.column_stack([col] * 4),
        1, 7,
    )
    rep = cronbach_alpha(ds, ScaleDefinition("s", ds.items))
    assert rep.alpha_raw == pytest.approx(1.0, abs=1e-9)

    assert alpha_from_covariance(np.eye(5)).alpha_raw == pytest.approx(
        0.0, abs=1e-9
    )

    for r in (0.1, 0.5, 0.9):
        rep = alpha_from_covariance(np.array([[1.0, r], [r, 1.0]]))
        assert rep.alpha_standardized == pytest.approx(
            2 * r / (1 + r), abs=1e-10
        )


def test_c05_bartlett_sphericity():
    """Identity exactness, the p=2 hand value, and the chi-square oracle."""
    chi2, df, p = bartlett_sphericity(SymMatrix(np.eye(5)), 200)
    assert chi2 == 0.0 and p == 1.0

    R = SymMatrix(np.array([[1.0, 0.5], [0.5, 1.0]]))
    chi2, df, p = bartlett_sphericity(R, 101)
    assert chi2 == pytest.approx(28.3367, abs=0.01)
    assert df == 1

    pairs = [(2 * math.log(20), 2), (11.0705, 5), (3.84, 1),
             (28.3367, 1), (15.0, 15)]
    for x, dof in pairs:
        assert chi_square_sf(x, dof) == pytest.approx(
            oracles.chi2_sf_quadrature(x, dof), abs=1e-4
        ), (x, dof)


def test_c06_kmo_and_pruning():
    """Noise item has minimum MSA, is pruned first; KMO matches the oracle."""
    L = np.zeros((7, 2))
    L[:3, 0] = 0.8
    L[3:6, 1] = 0.8
    spec = FactorModelSpec(loadings=L, n=400, seed=PRUNE_SEED,
                           items=tuple("ABCDEFG"))
    view = complete_cases(generate(spec), "listwise")
    R = correlation_matrix(view.data, list(view.items))
    _, msa = kmo(R, list(view.items))
    assert min(msa, key=msa.get) == "G"

    trail = msa_prune(view, threshold=0.5)
    assert trail.steps[0].item == "G"
    R2 = correlation_matrix(
        view.data[:, [view.items.index(i) for i in trail.retained]],
        list(trail.retained),
    )
    _, msa_after = kmo(R2, list(trail.retained))
    assert all(v >= 0.5 for v in msa_after.values())

    for seed, p in ((21, 3), (22, 4), (23, 4)):
        rng = np.random.default_rng(seed)
        M = rng.uniform(-1.0, 1.0, size=(p, p + 2))
        cov = M @ M.T + 0.5 * np.eye(p)
        sd = np.sqrt(np.diag(cov))
        corr = cov / np.outer(sd, sd)
        overall, per_item = kmo(SymMatrix(corr), [f"I{j}" for j in range(p)])
        exp_overall, exp_msa = oracles.kmo_definitional(corr)
        assert overall == pytest.approx(exp_overall, abs=1e-9)
        assert list(per_item.values()) == pytest.approx(exp_msa, abs=1e-9)


def test_c07_eigen_kernel():
    """Jacobi against characteristic-polynomial roots on 100 seeded 3x3s."""
    for seed in range(100):
        rng = np.random.default_rng(seed)
        A = rng.uniform(-2.0, 2.0, size=(3, 3))
        A = (A + A.T) / 2.0
        dec = sym_eigen(SymMatrix(A))
        expected = oracles.eigenvalues_3x3_charpoly(A)
        assert np.allclose(dec.eigenvalues, expected, atol=1e-8), seed
        assert np.max(np.abs(oracles.eigen_reconstruction(dec) - A)) < 1e-10, seed
        assert sum(dec.eigenvalues) == pytest.approx(float(np.trace(A)),
                                                     abs=1e-9)


def test_c08_rotation_invariants(two_factor_dataset):
    """Varimax preserves h2 and its criterion; oblimin preserves the fit."""
    R = correlation_matrix(two_factor_dataset.values, list(ITEMS6))
    base = extract_paf(R, 2, items=ITEMS6)

    rotated = rotate_varimax(base)
    assert np.max(np.abs(rotated.communalities - base.communalities)) < 1e-10
    assert varimax_criterion(rotated.loadings) >= (
        varimax_criterion(base.loadings) - 1e-12
    )

    oblique = rotate_oblimin(base)
    assert np.max(np.abs(
        oracles.reproduced_matrix(oblique) - oracles.reproduced_matrix(base)
    )) < 1e-8


def test_c09_test_retest():
    """Duplicated data correlates at 1, reflected data at -1."""
    text = "id,A,B\nr1,1,2\nr2,3,4\nr3,5,6\nr4,7,3\nr5,2,5\n"
    ds = loads_csv(text, 1, 7)
    scale = ScaleDefinition("s", ("A", "B"))

    rep = retest(ds, ds, scale)
    assert rep.total_r == 1.0
    assert all(r == 1.0 for r in rep.item_r.values())

    reflected = SurveyDataset(ds.items, ds.respondents, 1 + 7 - ds.values,
                              1, 7)
    assert retest(ds, reflected, scale).total_r == -1.0


REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["dataset", "adequacy", "prune_trail", "solution", "scales",
                 "advice", "warnings", "config", "stages"],
    "properties": {
        "dataset": {
            "type": "object",
            "required": ["source", "n", "p", "likert_min", "likert_max",
                         "effective_n", "items", "items_retained"],
            "properties": {
                "n": {"type": "integer"},
                "p": {"type": "integer"},
                "effective_n": {"type": "integer"},
                "items": {"type": "array", "items": {"type": "string"}},
                "items_retained": {"type": "array",
                                   "items": {"type": "string"}},
            },
        },
        "adequacy": {
            "type": "object",
            "required": ["bartlett", "kmo_overall", "msa"],
            "properties": {
                "bartlett": {
                    "type": "object",
                    "required": ["chi2", "df", "p"],
                    "properties": {
                        "chi2": {"type": "number"},
                        "df": {"type": "integer"},
                        "p": {"type": "number"},
                    },
                },
                "kmo_overall": {"type": "number"},
                "msa": {"type": "object",
                        "additionalProperties": {"type": "number"}},
            },
        },
        "prune_trail": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["item", "msa", "kmo_after"],
            },
        },
        "solution": {
            "type": "object",
            "required": ["extraction", "rotation", "m", "eigenvalues",
                         "loadings", "structure", "phi", "communalities",
                         "variance_explained"],
            "properties": {
                "m": {"type": "integer"},
                "eigenvalues": {"type": "array", "items": {"type": "number"}},
                "loadings": {"type": "array",
                             "items": {"type": "array",
                                       "items": {"type": "number"}}},
                "structure": {"type": "array",
                              "items": {"type": "array",
                                        "items": {"type": "number"}}},
                "phi": {"type": "array",
                        "items": {"type": "array",
                                  "items": {"type": "number"}}},
                "communalities": {"type": "object",
                                  "additionalProperties": {"type": "number"}},
                "variance_explained": {"type": "array",
                                       "items": {"type": "number"}},
            },
        },
        "scales": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "items", "alpha_raw",
                             "alpha_standardized", "alpha_if_deleted"],
                "properties": {
                    "alpha_raw": {"type": ["number", "null"]},
                    "alpha_standardized": {"type": ["number", "null"]},
                    "alpha_if_deleted": {
                        "type": "object",
                        "additionalProperties": {"type": ["number", "null"]},
                    },
                },
            },
        },
        "warnings": {"type": "array", "items": {"type": "string"}},
        "config": {"type": "object"},
        "stages": {"type": "array", "items": {"type": "string"}},
    },
}


def test_c10_determinism_and_interface(capsys, data_dir, tmp_path):
    """Byte-identical reruns, documented JSON schema, 0/1/2 exit codes."""
    demo = str(data_dir / "demo_survey.csv")
    noise = str(data_dir / "noise_survey.csv")

    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert cli_main(["validate", "-i", demo, "-f", "json",
                     "-o", str(out1)]) == 0
    assert cli_main(["validate", "-i", demo, "-f", "json",
                     "-o", str(out2)]) == 0
    capsys.readouterr()
    payload1 = out1.read_bytes()
    assert payload1 == out2.read_bytes()

    jsonschema.validate(json.loads(payload1), REPORT_SCHEMA)

    assert cli_main(["bartlett", "-i", noise]) == 1
    err = capsys.readouterr().err
    assert "AssumptionsNotMet" in err

    assert cli_main(["validate", "--no-such-flag"]) == 2
    capsys.readouterr()

    # library-level determinism: identical inputs, identical bytes
    spec = FactorModelSpec(loadings=two_block_loadings(0.8), n=300, seed=1,
                           items=ITEMS6)
    ds = generate(spec)
    assert to_csv(ds) == to_csv(generate(spec))
    a = render_report(run_validation(ds), "json")
    b = render_report(run_validation(ds), "json")
    assert a == b
