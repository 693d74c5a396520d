"""Extraction, retention, rotation, and assignment.

Population fixtures build R* = L Phi L' + Psi directly so expected
loadings are known exactly; sampled fixtures compare against the
attenuation targets frozen from the calibration script.
"""

from __future__ import annotations

import itertools
import math
import re

import numpy as np
import pytest

from psychoval import (
    FactorModelSpec,
    SymMatrix,
    assign_items,
    correlation_matrix,
    extract_paf,
    extract_pca,
    fit_efa,
    generate,
    load_csv,
    retain_kaiser,
    rotate_oblimin,
    rotate_varimax,
    sort_and_sign,
    sym_eigen,
    varimax_criterion,
)
from psychoval.efa import OBLIMIN_MAX_ITER, fixed_count
from psychoval.errors import BadFactorCount, ConfigError, NoConvergence, TooFewItems
from tests import oracles
from tests.conftest import ITEMS6, two_block_loadings
from tests.frozen import ATTENUATED_PHI, ROUND_TRIP_SEED


def population_matrix(L: np.ndarray, phi: np.ndarray | None = None) -> SymMatrix:
    m = L.shape[1]
    phi = np.eye(m) if phi is None else phi
    R = L @ phi @ L.T
    np.fill_diagonal(R, 1.0)
    return SymMatrix(R)


def cluster_loadings(rng: np.random.Generator, p: int, m: int) -> np.ndarray:
    """Random simple-structure pattern: one loading per item, blocks >= 3.

    Three indicators per factor is the identifiability floor: with only
    two, any pair (a1, a2) with a1*a2 = r12 reproduces the block, so no
    method can pin the generating loadings.
    """
    assert p >= 3 * m
    sizes = [3] * m
    for _ in range(p - 3 * m):
        sizes[rng.integers(0, m)] += 1
    L = np.zeros((p, m))
    row = 0
    for k, size in enumerate(sizes):
        mags = rng.uniform(math.sqrt(0.3), 0.9, size=size)
        signs = rng.choice([-1.0, 1.0], size=size)
        L[row:row + size, k] = mags * signs
        row += size
    return L


def align(L: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Best permutation/sign match of L's columns to target's columns."""
    m = L.shape[1]
    best, best_err = None, math.inf
    for perm in itertools.permutations(range(m)):
        for signs in itertools.product((1.0, -1.0), repeat=m):
            cand = L[:, list(perm)] * np.array(signs)
            err = float(np.max(np.abs(cand - target)))
            if err < best_err:
                best, best_err = cand, err
    return best


def make_solution(items, loadings, phi=None, eigenvalues=None):
    """Hand-built orthogonal solution for rotation and assignment tests."""
    from psychoval import FactorSolution

    L = np.asarray(loadings, dtype=float)
    p, m = L.shape
    return FactorSolution(
        items=tuple(items),
        extraction="pca",
        rotation="none",
        loadings=L,
        eigenvalues=np.ones(p) if eigenvalues is None else eigenvalues,
        phi=np.eye(m) if phi is None else phi,
        communalities=(L ** 2).sum(axis=1),
    )


class TestPca:
    def test_identity_matrix_full_rank(self):
        sol = extract_pca(SymMatrix(np.eye(3)), 3, items=("A", "B", "C"))
        assert np.allclose(sol.eigenvalues, 1.0, atol=1e-12)
        assert np.allclose(sol.communalities, 1.0, atol=1e-10)
        assert np.allclose(sol.reproduced(), np.eye(3), atol=1e-10)

    def test_two_items_closed_form(self):
        # R = [[1,.6],[.6,1]], one component: loading sqrt(1.6/2) = sqrt(.8)
        sol = extract_pca(SymMatrix(np.array([[1.0, 0.6], [0.6, 1.0]])), 1)
        expected = math.sqrt(0.8)
        assert sol.loadings[:, 0] == pytest.approx([expected, expected], abs=1e-9)
        assert round(expected, 3) == 0.894

    def test_two_block_spectrum_against_charpoly_oracle(self):
        # two independent 3-item blocks with within-block r = 0.64
        block = np.full((3, 3), 0.64)
        np.fill_diagonal(block, 1.0)
        R = np.zeros((6, 6))
        R[:3, :3] = block
        R[3:, 3:] = block
        sol = extract_pca(SymMatrix(R), 2, items=ITEMS6)
        block_eigs = oracles.eigenvalues_3x3_charpoly(block)
        expected_spectrum = sorted(block_eigs * 2, reverse=True)
        assert np.allclose(sol.eigenvalues, expected_spectrum, atol=1e-9)
        # each block loads sqrt(lambda_1 / 3) on its own component
        expected = math.sqrt(block_eigs[0] / 3.0)
        L = np.abs(sol.loadings)
        assert L[:3, 0] == pytest.approx([expected] * 3, abs=1e-9)
        assert L[3:, 1] == pytest.approx([expected] * 3, abs=1e-9)
        assert np.max(np.abs(L[:3, 1])) < 1e-9
        assert round(expected, 4) == round(math.sqrt(0.76), 4)

    def test_variance_shares_sum_to_one_at_full_rank(self):
        rng = np.random.default_rng(8)
        data = rng.normal(size=(60, 4))
        R = correlation_matrix(data)
        sol = extract_pca(R, 4)
        assert sol.variance_explained.sum() == pytest.approx(1.0, abs=1e-9)
        assert all(a >= b - 1e-12 for a, b in
                   zip(sol.variance_explained, sol.variance_explained[1:]))

    def test_m_out_of_range(self):
        with pytest.raises(BadFactorCount):
            extract_pca(SymMatrix(np.eye(3)), 0)
        with pytest.raises(BadFactorCount):
            extract_pca(SymMatrix(np.eye(3)), 4)


class TestPaf:
    def test_single_factor_population_recovery(self):
        L = np.full((6, 1), 0.8)
        sol = extract_paf(population_matrix(L), 1, items=ITEMS6)
        assert np.allclose(sol.loadings[:, 0], 0.8, atol=1e-3)
        assert np.allclose(sol.communalities, 0.64, atol=1e-3)
        assert not sol.heywood
        assert sol.convergence["delta"] < 1e-4
        assert sol.convergence["iterations"] >= 1

    def test_identity_matrix_gives_null_factor(self):
        sol = extract_paf(SymMatrix(np.eye(4)), 1)
        assert np.max(np.abs(sol.loadings)) < 1e-6
        assert np.max(sol.communalities) < 1e-6

    def test_tighter_tolerance_sharpens_recovery(self):
        L = np.full((6, 1), 0.8)
        sol = extract_paf(population_matrix(L), 1, tol=1e-10)
        assert np.allclose(sol.loadings[:, 0], 0.8, atol=1e-6)

    def test_close_to_pca_on_block_matrix(self):
        # Derivable by hand on the two-block matrix with r = 0.64: PCA's
        # own-block loading is sqrt(0.76) = 0.8718, PAF's is 0.8, so the
        # methods differ by 0.0718 here ("very similar", not identical).
        block = np.full((3, 3), 0.64)
        np.fill_diagonal(block, 1.0)
        R = np.zeros((6, 6))
        R[:3, :3] = block
        R[3:, 3:] = block
        paf = extract_paf(SymMatrix(R), 2, items=ITEMS6)
        pca = extract_pca(SymMatrix(R), 2, items=ITEMS6)
        own_paf = np.max(np.abs(paf.loadings), axis=1)
        own_pca = np.max(np.abs(pca.loadings), axis=1)
        assert own_paf == pytest.approx([0.8] * 6, abs=1e-3)
        assert own_pca == pytest.approx([math.sqrt(0.76)] * 6, abs=1e-9)
        assert np.max(np.abs(own_paf - own_pca)) < 0.08
        # PCA keeps unique variance, so its communalities are larger
        assert np.all(pca.communalities >= paf.communalities - 1e-9)

    def test_heywood_clamp_and_flag(self):
        # implied h2 for the first item is (.9*.9)/.5 = 1.62: clamped to 1
        R = np.array([
            [1.0, 0.9, 0.9],
            [0.9, 1.0, 0.5],
            [0.9, 0.5, 1.0],
        ])
        sol = extract_paf(SymMatrix(R), 1)
        assert sol.heywood
        assert np.max(sol.communalities) <= 1.0 + 1e-12

    def test_communalities_match_loading_row_sums(self):
        rng = np.random.default_rng(15)
        data = rng.normal(size=(200, 5))
        data[:, 1] += data[:, 0]
        data[:, 3] += data[:, 2]
        sol = extract_paf(correlation_matrix(data), 2)
        assert np.allclose(
            sol.communalities, (sol.loadings ** 2).sum(axis=1), atol=1e-9
        )
        assert np.all(sol.communalities >= 0.0)
        assert np.all(sol.communalities <= 1.0 + 1e-12)


class TestRetention:
    def test_kaiser_examples(self):
        assert retain_kaiser([2.5, 1.2, 0.8, 0.5]) == 2
        assert retain_kaiser([3.0, 2.0, 1.5, 0.2]) == 3

    def test_strictly_greater_than_one(self):
        assert retain_kaiser([1.0, 1.0, 1.0]) == 1  # none qualify: floor of 1
        assert retain_kaiser([1.0 + 1e-9, 1.0, 0.9]) == 1

    def test_all_below_one_keeps_one(self):
        assert retain_kaiser([0.9, 0.6, 0.5]) == 1


class TestFitEfa:
    R = population_matrix(two_block_loadings(), np.array([[1.0, 0.3], [0.3, 1.0]]))

    @pytest.mark.parametrize(
        "rotation, gamma",
        [("oblimin", 0.0), ("oblimin", 0.5), ("varimax", 0.0), ("none", 0.0)],
    )
    def test_matches_manual_composition(self, rotation, gamma):
        R = self.R
        m = retain_kaiser(sym_eigen(R).eigenvalues)
        manual = extract_paf(R, m, items=ITEMS6)
        if rotation == "varimax":
            manual = rotate_varimax(manual)
        elif rotation == "oblimin":
            manual = rotate_oblimin(manual, gamma=gamma)
        manual = sort_and_sign(manual)
        sol = fit_efa(R, ITEMS6, rotation=rotation, gamma=gamma)
        assert sol.m == 2
        assert sol.rotation == manual.rotation
        assert np.array_equal(sol.loadings, manual.loadings)
        assert np.array_equal(sol.phi, manual.phi)
        assert np.array_equal(sol.eigenvalues, sym_eigen(R).eigenvalues)

    def test_fixed_count_keeps_full_spectrum(self):
        sol = fit_efa(self.R, ITEMS6, extraction="pca", retention="fixed:3",
                      rotation="none")
        assert sol.m == 3
        assert sol.eigenvalues.shape == (6,)

    @pytest.mark.parametrize(
        "kwargs",
        [{"extraction": "ml"}, {"rotation": "promax"}, {"retention": "parallel"}],
    )
    def test_unknown_method_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            fit_efa(self.R, ITEMS6, **kwargs)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("rotation", ["oblimin", "varimax"])
    def test_non_finite_gamma_rejected(self, gamma, rotation):
        with pytest.raises(ConfigError, match="^gamma must be finite$") as exc_info:
            fit_efa(self.R, ITEMS6, rotation=rotation, gamma=gamma)
        assert getattr(exc_info.value, "stage", None) is None

    @pytest.mark.parametrize("retention", ["bogus", "fixed:0", "fixed:x"])
    def test_bad_retention_rule_is_untagged(self, retention):
        with pytest.raises(ConfigError) as exc_info:
            fit_efa(self.R, ITEMS6, retention=retention)
        assert getattr(exc_info.value, "stage", None) is None

    def test_too_many_factors_stays_tagged(self):
        with pytest.raises(BadFactorCount) as exc_info:
            fit_efa(self.R, ITEMS6, retention="fixed:7")
        assert exc_info.value.stage == "retention"

    def test_one_item_is_too_few(self):
        with pytest.raises(TooFewItems, match="^efa needs >= 2 items, got 1$") as exc_info:
            fit_efa(SymMatrix(np.eye(1)), ("A",))
        assert exc_info.value.stage == "retention"

    def test_fixed_count_parser(self):
        assert fixed_count("kaiser") is None
        assert fixed_count("fixed:3") == 3
        with pytest.raises(ConfigError):
            fixed_count("fixed")  # rule name without a count


class TestVarimax:
    def test_perfect_cluster_is_a_fixed_point(self):
        L = two_block_loadings(0.8)
        sol = extract_pca(population_matrix(L), 2, items=ITEMS6)
        rotated = rotate_varimax(sol)
        assert np.allclose(
            np.abs(rotated.loadings), np.abs(sol.loadings), atol=1e-9
        )
        assert rotated.rotation == "varimax"

    def test_recovers_a_45_degree_mix(self):
        L = np.array([[0.8, 0.0], [0.8, 0.0], [0.0, 0.6], [0.0, 0.6]])
        c = math.cos(math.pi / 4)
        mixed = L @ np.array([[c, -c], [c, c]])
        rotated = rotate_varimax(make_solution(("A", "B", "C", "D"), mixed))
        assert np.max(np.abs(align(rotated.loadings, L) - L)) < 1e-8

    def test_communalities_preserved(self, two_factor_dataset):
        R = correlation_matrix(two_factor_dataset.values, list(ITEMS6))
        sol = extract_paf(R, 2, items=ITEMS6)
        rotated = rotate_varimax(sol)
        assert np.max(np.abs(rotated.communalities - sol.communalities)) < 1e-10
        assert np.max(np.abs(
            (rotated.loadings ** 2).sum(axis=1) - sol.communalities
        )) < 1e-10

    def test_rotation_matrix_orthonormal(self, two_factor_dataset):
        R = correlation_matrix(two_factor_dataset.values, list(ITEMS6))
        rotated = rotate_varimax(extract_paf(R, 2, items=ITEMS6))
        T = rotated.rotation_matrix
        assert np.max(np.abs(T.T @ T - np.eye(2))) < 1e-10

    def test_criterion_never_decreases(self, two_factor_dataset):
        R = correlation_matrix(two_factor_dataset.values, list(ITEMS6))
        sol = extract_paf(R, 2, items=ITEMS6)
        rotated = rotate_varimax(sol)
        assert varimax_criterion(rotated.loadings) >= (
            varimax_criterion(sol.loadings) - 1e-12
        )

    def test_single_factor_is_untouched(self):
        L = np.full((4, 1), 0.7)
        sol = extract_pca(population_matrix(L), 1)
        assert np.allclose(rotate_varimax(sol).loadings, sol.loadings)

    def test_phi_stays_identity(self, two_factor_dataset):
        R = correlation_matrix(two_factor_dataset.values, list(ITEMS6))
        rotated = rotate_varimax(extract_paf(R, 2, items=ITEMS6))
        assert np.array_equal(rotated.phi, np.eye(2))


class TestOblimin:
    def test_reproduction_invariant_under_rotation(self, two_factor_dataset):
        R = correlation_matrix(two_factor_dataset.values, list(ITEMS6))
        sol = extract_paf(R, 2, items=ITEMS6)
        rotated = rotate_oblimin(sol)
        assert np.max(np.abs(rotated.reproduced() - sol.reproduced())) < 1e-8

    def test_structure_is_pattern_times_phi(self, two_factor_dataset):
        R = correlation_matrix(two_factor_dataset.values, list(ITEMS6))
        rotated = rotate_oblimin(extract_paf(R, 2, items=ITEMS6))
        assert np.max(np.abs(
            rotated.structure - rotated.loadings @ rotated.phi
        )) < 1e-12

    def test_communalities_consistent_with_structure(self, two_factor_dataset):
        R = correlation_matrix(two_factor_dataset.values, list(ITEMS6))
        rotated = rotate_oblimin(extract_paf(R, 2, items=ITEMS6))
        assert np.max(np.abs(
            (rotated.structure * rotated.loadings).sum(axis=1)
            - rotated.communalities
        )) < 1e-9

    def test_orthogonal_generator_yields_small_phi(self, two_factor_dataset):
        R = correlation_matrix(two_factor_dataset.values, list(ITEMS6))
        rotated = rotate_oblimin(extract_paf(R, 2, items=ITEMS6))
        assert abs(rotated.phi[0, 1]) < 0.1

    def test_oblique_generator_phi_recovered(self):
        phi = np.array([[1.0, 0.5], [0.5, 1.0]])
        spec = FactorModelSpec(loadings=two_block_loadings(), phi=phi,
                               n=2000, seed=ROUND_TRIP_SEED, items=ITEMS6)
        ds = generate(spec)
        R = correlation_matrix(ds.values, list(ITEMS6))
        rotated = rotate_oblimin(extract_paf(R, 2, items=ITEMS6))
        assert abs(rotated.phi[0, 1] - ATTENUATED_PHI) < 0.1

    def test_phi_unit_diagonal_symmetric(self, two_factor_dataset):
        R = correlation_matrix(two_factor_dataset.values, list(ITEMS6))
        rotated = rotate_oblimin(extract_paf(R, 2, items=ITEMS6))
        assert np.allclose(np.diag(rotated.phi), 1.0, atol=1e-10)
        assert np.allclose(rotated.phi, rotated.phi.T, atol=1e-12)

    def test_population_cluster_recovery(self):
        L = two_block_loadings(0.8)
        sol = extract_paf(population_matrix(L), 2, items=ITEMS6)
        rotated = rotate_oblimin(sol)
        assert np.max(np.abs(align(rotated.loadings, L) - L)) < 0.02

    @pytest.mark.parametrize("gamma, stopped", [(1e308, "0"), (1e150, r"[1-9]\d*")])
    def test_non_finite_gradient_stops_at_once(self, data_dir, gamma, stopped):
        # a gamma this large overflows the criterion; no step size recovers
        ds = load_csv(data_dir / "demo_survey.csv", 1, 7)
        sol = extract_paf(correlation_matrix(ds.values, list(ds.items)), 2, items=ds.items)
        with pytest.raises(NoConvergence) as exc:
            rotate_oblimin(sol, gamma=gamma)
        assert not math.isfinite(exc.value.residual)
        iterations = re.fullmatch(
            rf"oblimin: gradient norm (inf|nan) after ({stopped}) iterations", str(exc.value)
        ).group(2)
        assert int(iterations) < OBLIMIN_MAX_ITER

    def test_rotation_label_carries_gamma(self, two_factor_dataset):
        R = correlation_matrix(two_factor_dataset.values, list(ITEMS6))
        sol = extract_paf(R, 2, items=ITEMS6)
        assert rotate_oblimin(sol, gamma=0.0).rotation == "oblimin(0)"
        assert "0.5" in rotate_oblimin(sol, gamma=0.5).rotation


class TestPopulationRoundTrip:
    @pytest.mark.parametrize("seed", range(10))
    def test_varimax_recovers_cluster_structure(self, seed):
        rng = np.random.default_rng(1000 + seed)
        m = int(rng.integers(2, 4))
        p = int(rng.integers(3 * m, 3 * m + 4))
        L = cluster_loadings(rng, p, m)
        sol = extract_paf(population_matrix(L), m)
        rotated = rotate_varimax(sol)
        assert np.max(np.abs(align(rotated.loadings, L) - L)) < 0.02, seed

    @pytest.mark.parametrize("seed", (0, 5))
    def test_oblimin_also_recovers(self, seed):
        rng = np.random.default_rng(2000 + seed)
        L = cluster_loadings(rng, 7, 2)
        sol = extract_paf(population_matrix(L), 2)
        rotated = rotate_oblimin(sol)
        assert np.max(np.abs(align(rotated.loadings, L) - L)) < 0.02


class TestSortAndSign:
    def test_idempotent(self, two_factor_dataset):
        R = correlation_matrix(two_factor_dataset.values, list(ITEMS6))
        rotated = rotate_varimax(extract_paf(R, 2, items=ITEMS6))
        again = sort_and_sign(rotated)
        assert np.array_equal(again.loadings, rotated.loadings)
        assert np.array_equal(again.phi, rotated.phi)

    def test_columns_ordered_by_sum_of_squares(self, two_factor_dataset):
        R = correlation_matrix(two_factor_dataset.values, list(ITEMS6))
        rotated = rotate_varimax(extract_paf(R, 2, items=ITEMS6))
        ssq = (rotated.loadings ** 2).sum(axis=0)
        assert ssq[0] >= ssq[1]

    def test_largest_loading_positive_per_column(self, two_factor_dataset):
        R = correlation_matrix(two_factor_dataset.values, list(ITEMS6))
        rotated = rotate_oblimin(extract_paf(R, 2, items=ITEMS6))
        for k in range(rotated.m):
            col = rotated.loadings[:, k]
            assert col[np.argmax(np.abs(col))] > 0

    def test_swap_and_negate_restores_canonical_form(self, two_factor_dataset):
        R = correlation_matrix(two_factor_dataset.values, list(ITEMS6))
        rotated = rotate_oblimin(extract_paf(R, 2, items=ITEMS6))
        scrambled_L = -rotated.loadings[:, ::-1]
        scrambled_phi = rotated.phi[::-1, ::-1]
        from psychoval import FactorSolution

        scrambled = FactorSolution(
            items=rotated.items,
            extraction=rotated.extraction,
            rotation=rotated.rotation,
            loadings=scrambled_L,
            eigenvalues=rotated.eigenvalues,
            phi=scrambled_phi,
            communalities=rotated.communalities,
        )
        back = sort_and_sign(scrambled)
        assert np.allclose(back.loadings, rotated.loadings, atol=1e-12)
        assert np.allclose(back.phi, rotated.phi, atol=1e-12)


class TestAssignment:
    def test_clear_structure(self):
        sol = make_solution(("i1", "i2"), np.array([[0.8, 0.1], [0.1, 0.8]]))
        a = assign_items(sol)
        assert a["i1"].factor == 0 and a["i1"].status == "assigned"
        assert a["i2"].factor == 1 and a["i2"].status == "assigned"

    def test_cross_loaded(self):
        a = assign_items(make_solution(("i1",), np.array([[0.5, 0.5]])))
        assert a["i1"].status == "cross_loaded"
        assert a["i1"].factor is not None

    def test_unassigned(self):
        a = assign_items(make_solution(("i1",), np.array([[0.3, 0.2]])))
        assert a["i1"].status == "unassigned"
        assert a["i1"].factor is None

    def test_cutoff_is_inclusive(self):
        a = assign_items(make_solution(("i1",), np.array([[0.4, 0.0]])))
        assert a["i1"].status == "assigned"

    def test_negative_loading_assigns_by_magnitude(self):
        a = assign_items(make_solution(("i1",), np.array([[-0.7, 0.1]])))
        assert a["i1"].factor == 0
        assert a["i1"].loading == pytest.approx(-0.7)
