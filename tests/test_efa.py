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
from hypothesis import given, settings
from hypothesis import strategies as st

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
from psychoval import core_stats, efa
from psychoval.efa import OBLIMIN_MAX_ITER, fixed_count
from psychoval.errors import BadFactorCount, ConfigError, DomainError, NoConvergence, TooFewItems
from tests import oracles
from tests.conftest import DATA_DIR, ITEMS6, two_block_loadings
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
    )


class TestSolutionShape:
    """Solution fields and loadings of the wrong shape are refused with DomainError."""

    def test_item_count_disagrees(self):
        with pytest.raises(DomainError, match="^solution fields disagree on the item count$"):
            make_solution("ABC", np.ones((3, 1)), eigenvalues=np.ones(2))

    def test_phi_shape_disagrees(self):
        with pytest.raises(DomainError, match="^phi shape does not match the factor count$"):
            make_solution("ABC", np.ones((3, 2)), phi=np.eye(3))

    def test_no_items(self):
        with pytest.raises(DomainError, match="^a factor solution needs at least one item$"):
            make_solution("", np.zeros((0, 2)))

    def test_no_factors(self):
        # with none, assign_items would take the argmax of an empty row and
        # sample_adequacy_advice would divide by zero factors
        with pytest.raises(DomainError, match="^a factor solution needs at least one factor$"):
            make_solution("ABC", np.zeros((3, 0)))

    @pytest.mark.parametrize("loadings", [[0.5, 0.4], 0.5, np.ones((2, 2, 1))])
    def test_loadings_not_2d(self, loadings):
        from psychoval import FactorSolution

        with pytest.raises(DomainError, match="^expected a 2-d loadings matrix, got shape "):
            FactorSolution(items=("A", "B"), extraction="pca", rotation="none",
                           loadings=loadings, eigenvalues=np.ones(2), phi=np.eye(1))

    @pytest.mark.parametrize("loadings", [[0.5, 0.4], 0.5, np.ones((2, 2, 1))])
    def test_varimax_criterion_refuses_loadings_not_2d(self, loadings):
        with pytest.raises(DomainError, match="^expected a 2-d loadings matrix, got shape "):
            varimax_criterion(loadings)

    def test_varimax_criterion_refuses_loadings_without_rows(self):
        with pytest.raises(DomainError, match="^loadings matrix has no rows$"):
            varimax_criterion(np.zeros((0, 2)))


class TestNonFinite:
    """A NaN or infinite entry is refused with DomainError, never carried along."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["loadings", "eigenvalues", "phi"])
    def test_solution_field(self, name, bad):
        # a NaN loading once made a solution whose item assign_items called assigned
        fields = {"loadings": [[bad], [0.5], [0.6]], "eigenvalues": [bad, 1.0, 1.0],
                  "phi": [[bad]]}
        kwargs = {name: fields[name]}
        with pytest.raises(DomainError, match=f"^{name} has a non-finite entry$"):
            make_solution("ABC", kwargs.pop("loadings", [[0.4], [0.5], [0.6]]), **kwargs)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_kaiser_eigenvalue(self, bad):
        with pytest.raises(DomainError, match="^eigenvalues has a non-finite entry$"):
            retain_kaiser([2.0, bad, 0.5])

    @pytest.mark.parametrize("normalize", [True, False])
    def test_varimax_criterion_loading(self, normalize):
        with pytest.raises(DomainError, match="^loadings has a non-finite entry$"):
            varimax_criterion([[math.nan], [0.5], [0.6]], normalize=normalize)


class TestCommunalities:
    """communalities is derived: the row sums of pattern * structure."""

    @pytest.mark.parametrize("rotation", efa.ROTATIONS)
    @pytest.mark.parametrize("extraction", efa.EXTRACTIONS)
    def test_row_sums_of_pattern_times_structure(self, extraction, rotation):
        ds = load_csv(DATA_DIR / "wide_survey.csv", 1, 7)
        sol = fit_efa(correlation_matrix(ds.values), ds.items, extraction, "fixed:4", rotation)
        assert sol.m == 4
        assert np.array_equal(sol.communalities, (sol.structure * sol.loadings).sum(axis=1))
        implied = np.diag(sol.loadings @ sol.phi @ sol.loadings.T)
        assert np.max(np.abs(sol.communalities - implied)) <= 1e-12

    def test_not_a_constructor_argument(self):
        from psychoval import FactorSolution

        with pytest.raises(TypeError, match="communalities"):
            FactorSolution(items=("A",), extraction="pca", rotation="none",
                           loadings=[[0.5]], eigenvalues=[1.0], phi=[[1.0]],
                           communalities=[0.9])


class TestPca:
    def test_identity_matrix_full_rank(self):
        sol = extract_pca(SymMatrix(np.eye(3)), 3, items=("A", "B", "C"))
        assert np.allclose(sol.eigenvalues, 1.0, atol=1e-12)
        assert np.allclose(sol.communalities, 1.0, atol=1e-10)
        assert np.allclose(oracles.reproduced_matrix(sol), np.eye(3), atol=1e-10)

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

    @pytest.mark.parametrize("m", [1.5, "1", None])
    @pytest.mark.parametrize("extract", [extract_pca, extract_paf])
    def test_non_integer_m_rejected(self, extract, m):
        with pytest.raises(ConfigError, match="^factor count must be an integer, got "):
            extract(SymMatrix(np.eye(3)), m)

    def test_numpy_integer_m_accepted(self):
        assert extract_pca(SymMatrix(np.eye(3)), np.int64(2)).m == 2


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

    def test_tighter_tolerance_sharpens_recovery(self, numerics):
        L = np.full((6, 1), 0.8)
        numerics(efa, PAF_TOL=1e-10)
        sol = extract_paf(population_matrix(L), 1)
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

    def test_identity_of_twenty_items_gives_null_factor(self):
        # the reduced matrix is zero, so the first Gram-Schmidt column has
        # norm 0: the run starts over on the full path
        sol = extract_paf(SymMatrix(np.eye(20)), 1)
        assert np.max(np.abs(sol.loadings)) < 1e-6
        assert np.max(sol.communalities) < 1e-6

    def test_zero_loading_items_fall_back_to_full_path(self, numerics, eigen_sizes):
        # four factors of four items plus four independent items: reduced @ Q
        # is exactly zero on R's eigenvectors of the independent items, so
        # the subspace path gives up before its first eigen step
        L = np.zeros((20, 4))
        for k in range(4):
            L[4 * k:4 * k + 4, k] = np.linspace(0.60, 0.74, 4)
        numerics(efa, PAF_TOL=1e-10)
        R = population_matrix(L)
        sol = extract_paf(R, 4)
        assert eigen_sizes[2:] == [20] * sol.convergence["iterations"]
        plain = oracles.extract_paf_full(R, 4, 1e-12, efa.PAF_MAX_ITER, mix=False)
        # Newton's passes converge quadratically, so the stop at PAF_TOL =
        # 1e-10 lies 4.7e-11 from the plain iteration's limit in a
        # communality and 2.3e-11 in the projector; the bound is about twice
        # that. The four blocks tie the top four eigenvalues, so the
        # loadings are compared by the subspace they span.
        assert np.max(np.abs(sol.communalities - plain.communalities)) < 1e-10
        assert np.max(np.abs(projector(sol.loadings) - projector(plain.loadings))) < 1e-10
        assert not sol.heywood and not plain.heywood
        assert np.allclose(np.abs(sol.loadings).max(axis=0), 0.74, atol=1e-6)


def sample_matrix(n: int, p: int, m: int, seed: int) -> SymMatrix:
    """Correlation matrix of a seeded 7-point draw from a random simple structure."""
    L = cluster_loadings(np.random.default_rng(seed), p, m)
    spec = FactorModelSpec(loadings=L, n=n, seed=seed, likert_min=1, likert_max=7)
    return correlation_matrix(generate(spec).values)


def projector(L: np.ndarray) -> np.ndarray:
    q, _ = np.linalg.qr(L)
    return q @ q.T


def cyclic_matrix(n: int, p: int, m: int, seed: int) -> SymMatrix:
    """Correlation matrix of a seeded 5-point draw; item j loads on factor j mod m."""
    L = np.zeros((p, m))
    L[np.arange(p), np.arange(p) % m] = np.linspace(0.6, 0.8, m)[np.arange(p) % m]
    spec = FactorModelSpec(loadings=L, n=n, seed=seed, likert_min=1, likert_max=5)
    return correlation_matrix(generate(spec).values)


def certificate(R: SymMatrix, h2: np.ndarray, m: int) -> tuple[float, float]:
    """Largest plain and projected Newton step at h2, from numpy's eigh and solve.

    Items at 1 whose f exceeds 1 are held; NotPositiveDefinite unless the
    I - J of the other items passes ``cholesky_lower``. A clamped row's
    communality is 1 up to the rounding of its rescale, so it is set to 1.
    """
    h2 = np.where(h2 > 1.0 - 1e-12, 1.0, h2)
    reduced = R.values.copy()
    np.fill_diagonal(reduced, h2)
    lam, vectors = np.linalg.eigh(reduced)
    lam, vectors = lam[::-1], vectors[:, ::-1]
    f = ((vectors[:, :m] * np.sqrt(np.clip(lam[:m], 0.0, None))) ** 2).sum(axis=1)
    free = ~((h2 == 1.0) & (f > 1.0))
    hessian = np.eye(R.dim) - efa._paf_jacobian(lam, vectors, m)
    core_stats.cholesky_lower(hessian[np.ix_(free, free)])
    newton = h2.copy()
    newton[free] += np.linalg.solve(hessian[np.ix_(free, free)], (f - h2)[free])
    plain_step = np.max(np.abs(np.minimum(f, 1.0) - h2))
    return plain_step, np.max(np.abs(np.clip(newton, 0.0, 1.0) - h2))


@pytest.fixture
def eigen_sizes(monkeypatch):
    """The dimension of every sym_eigen call made through efa and core_stats."""
    sizes = []

    def counted(A, basis=None):
        sizes.append(A.dim)
        return sym_eigen(A, basis=basis)

    monkeypatch.setattr(efa, "sym_eigen", counted)
    monkeypatch.setattr(core_stats, "sym_eigen", counted)
    return sizes


class TestPafSubspace:
    """PAF on b = m + 4 Ritz vectors against the full p x p oracle."""

    @pytest.mark.parametrize("n, p, m, seed", [(600, 20, 4, 5), (1000, 20, 4, 20), (2000, 40, 5, 40)])
    def test_tight_tolerance_matches_full_path(self, numerics, eigen_sizes, n, p, m, seed):
        # the pass budget is set for the default tolerance; lift it here
        numerics(efa, PAF_TOL=1e-10, PAF_RITZ_MAX_ITER=efa.PAF_MAX_ITER)
        R = sample_matrix(n, p, m, seed)
        sol = extract_paf(R, m)
        assert eigen_sizes[2:] == [m + efa.PAF_RITZ_EXTRA] * sol.convergence["iterations"]
        full = oracles.extract_paf_full(R, m, 1e-10, efa.PAF_MAX_ITER)
        assert np.max(np.abs(sol.loadings - full.loadings)) < 1e-8
        assert np.max(np.abs(sol.communalities - full.communalities)) < 1e-8

    @pytest.mark.parametrize("n, p, m", [(1000, 20, 4), (2000, 40, 5)])
    def test_default_tolerance_stop_passes_the_full_test(self, eigen_sizes, n, p, m):
        # Each path stops on a step below PAF_TOL, so their answers need not
        # be within PAF_TOL of each other. What the Ritz check guarantees is
        # that the subspace answer is a stop for the full path too: one more
        # full pass from it moves no communality by PAF_TOL.
        R = sample_matrix(n, p, m, seed=p)
        sol = extract_paf(R, m)
        assert eigen_sizes[2:] == [m + efa.PAF_RITZ_EXTRA] * sol.convergence["iterations"]
        step = oracles.paf_step(R, sol.communalities, m) - sol.communalities
        assert np.max(np.abs(step)) < efa.PAF_TOL
        full = oracles.extract_paf_full(R, m, efa.PAF_TOL, efa.PAF_MAX_ITER)
        assert np.max(np.abs(projector(sol.loadings) - projector(full.loadings))) < 1e-3
        assert np.array_equal(sol.eigenvalues, full.eigenvalues)

    @pytest.mark.parametrize(
        "R, h2_bound, projector_bound",
        [(cyclic_matrix(600, 20, 4, seed=4), 3e-4, 5e-4),
         (cyclic_matrix(600, 20, 4, seed=18), None, None),
         (sample_matrix(600, 20, 4, seed=4), 1e-5, 5e-5)],
        ids=["cyclic-4", "cyclic-18", "cluster-4"],
    )
    def test_over_extraction_falls_back_to_the_full_path(
        self, eigen_sizes, R, h2_bound, projector_bound
    ):
        # six factors where four exist: the subspace path gives up on these,
        # by its pass budget or its Ritz check, and the run starts over on
        # the full path (without that, cyclic-4 ran out of passes, cyclic-18
        # ended 0.44 from the full path in a communality, cluster-4 7.6e-4)
        sol = extract_paf(R, 6)
        passes = eigen_sizes[2:]
        ritz = passes.count(10)
        assert ritz > 0
        assert passes == [10] * ritz + [20] * (sol.convergence["iterations"] - ritz)
        # the answer is a certified stop: the plain step and Newton's step
        # are below PAF_TOL, and the reduced I - J is positive definite
        assert max(certificate(R, sol.communalities, 6)) < efa.PAF_TOL
        if h2_bound is None:
            # cyclic-18 ends at another strict local minimum of the ULS
            # discrepancy, 0.46 from the plain limit in a communality (its
            # off-diagonal ULS 3.685e-2, against 3.522e-2 at the limit)
            return
        plain = oracles.extract_paf_full(R, 6, 1e-12, 10 * efa.PAF_MAX_ITER, mix=False)
        # the full path ends 1.0e-5 (cyclic-4) and 2.0e-6 (cluster-4) from
        # the plain limit in a communality, 1.6e-5 and 9.4e-6 in the
        # projector; the bounds are kept from the earlier loop, which
        # stopped farther away
        assert np.max(np.abs(sol.communalities - plain.communalities)) < h2_bound
        assert np.max(np.abs(projector(sol.loadings) - projector(plain.loadings))) < projector_bound
        assert sol.heywood == plain.heywood

    def test_below_guard_is_the_full_path(self, eigen_sizes):
        m = 4
        p = 2 * (m + efa.PAF_RITZ_EXTRA) - 1
        R = sample_matrix(800, p, m, seed=3)
        sol = extract_paf(R, m)
        assert eigen_sizes[2:] == [p] * sol.convergence["iterations"]
        plain = oracles.extract_paf_full(R, m, 1e-12, efa.PAF_MAX_ITER, mix=False)
        # three Newton passes (the Anderson passes took 12) stop on a step
        # below PAF_TOL, 2.2e-4 from the limit in a communality and 1.6e-4
        # in the projector (the Anderson passes: 1.8e-4 and 1.4e-4); each
        # bound is about twice that
        assert sol.convergence["iterations"] <= 4
        assert np.max(np.abs(sol.communalities - plain.communalities)) < 5e-4
        assert np.max(np.abs(projector(sol.loadings) - projector(plain.loadings))) < 4e-4
        assert not sol.heywood and not plain.heywood

    def test_budget_exhausted_raises_with_residual(self, numerics, eigen_sizes):
        # two subspace passes, then two full passes from the start
        numerics(efa, PAF_MAX_ITER=2)
        with pytest.raises(NoConvergence, match=r"after 2 iterations$") as exc_info:
            extract_paf(sample_matrix(600, 20, 4, seed=5), 4)
        assert exc_info.value.residual >= efa.PAF_TOL
        assert eigen_sizes[2:] == [8, 8, 20, 20]

    @pytest.mark.parametrize(
        "R, m, heywood",
        [(cyclic_matrix(300, 20, 3, seed=2), 4, False), (sample_matrix(100, 20, 3, seed=2), 4, True)],
        ids=["earlier-clamp", "returned-clamp"],
    )
    def test_heywood_flags_the_returned_pass(self, monkeypatch, eigen_sizes, R, m, heywood):
        # heywood says whether the returned pass clamped a row, as on the
        # descent. The first run clamps at its 33rd subspace pass only and
        # returns the 34th, which was once flagged for the earlier clamp.
        clamps = []

        def recorded(lam, vectors, m):
            loadings, f, over = paf_loadings(lam, vectors, m)
            clamps.append(bool(over.any()))
            return loadings, f, over

        paf_loadings = efa._paf_loadings
        monkeypatch.setattr(efa, "_paf_loadings", recorded)
        sol = extract_paf(R, m)
        assert eigen_sizes[2:] == [m + efa.PAF_RITZ_EXTRA] * sol.convergence["iterations"]
        assert any(clamps) and clamps[-1] is heywood
        assert sol.heywood is heywood
        assert heywood == bool(np.any(sol.communalities > 1.0 - 1e-12))

    @pytest.mark.parametrize(
        "R, m, ritz",
        [
            (sample_matrix(600, 20, 4, seed=5), 4, True),
            (sample_matrix(800, 15, 4, seed=3), 4, False),
            (SymMatrix(np.eye(20)), 1, False),
        ],
        ids=["subspace", "below-guard", "fallback"],
    )
    def test_sym_eigen_calls(self, eigen_sizes, R, m, ritz):
        # perfbench's identity: two calls on R (spectrum, inverse), then one per pass
        sol = extract_paf(R, m)
        assert len(eigen_sizes) == 2 + sol.convergence["iterations"]
        assert eigen_sizes[:2] == [R.dim, R.dim]
        pass_size = m + efa.PAF_RITZ_EXTRA if ritz else R.dim
        assert eigen_sizes[2:] == [pass_size] * sol.convergence["iterations"]


def demo_matrix() -> SymMatrix:
    ds = load_csv(DATA_DIR / "demo_survey.csv", 1, 7)
    return correlation_matrix(ds.values)


class TestPafMixing:
    """Anderson(1) mixing of the PAF passes against the plain iteration."""

    @pytest.mark.parametrize(
        "R, m",
        [(sample_matrix(600, 20, 4, 5), 4), (sample_matrix(1000, 20, 4, 20), 4),
         (sample_matrix(2000, 40, 5, 40), 5), (sample_matrix(800, 15, 4, 3), 4),
         (demo_matrix(), 2), (cyclic_matrix(600, 8, 1, 1001), 2),
         (cyclic_matrix(600, 12, 3, 1000), 3)],
        ids=["subspace-20", "subspace-20b", "subspace-40", "below-guard", "demo",
             "cyclic-8", "cyclic-12"],
    )
    def test_tight_tolerance_matches_plain_iteration(self, numerics, R, m):
        # mixing changes the path to the fixed point, not the fixed point;
        # on the two cyclic models the descent's Armijo test needs its
        # allowance for psi's rounding, without which their steps below
        # rounding are halved until the pass budget runs out
        numerics(efa, PAF_TOL=1e-10, PAF_RITZ_MAX_ITER=efa.PAF_MAX_ITER)
        sol = extract_paf(R, m)
        plain = oracles.extract_paf_full(R, m, 1e-10, efa.PAF_MAX_ITER, mix=False)
        assert np.max(np.abs(sol.loadings - plain.loadings)) < 1e-8
        assert np.max(np.abs(sol.communalities - plain.communalities)) < 1e-8

    @pytest.mark.parametrize("items, m", [(4, 3), (6, 3)])
    def test_below_ledermann_bound_is_the_plain_iteration(self, items, m):
        # (p - m)^2 <= p + m: no positive degrees of freedom, so the fixed
        # point need not be unique, and the passes are not mixed
        R = SymMatrix(demo_matrix().values[:items, :items])
        sol = extract_paf(R, m)
        plain = oracles.extract_paf_full(R, m, efa.PAF_TOL, efa.PAF_MAX_ITER, mix=False)
        assert np.array_equal(sol.loadings, plain.loadings)
        assert np.array_equal(sol.communalities, plain.communalities)
        assert sol.convergence == plain.convergence

    @pytest.mark.parametrize(
        "R, m, most",
        [(demo_matrix(), 2, 4), (sample_matrix(600, 20, 4, 5), 4, 11)],
        ids=["demo", "subspace-20"],
    )
    def test_passes_at_default_tolerance(self, R, m, most):
        # the plain iteration takes 15 passes on the demo matrix (full path,
        # where Newton's take 3 and the Anderson ones took 7) and 18 on the
        # 20-item one (subspace path)
        assert extract_paf(R, m).convergence["iterations"] <= most

    def test_failed_ritz_check_stays_on_the_subspace_path(self, eigen_sizes):
        # this run's first small step fails the Ritz check; the passes go on
        # until the block catches up, and the stop they reach stands
        R = sample_matrix(600, 20, 4, seed=1)
        sol = extract_paf(R, 4)
        assert eigen_sizes[2:] == [4 + efa.PAF_RITZ_EXTRA] * sol.convergence["iterations"]
        step_back = oracles.paf_step(R, sol.communalities, 4) - sol.communalities
        assert np.max(np.abs(step_back)) < efa.PAF_TOL

    def test_over_extracted_run_ends_near_the_plain_limit(self, eigen_sizes):
        # three factors extracted as four: the subspace passes go on past
        # small steps whose block lags, and end within PAF_TOL of the limit
        R = sample_matrix(600, 20, 3, seed=1)
        sol = extract_paf(R, 4)
        assert eigen_sizes[2:] == [4 + efa.PAF_RITZ_EXTRA] * sol.convergence["iterations"]
        limit = sol.communalities
        for _ in range(efa.PAF_MAX_ITER * 100):
            limit, before = oracles.paf_step(R, limit, 4), limit
            if np.max(np.abs(limit - before)) < 1e-12:
                break
        else:
            pytest.fail("the plain iteration did not reach its limit")
        assert np.max(np.abs(sol.communalities - limit)) < efa.PAF_TOL

    def test_zero_residual_change_gives_the_plain_step(self):
        h2 = np.array([0.2, 0.3])
        f = np.array([0.25, 0.35])
        last = (f - h2, np.array([0.5, 0.5]))
        nxt, (g, f_kept) = efa._anderson(h2, f, last)
        assert np.array_equal(nxt, f)
        assert np.array_equal(g, f - h2)
        assert f_kept is f
        assert np.array_equal(efa._anderson(h2, f, None)[0], f)

    def test_proposal_outside_unit_interval_is_clipped(self):
        # g = (.05, -.05), g_prev = (.1, -.1): gamma = -1, and the proposal
        # f + (f - f_prev) = (1.4, -0.4) is clipped to (1, 0)
        h2 = np.array([0.9, 0.1])
        f = np.array([0.95, 0.05])
        last = (np.array([0.1, -0.1]), np.array([0.5, 0.5]))
        nxt, _ = efa._anderson(h2, f, last)
        assert np.array_equal(nxt, [1.0, 0.0])
        # g_prev = -g: gamma = 1/2, the midpoint of f and f_prev, kept as is
        inner, _ = efa._anderson(h2, f, (np.array([-0.05, 0.05]), np.array([0.85, 0.15])))
        assert inner == pytest.approx([0.9, 0.1], abs=1e-15)


def smc(R: SymMatrix) -> np.ndarray:
    return 1.0 - 1.0 / np.diag(np.linalg.inv(R.values))


class TestPafNewton:
    """The full-spectrum descent: its Jacobian, held items, projected trials and limits."""

    @pytest.mark.parametrize(
        "R, m",
        [(demo_matrix(), 1), (demo_matrix(), 2), (sample_matrix(800, 15, 4, 3), 4)],
        ids=["demo-1", "demo-2", "below-guard"],
    )
    def test_jacobian_matches_central_differences(self, R, m):
        h2 = smc(R)
        reduced = R.values.copy()
        np.fill_diagonal(reduced, h2)
        eig = sym_eigen(SymMatrix(reduced))
        jac = efa._paf_jacobian(eig.eigenvalues, eig.eigenvectors, m)
        # central differences of the eigh pass err by O(eps^2) from the
        # third derivative and O(1e-16 / eps) from rounding: about 1e-10 here
        eps = 1e-5
        columns = []
        for j in range(R.dim):
            e = np.zeros(R.dim)
            e[j] = eps
            up, down = oracles.paf_step(R, h2 + e, m), oracles.paf_step(R, h2 - e, m)
            columns.append((up - down) / (2.0 * eps))
        assert np.max(np.abs(jac - np.array(columns).T)) < 1e-7
        assert np.max(np.abs(jac - jac.T)) < 1e-12

    def test_plain_passes_where_psi_is_not_convex(self):
        # From the SMC, I - J is not positive definite on the demo matrix at
        # m = 1, so the descent takes plain passes there; Newton's step,
        # once taken there regardless, ended at the fixed point where the
        # plain iteration is repelled, 0.43 from its limit in a communality.
        R = demo_matrix()
        sol = extract_paf(R, 1)
        plain = oracles.extract_paf_full(R, 1, 1e-13, efa.PAF_MAX_ITER, mix=False)
        assert np.max(np.abs(sol.communalities - plain.communalities)) < 1e-6

    @pytest.mark.parametrize(
        "R, m, most",
        [(cyclic_matrix(1000, 10, 3, seed=104321), 4, 60),
         (sample_matrix(300, 12, 3, seed=124300), 4, 260),
         (cyclic_matrix(300, 8, 4, seed=83401), 3, 180),
         (cyclic_matrix(600, 9, 4, seed=93411), 3, 30)],
        ids=["cyclic", "cluster", "under-8", "under-9"],
    )
    def test_full_path_reaches_the_plain_limit(self, R, m, most):
        # Full-path runs above Ledermann's bound: four factors where three
        # exist, and three where four exist. The Anderson passes with
        # Newton steps and undos ended 0.55 from the plain limit (cluster)
        # or raised NoConvergence after 1000 passes (both under-extracted
        # runs). The descent takes 31, 132, 89 and 15 eigen steps and ends
        # within PAF_TOL of the limit, and both Heywood flags agree.
        sol = extract_paf(R, m)
        limit = oracles.paf_plain_limit(R, m)
        assert sol.convergence["iterations"] <= most
        assert np.max(np.abs(sol.communalities - limit)) < efa.PAF_TOL
        assert sol.heywood == bool(np.any(limit == 1.0))

    def test_item_at_one_whose_gradient_points_out_is_held(self, monkeypatch):
        # this run ends with two communalities at 1: Newton's system drops
        # both items, and the other six pass the Cholesky factorization
        R = cyclic_matrix(300, 8, 4, seed=83401)
        sizes = []

        def solved(a, b):
            x = core_stats.cholesky_solve(a, b)
            sizes.append(len(b))
            return x

        monkeypatch.setattr(efa, "cholesky_solve", solved)
        sol = extract_paf(R, 3)
        held = int(np.sum(sol.communalities > 1.0 - 1e-12))
        assert sol.heywood and held == 2
        assert sizes[0] == R.dim and sizes[-1] == R.dim - held

    def test_trial_outside_the_box_is_projected(self, monkeypatch):
        # From communalities capped at 0.99, Newton's step takes two items
        # above 1; the first trial is that step projected on [0, 1]^p.
        R = cyclic_matrix(300, 8, 4, seed=83401)
        h2 = np.minimum(extract_paf(R, 3).communalities, 0.99)
        diagonals = []

        def recorded(A, basis=None):
            diagonals.append(np.diag(A.values).copy())
            return sym_eigen(A, basis=basis)

        monkeypatch.setattr(efa, "sym_eigen", recorded)
        assert efa._descent(R.values, h2, 3, 2)[0] is None
        reduced = R.values.copy()
        np.fill_diagonal(reduced, h2)
        lam, vectors = np.linalg.eigh(reduced)
        lam, vectors = lam[::-1], vectors[:, ::-1]
        f = ((vectors[:, :3] * np.sqrt(lam[:3])) ** 2).sum(axis=1)
        jac = efa._paf_jacobian(lam, vectors, 3)
        newton = h2 + np.linalg.solve(np.eye(R.dim) - jac, f - h2)
        assert np.sum(newton > 1.0) == 2
        assert np.array_equal(diagonals[0], h2)
        assert np.max(np.abs(diagonals[1] - np.clip(newton, 0.0, 1.0))) < 1e-10
        assert np.array_equal(diagonals[1] == 1.0, newton > 1.0)

    def test_warm_start_rounding_moves_no_communality(self, monkeypatch):
        # sym_eigen's warm start basis.T @ A @ basis takes the BLAS kernel's
        # rounding; summed by fmatmul instead, it moved a communality of
        # cyclic-4 by 0.65 under the Newton steps and undos, and now by at
        # most 7.3e-13 on these five runs
        cases = [(cyclic_matrix(600, 20, 4, seed=4), 6), (cyclic_matrix(600, 20, 4, seed=18), 6),
                 (sample_matrix(600, 20, 4, seed=4), 6), (cyclic_matrix(300, 8, 4, seed=83401), 3),
                 (cyclic_matrix(600, 9, 4, seed=93411), 3)]
        before = [extract_paf(R, m).communalities for R, m in cases]

        def fmatmul_start(A, basis=None):
            if basis is None:
                return sym_eigen(A)
            a = core_stats.fmatmul(basis.T, core_stats.fmatmul(A.values, basis))
            return core_stats._diagonalize((a + a.T) / 2.0, basis)

        monkeypatch.setattr(efa, "sym_eigen", fmatmul_start)
        for (R, m), h2 in zip(cases, before):
            assert np.max(np.abs(extract_paf(R, m).communalities - h2)) < 1e-10


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
        assert fixed_count("fixed:99999999999999999999") == 10**20 - 1
        with pytest.raises(ConfigError):
            fixed_count("fixed")  # rule name without a count

    @pytest.mark.parametrize("retention", [
        "fixed:2_0", "fixed:+2", "fixed: 2", "fixed:2 ", "fixed:02", "fixed:-0",
        "fixed:\u0968",
    ])
    def test_fixed_count_in_plain_digits_only(self, retention):
        # int() takes each of these; the rule is echoed into the report, so
        # one count has one spelling
        message = f"^retention {re.escape(repr(retention))} needs an integer count$"
        with pytest.raises(ConfigError, match=message):
            fixed_count(retention)


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
        sol = extract_paf(R, 2, items=ITEMS6)
        rotated = rotate_varimax(sol)
        # the T with rotated = unrotated @ T, sorting and signs included
        T = np.linalg.lstsq(sol.loadings, rotated.loadings, rcond=None)[0]
        assert np.max(np.abs(sol.loadings @ T - rotated.loadings)) < 1e-10
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


class TestObliqueInput:
    """Both rotations start from orthogonal loadings and refuse an oblique solution."""

    @pytest.fixture(scope="class")
    def paf4(self):
        ds = load_csv(DATA_DIR / "wide_survey.csv", 1, 7)
        return extract_paf(correlation_matrix(ds.values), 4, items=ds.items)

    @pytest.mark.parametrize("rotate", [rotate_varimax, rotate_oblimin], ids=["varimax", "oblimin"])
    def test_oblique_solution_refused(self, paf4, rotate):
        oblique = rotate_oblimin(paf4)
        assert np.max(np.abs(oblique.phi - np.eye(4))) > 0.05
        with pytest.raises(DomainError, match=r"^\w+ rotates orthogonal solutions, got one "
                           r"with factor correlations \(oblimin\(0\)\)$"):
            rotate(oblique)

    def test_orthogonal_rotation_accepted(self, paf4):
        sol = rotate_oblimin(rotate_varimax(paf4))
        assert sol.rotation == "oblimin(0)"


class TestOblimin:
    @pytest.mark.parametrize("gamma", [0.0, 0.5])
    def test_reproduction_invariant_under_rotation(self, two_factor_dataset, gamma):
        R = correlation_matrix(two_factor_dataset.values, list(ITEMS6))
        sol = extract_paf(R, 2, items=ITEMS6)
        rotated = rotate_oblimin(sol, gamma=gamma)
        assert np.max(np.abs(oracles.reproduced_matrix(rotated) - oracles.reproduced_matrix(sol))) < 1e-8

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

    @pytest.mark.parametrize("gamma", [0.0, 0.5])
    def test_phi_unit_diagonal_symmetric(self, two_factor_dataset, gamma):
        R = correlation_matrix(two_factor_dataset.values, list(ITEMS6))
        rotated = rotate_oblimin(extract_paf(R, 2, items=ITEMS6), gamma=gamma)
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

    def test_budget_tests_the_final_iterate(self, numerics, two_factor_dataset):
        # a run that converges on its last budgeted step stands; one step
        # short, it raises with the gradient norm of the iterate it ends on
        R = correlation_matrix(two_factor_dataset.values, list(ITEMS6))
        sol = extract_paf(R, 2, items=ITEMS6)
        done = rotate_oblimin(sol)
        steps = done.convergence["iterations"]
        numerics(efa, OBLIMIN_MAX_ITER=steps)
        assert np.array_equal(rotate_oblimin(sol).loadings, done.loadings)
        numerics(efa, OBLIMIN_MAX_ITER=steps - 1)
        with pytest.raises(NoConvergence, match=f"after {steps - 1} iterations$") as exc:
            rotate_oblimin(sol)
        assert exc.value.residual >= efa.OBLIMIN_GTOL

    @given(data=st.data(), m=st.integers(2, 8), al=st.floats(2.0**-11, 2.0**20))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_trial_columns_keep_norm_one(self, data, m, al):
        # Gp's column k is orthogonal to T's unit column k, so no trial
        # column T - al Gp is shorter than 1 in exact arithmetic. In
        # floating point the component of al gp_k along t_k is rounding of
        # at most about (m + 3) eps al |g_k|, which bounds the shortfall.
        def square(elements):
            return np.array(data.draw(st.lists(
                st.lists(elements, min_size=m, max_size=m), min_size=m, max_size=m)))

        # T's columns are normalized as a trial's are; a column too small for that is e_k
        X = square(st.floats(-1e3, 1e3))
        tiny = np.max(np.abs(X), axis=0) < 1e-100
        X[:, tiny] = np.eye(m)[:, tiny]
        T = X / np.sqrt((X * X).sum(axis=0))
        G = square(st.floats(-1e150, 1e150))
        with np.errstate(over="ignore"):
            Gp = G - T * (T * G).sum(axis=0)
            trial = T - al * Gp
            norms = np.sqrt((trial * trial).sum(axis=0))
            slack = 2.0 * (m + 3) * np.finfo(float).eps * al * np.sqrt((G * G).sum(axis=0))
        assert np.all(norms >= 1.0 - 1e-12 - slack)

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
        )
        back = sort_and_sign(scrambled)
        assert np.allclose(back.loadings, rotated.loadings, atol=1e-12)
        assert np.allclose(back.phi, rotated.phi, atol=1e-12)


# values at and around the cutoffs drawn in TestAssignment, so ties and exact hits are common
LOADING = st.sampled_from([0.0, -0.0, 0.1, -0.39, 0.4, -0.4, 0.55, -0.55, 0.9]) | st.floats(-1, 1)


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

    @given(
        rows=st.integers(1, 5).flatmap(lambda m: st.lists(
            st.lists(LOADING, min_size=m, max_size=m), min_size=1, max_size=6)),
        cutoff=st.sampled_from([0.4, 0.55]) | st.floats(0.01, 0.99),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_the_per_row_loop(self, rows, cutoff):
        items = [f"i{j}" for j in range(len(rows))]
        got = assign_items(make_solution(items, rows), cutoff)
        assert list(got) == items
        assert all(got[item].item == item for item in items)
        want = oracles.assign_items_per_row(rows, cutoff)
        assert [(a.factor, a.status) for a in got.values()] == want
