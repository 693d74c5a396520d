"""Numeric kernel tests: correlation, Jacobi eigen, inverse, chi-square tail.

Expected values come from tests/oracles.py (definitional formulas,
cofactor expansion, characteristic-polynomial roots, Simpson quadrature),
never from the code under test.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np
import pytest

from psychoval import (
    SymMatrix,
    chi_square_sf,
    correlation_matrix,
    inverse,
    kmo,
    log_determinant,
    sym_eigen,
)
from psychoval import core_stats
from psychoval.core_stats import (
    JACOBI_MAX_SWEEPS,
    JACOBI_TOL,
    _cold_eigen,
    _jacobi_sweeps,
    _seat_move,
    cholesky_solve,
    fmatmul,
)
from psychoval.errors import (
    DomainError,
    InsufficientRows,
    NoConvergence,
    NotPositiveDefinite,
    SingularMatrix,
    ZeroVariance,
)
from tests import oracles


def random_symmetric(rng: np.random.Generator, p: int = 3) -> np.ndarray:
    A = rng.uniform(-2.0, 2.0, size=(p, p))
    return (A + A.T) / 2.0


def random_spd(rng: np.random.Generator, p: int) -> np.ndarray:
    M = rng.uniform(-1.0, 1.0, size=(p, p))
    return M @ M.T + 0.5 * np.eye(p)


class TestCorrelationMatrix:
    def test_complete_table_matches_pairwise_pearson(self):
        rng = np.random.default_rng(5)
        data = rng.normal(size=(40, 4))
        R = correlation_matrix(data).values
        for i in range(4):
            for j in range(i + 1, 4):
                assert R[i, j] == pytest.approx(
                    oracles.pearson_definitional(data[:, i], data[:, j]), abs=1e-12
                )
        assert np.allclose(R, R.T)
        assert np.allclose(np.diag(R), 1.0)

    def test_pairwise_deletion_uses_joint_complete_rows(self):
        rng = np.random.default_rng(6)
        data = rng.normal(size=(30, 3))
        data[:5, 0] = np.nan
        data[10:13, 2] = np.nan
        R = correlation_matrix(data).values
        both = ~np.isnan(data[:, 0]) & ~np.isnan(data[:, 2])
        expected = oracles.pearson_definitional(data[both, 0], data[both, 2])
        assert R[0, 2] == pytest.approx(expected, abs=1e-12)

    def test_insufficient_rows(self):
        data = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(InsufficientRows):
            correlation_matrix(data)

    def test_insufficient_pair_overlap(self):
        rng = np.random.default_rng(7)
        data = rng.normal(size=(10, 2))
        data[:5, 0] = np.nan
        data[4:9, 1] = np.nan  # only one jointly complete row
        with pytest.raises(InsufficientRows):
            correlation_matrix(data)

    def test_constant_column_rejected(self):
        data = np.column_stack([np.full(10, 4.0), np.arange(10.0)])
        with pytest.raises(ZeroVariance):
            correlation_matrix(data, ["A", "B"])

    @pytest.mark.parametrize("bad", [math.inf, -math.inf])
    def test_infinite_cell_names_the_item(self, bad):
        data = np.column_stack([np.arange(6.0), np.arange(6.0) ** 2, np.arange(6.0) % 4])
        data[:2, 0] = np.nan  # NaN stays the missing marker
        data[2, 1] = bad
        with pytest.raises(DomainError, match="^item 'B' has an infinite value$"):
            correlation_matrix(data, ["A", "B", "C"])


def likert_table(rng: np.random.Generator, n: int = 600, p: int = 20,
                 missing: float = 0.10) -> np.ndarray:
    """Integer 1..7 responses on two correlated factors, a share of cells NaN."""
    loadings = np.zeros((p, 2))
    loadings[np.arange(p), np.arange(p) % 2] = rng.uniform(0.3, 0.8, size=p)
    latent = rng.standard_normal((n, 2)) @ loadings.T + rng.standard_normal((n, p))
    data = np.clip(np.round(4.0 + 1.5 * latent), 1, 7)
    data[rng.random((n, p)) < missing] = np.nan
    return data


def joint_oracle(data: np.ndarray, i: int, j: int) -> float:
    both = ~np.isnan(data[:, i]) & ~np.isnan(data[:, j])
    return oracles.pearson_definitional(data[both, i], data[both, j])


class TestCorrelationMatrixAtScale:
    """The masked-Gram kernel on a 600 x 20 Likert table with 10 % NA."""

    @pytest.fixture(scope="class")
    def table(self):
        data = likert_table(np.random.default_rng(2024))
        return data, correlation_matrix(data).values

    def test_matches_oracle_on_jointly_present_rows(self, table):
        data, R = table
        assert np.all(np.isfinite(R))
        assert np.array_equal(np.diag(R), np.ones(20))
        assert np.array_equal(R, R.T)
        for i, j in combinations(range(20), 2):
            assert R[i, j] == pytest.approx(joint_oracle(data, i, j), abs=1e-12)

    def test_column_subset_is_bit_identical_slice(self, table):
        data, R = table
        idx = [0, 3, 4, 7, 11, 12, 15, 19]
        sub = correlation_matrix(data[:, idx]).values
        assert sub.tobytes() == R[np.ix_(idx, idx)].tobytes()

    def test_column_permutation_is_bit_identical(self, table):
        data, R = table
        perm = np.random.default_rng(3).permutation(20)
        moved = correlation_matrix(data[:, perm]).values
        assert moved.tobytes() == R[np.ix_(perm, perm)].tobytes()

    def test_memory_layout_is_irrelevant(self, table):
        data, R = table
        assert correlation_matrix(np.asfortranarray(data)).values.tobytes() == R.tobytes()

    def test_float_data_far_from_zero(self):
        rng = np.random.default_rng(11)
        common = rng.standard_normal((600, 1))
        data = 1e6 + common + rng.standard_normal((600, 20))
        data[rng.random(data.shape) < 0.10] = np.nan
        R = correlation_matrix(data).values
        for i, j in combinations(range(20), 2):
            assert R[i, j] == pytest.approx(joint_oracle(data, i, j), abs=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_no_rows(self):
        with pytest.raises(InsufficientRows, match="item 'item1' has 0 observations, need 3"):
            correlation_matrix(np.empty((0, 3)))

    @pytest.mark.filterwarnings("error")
    def test_all_missing_column(self):
        data = likert_table(np.random.default_rng(4), n=50, p=4)
        data[:, 2] = np.nan
        with pytest.raises(InsufficientRows, match="item 'C' has 0 observations, need 3"):
            correlation_matrix(data, ["A", "B", "C", "D"])

    def test_first_short_pair_in_row_major_order(self):
        data = likert_table(np.random.default_rng(5), n=10, p=4, missing=0.0)
        data[:6, 1] = np.nan   # B present on rows 6..9
        data[6:, 2] = np.nan   # C present on rows 0..5: (B, C) share none
        data[4:, 3] = np.nan   # D present on rows 0..3: (B, D) share none
        with pytest.raises(InsufficientRows) as info:
            correlation_matrix(data, ["A", "B", "C", "D"])
        assert str(info.value) == "pair ('B', 'C') has 0 complete rows, need 3"

    @pytest.mark.parametrize("constant, named", ((1, "B"), (0, "A")))
    def test_constant_within_pair_names_the_item(self, constant, named):
        # the constant item varies only on rows where the other is missing
        data = np.array([[1, 4], [2, 4], [3, 4], [4, 4], [5, 4],
                         [np.nan, 1], [np.nan, 7]], dtype=float)
        if constant == 0:
            data = data[:, ::-1]
        with pytest.raises(ZeroVariance) as info:
            correlation_matrix(data, ["A", "B"])
        assert str(info.value) == (
            f"item {named!r} within pair ('A', 'B') has zero variance"
        )

    def test_first_failing_pair_wins_across_kinds(self):
        # (A, B): B constant on the shared rows; (B, C): too few shared rows
        data = np.array([[1, 4, np.nan], [2, 4, np.nan], [3, 4, np.nan],
                         [np.nan, 1, 2], [np.nan, 6, 5], [1, np.nan, 3],
                         [5, np.nan, 6], [6, np.nan, 1]], dtype=float)
        with pytest.raises(ZeroVariance) as info:
            correlation_matrix(data, ["A", "B", "C"])
        assert str(info.value) == "item 'B' within pair ('A', 'B') has zero variance"


class TestGramCovariances:
    """Joint counts and n(n - 1)-scaled variances and covariances per pair."""

    def test_definitional_hand_value(self):
        # n = 4: n Σx² - (Σx)² = 4·30 - 10² = 20; n Σxy - Σx Σy = 4·28 - 10·10 = 12
        data = np.array([[1.0, 2.0], [2.0, 1.0], [3.0, 4.0], [4.0, 3.0]])
        cnt, var, cov = core_stats.gram_covariances(data)
        assert np.array_equal(cnt, np.full((2, 2), 4.0))
        assert np.array_equal(var, np.full((2, 2), 20.0))
        assert np.array_equal(cov, np.array([[20.0, 12.0], [12.0, 20.0]]))

    def test_matches_oracle_on_jointly_present_rows(self):
        data = likert_table(np.random.default_rng(8), n=200, p=6)
        cnt, var, cov = core_stats.gram_covariances(data)
        for i in range(6):
            for j in range(6):
                both = ~np.isnan(data[:, i]) & ~np.isnan(data[:, j])
                n = int(both.sum())
                dx = data[both, i] - data[both, i].mean()
                dy = data[both, j] - data[both, j].mean()
                assert cnt[i, j] == n
                assert var[i, j] == pytest.approx(n * float(dx @ dx), rel=1e-12)
                assert cov[i, j] == pytest.approx(n * float(dx @ dy), rel=1e-12)

    def test_integer_sums_do_not_depend_on_row_order_or_layout(self):
        data = likert_table(np.random.default_rng(9), n=300, p=8)
        full = core_stats.gram_covariances(data)
        rows = np.random.default_rng(10).permutation(300)
        for other in (data[rows], np.asfortranarray(data)):
            for got, want in zip(core_stats.gram_covariances(other), full):
                assert got.tobytes() == want.tobytes()

    def test_shift_and_reflection_are_exact_on_integers(self):
        data = likert_table(np.random.default_rng(12), n=300, p=3)
        _, var, cov = core_stats.gram_covariances(data)
        moved = data * np.array([1.0, -1.0, 1.0]) + np.array([100.0, 0.0, -3.0])
        _, var2, cov2 = core_stats.gram_covariances(moved)
        sign = np.array([1.0, -1.0, 1.0])
        assert var2.tobytes() == var.tobytes()
        assert np.array_equal(cov2, cov * np.outer(sign, sign))  # 0.0 == -0.0


class TestSymEigen:
    def test_identity(self):
        dec = sym_eigen(SymMatrix(np.eye(3)))
        assert np.allclose(dec.eigenvalues, 1.0, atol=1e-12)
        assert np.allclose(oracles.eigen_reconstruction(dec), np.eye(3), atol=1e-12)

    def test_two_by_two_closed_form(self):
        r = 0.6
        dec = sym_eigen(SymMatrix(np.array([[1.0, r], [r, 1.0]])))
        assert dec.eigenvalues == pytest.approx([1 + r, 1 - r], abs=1e-12)
        v0 = dec.eigenvectors[:, 0]
        assert abs(v0 @ np.array([1.0, 1.0]) / math.sqrt(2)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_eigenvalues_match_charpoly_roots_on_seeded_grid(self):
        # 100 seeded symmetric 3x3 matrices against the trigonometric
        # cubic-root oracle
        for seed in range(100):
            A = random_symmetric(np.random.default_rng(seed))
            dec = sym_eigen(SymMatrix(A))
            expected = oracles.eigenvalues_3x3_charpoly(A)
            assert np.allclose(dec.eigenvalues, expected, atol=1e-8), seed
            assert np.max(np.abs(oracles.eigen_reconstruction(dec) - A)) < 1e-10, seed
            assert sum(dec.eigenvalues) == pytest.approx(np.trace(A), abs=1e-9)

    def test_eigenvector_matches_cross_product_oracle(self):
        A = random_symmetric(np.random.default_rng(123))
        dec = sym_eigen(SymMatrix(A))
        lam = dec.eigenvalues[0]
        v = oracles.eigenvector_3x3(A, lam)
        got = dec.eigenvectors[:, 0]
        if got @ v < 0:
            got = -got
        assert np.allclose(got, v, atol=1e-8)

    def test_descending_order_and_orthonormal_vectors(self):
        for seed in (11, 22, 33):
            A = random_symmetric(np.random.default_rng(seed), p=5)
            dec = sym_eigen(SymMatrix(A))
            assert all(
                a >= b - 1e-12
                for a, b in zip(dec.eigenvalues, dec.eigenvalues[1:])
            )
            V = dec.eigenvectors
            assert np.max(np.abs(V.T @ V - np.eye(5))) < 1e-10


# the sizes the kernel runs at: item counts of real instruments and prune steps
KERNEL_SIZES = (1, 2, 3, 5, 6, 20, 41, 80, 120)
KERNEL_KINDS = ("random", "correlation", "equicorrelated", "diagonal", "block", "scaled")


def kernel_matrix(kind: str, p: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "random":
        return random_symmetric(rng, p)
    if kind == "correlation":
        M = rng.uniform(-1.0, 1.0, size=(p, p + 2))
        cov = M @ M.T + 0.5 * np.eye(p)
        sd = np.sqrt(np.diag(cov))
        return cov / np.outer(sd, sd)
    if kind == "equicorrelated":
        # eigenvalue 0.6 repeated p - 1 times
        R = np.full((p, p), 0.4)
        np.fill_diagonal(R, 1.0)
        return R
    if kind == "diagonal":
        # every pivot is zero from the start
        return np.diag(rng.uniform(-2.0, 2.0, size=p))
    if kind == "block":
        # pairs across the two blocks stay zero pivots with equal diagonals
        R = np.zeros((p, p))
        for block in (slice(0, p // 2), slice(p // 2, p)):
            R[block, block] = kernel_matrix("correlation", block.stop - block.start, seed)
        return R
    return 1e6 * random_symmetric(rng, p)


class TestSymEigenAtScale:
    """Jacobi against numpy.linalg.eigh at the sizes the pipeline uses.

    Eigenvalues and the reconstruction are compared relative to
    max(1, |lambda|max), so the 1e6-scaled matrices face the same bound.
    """

    @pytest.mark.parametrize("kind", KERNEL_KINDS)
    @pytest.mark.parametrize("p", KERNEL_SIZES)
    def test_matches_eigh(self, p, kind):
        A = kernel_matrix(kind, p, seed=1000 + p)
        dec = sym_eigen(SymMatrix(A))
        lam, V = dec.eigenvalues, dec.eigenvectors
        expected = np.linalg.eigh(A)[0][::-1]
        scale = max(1.0, float(np.max(np.abs(expected))))
        assert np.max(np.abs(lam - expected)) <= 1e-10 * scale
        assert np.max(np.abs(oracles.eigen_reconstruction(dec) - A)) < 1e-10 * scale
        assert np.max(np.abs(V.T @ V - np.eye(p))) < 1e-10
        assert np.all(np.diff(lam) <= 0.0)
        lead = np.argmax(np.abs(V), axis=0)
        assert np.all(V[lead, np.arange(p)] > 0.0)

    @pytest.mark.parametrize("p", (2, 6, 20, 41))
    def test_warm_start_matches_cold_start(self, p):
        rng = np.random.default_rng(77 + p)
        A = random_symmetric(rng, p)
        Q, _ = np.linalg.qr(rng.standard_normal((p, p)))
        cold = sym_eigen(SymMatrix(A))
        for basis in (Q, cold.eigenvectors):
            warm = sym_eigen(SymMatrix(A), basis=basis)
            assert np.max(np.abs(warm.eigenvalues - cold.eigenvalues)) < 1e-12
            assert np.max(np.abs(warm.eigenvectors - cold.eigenvectors)) < 1e-9

    def test_warm_start_after_diagonal_change(self):
        # the PAF pattern: only the diagonal moves between decompositions
        R = kernel_matrix("correlation", 20, seed=5)
        prev = sym_eigen(SymMatrix(R))
        reduced = R.copy()
        np.fill_diagonal(reduced, np.linspace(0.3, 0.8, 20))
        cold = sym_eigen(SymMatrix(reduced))
        warm = sym_eigen(SymMatrix(reduced), basis=prev.eigenvectors)
        assert np.max(np.abs(warm.eigenvalues - cold.eigenvalues)) < 1e-12
        assert np.max(np.abs(oracles.eigen_reconstruction(warm) - reduced)) < 1e-10

    def test_basis_shape_checked(self):
        with pytest.raises(DomainError, match=r"^basis shape \(2, 2\) does not match dimension 3$"):
            sym_eigen(SymMatrix(np.eye(3)), basis=np.eye(2))

    def test_sweep_budget_exhausted(self, numerics):
        A = random_symmetric(np.random.default_rng(8), 20)
        numerics(core_stats, JACOBI_MAX_SWEEPS=1)
        with pytest.raises(NoConvergence, match="Jacobi: 1 sweeps exhausted") as info:
            sym_eigen(SymMatrix(A))
        assert math.isfinite(info.value.residual)
        assert info.value.residual >= JACOBI_TOL

    @pytest.mark.parametrize("p", KERNEL_SIZES)
    def test_seat_move_schedule(self, p):
        # each round works on the pairs at positions (k, k + h); over a sweep
        # of n - 1 moves every pair of real indices meets once, and the
        # sweep ends in round 0's order
        n = p + p % 2
        h = n // 2
        move = _seat_move(p)
        perm = move[:n] % n
        # the same permutation of rows 0..n-1 and of every row's columns
        rows = np.r_[perm, n:n + p]
        assert np.array_equal(move, (rows[:, None] * n + perm).reshape(-1))
        start = list(range(0, n, 2)) + list(range(1, n, 2))
        order, met = start, []
        for _ in range(n - 1):
            assert sorted(order) == list(range(n))  # disjoint, all seated
            met += [tuple(sorted(pair)) for pair in zip(order[:h], order[h:]) if max(pair) < p]
            order = [order[k] for k in perm]
        assert sorted(met) == list(combinations(range(p), 2))
        assert order == start

    @pytest.mark.parametrize("kind", KERNEL_KINDS)
    @pytest.mark.parametrize("p", KERNEL_SIZES + (17, 18))
    def test_rotations_match_interleaved_round(self, p, kind):
        # the split-half round applies the same operations to every element
        # as the interleaved one, cold and from a warm basis
        A = kernel_matrix(kind, p, seed=2000 + p)
        Q, _ = np.linalg.qr(np.random.default_rng(p).standard_normal((p, p)))
        warm = Q.T @ A @ Q
        for a, v in ((A, np.eye(p)), ((warm + warm.T) / 2.0, Q)):
            got = _jacobi_sweeps(a, v)
            expected = oracles.jacobi_interleaved(a, v, JACOBI_TOL, JACOBI_MAX_SWEEPS)
            assert np.array_equal(got[0], expected[0])
            assert np.array_equal(got[1], expected[1])

    @pytest.mark.parametrize("p", (5, 18, 20))
    def test_exhausted_residual_matches_interleaved_round(self, p, numerics):
        A = random_symmetric(np.random.default_rng(8), p)
        numerics(core_stats, JACOBI_MAX_SWEEPS=1)
        with pytest.raises(NoConvergence) as got:
            _jacobi_sweeps(A, np.eye(p))
        with pytest.raises(NoConvergence) as expected:
            oracles.jacobi_interleaved(A, np.eye(p), JACOBI_TOL, 1)
        assert got.value.residual == expected.value.residual


class TestSymEigenMemo:
    """Cold calls keep their last result; warm calls and failures do not."""

    def test_repeated_cold_call_returns_the_same_arrays(self):
        A = kernel_matrix("correlation", 20, seed=21)
        first = sym_eigen(SymMatrix(A))
        again = sym_eigen(SymMatrix(A.copy()))
        assert again.eigenvalues is first.eigenvalues
        assert again.eigenvectors is first.eigenvectors
        assert not again.eigenvectors.flags.writeable

    def test_failure_is_never_remembered(self, numerics):
        A = random_symmetric(np.random.default_rng(8), 20)
        numerics(core_stats, JACOBI_MAX_SWEEPS=1)
        misses = _cold_eigen.cache_info().misses
        for _ in range(2):
            with pytest.raises(NoConvergence):
                sym_eigen(SymMatrix(A))
        assert _cold_eigen.cache_info().misses == misses + 2
        assert _cold_eigen.cache_info().currsize == 0

    def test_warm_call_bypasses_the_memo(self):
        A = kernel_matrix("correlation", 6, seed=22)
        cold = sym_eigen(SymMatrix(A))
        before = _cold_eigen.cache_info()
        warm = sym_eigen(SymMatrix(A), basis=cold.eigenvectors)
        assert _cold_eigen.cache_info() == before
        assert warm.eigenvectors is not cold.eigenvectors
        assert sym_eigen(SymMatrix(A)) is cold

    def test_key_is_the_exact_bytes(self):
        # SymMatrix equality takes -0.0 for 0.0; the memo does not
        A = np.diag([2.0, 1.0])
        B = A.copy()
        B[0, 1] = B[1, 0] = -0.0
        assert SymMatrix(A) == SymMatrix(B)
        sym_eigen(SymMatrix(A))
        misses = _cold_eigen.cache_info().misses
        sym_eigen(SymMatrix(B))
        assert _cold_eigen.cache_info().misses == misses + 1

    def test_sym_matrix_is_not_hashable(self):
        # equal matrices with -0.0 and 0.0 would hash apart
        with pytest.raises(TypeError, match="unhashable type: 'SymMatrix'"):
            hash(SymMatrix(np.eye(2)))


class TestFmatmul:
    """The fixed-order product agrees with BLAS and ignores memory layout."""

    SHAPES = [(20, 20, 8), (80, 80, 12), (8, 20, 8), (5, 3, 1), (1, 7, 4)]

    @pytest.mark.parametrize("p, k, q", SHAPES)
    def test_matches_blas_product(self, p, k, q):
        rng = np.random.default_rng(p * 1000 + k * 10 + q)
        a, b = rng.normal(size=(p, k)), rng.normal(size=(k, q))
        expected = a @ b
        scale = np.abs(a) @ np.abs(b)  # bounds each entry's rounding
        assert np.all(np.abs(fmatmul(a, b) - expected) <= 1e-13 * scale)

    @pytest.mark.parametrize("p, k, q", SHAPES)
    def test_same_bits_for_every_layout(self, p, k, q):
        rng = np.random.default_rng(p + k + q)
        a, b = rng.normal(size=(p, k)), rng.normal(size=(k, q))
        reference = fmatmul(a, b)
        layouts = [
            (np.asfortranarray(a), np.asfortranarray(b)),
            (np.asfortranarray(a), b),
            (np.ascontiguousarray(a.T).T, np.ascontiguousarray(b.T).T),
            (np.flipud(np.flipud(a).copy()), np.fliplr(np.fliplr(b).copy())),
            (np.repeat(a, 2, axis=1)[:, ::2], np.repeat(b, 2, axis=0)[::2]),
        ]
        for x, y in layouts:
            assert np.array_equal(x, a) and np.array_equal(y, b)
            assert fmatmul(x, y).tobytes() == reference.tobytes()


class TestNonFiniteMatrix:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("cell", [(0, 1), (1, 1)], ids=["off_diagonal", "diagonal"])
    @pytest.mark.parametrize("kernel", [sym_eigen, inverse, log_determinant, kmo])
    def test_refused_before_any_kernel(self, kernel, cell, bad):
        a = np.eye(2)
        a[cell] = a[cell[::-1]] = bad
        with pytest.raises(DomainError, match="^matrix has a non-finite entry$"):
            kernel(SymMatrix(a))


class TestShapeRefusals:
    """A wrongly shaped kernel input raises DomainError, not a bare ValueError."""

    def test_non_square_matrix(self):
        with pytest.raises(DomainError, match=r"^expected a square matrix, got shape \(2, 3\)$"):
            SymMatrix(np.ones((2, 3)))

    def test_asymmetric_matrix(self):
        with pytest.raises(DomainError, match="^matrix is not symmetric$"):
            SymMatrix([[1.0, 0.5], [0.2, 1.0]])

    def test_table_not_two_dimensional(self):
        with pytest.raises(DomainError, match=r"^expected a 2-d table, got shape \(5,\)$"):
            correlation_matrix(np.ones(5))


class TestInverse:
    def test_two_by_two_adjugate_value(self):
        A = np.array([[1.0, 0.5], [0.5, 1.0]])
        expected = np.array([[1.0, -0.5], [-0.5, 1.0]]) / 0.75
        assert np.allclose(inverse(SymMatrix(A)).values, expected, atol=1e-12)

    def test_matches_cofactor_oracle(self):
        for seed, p in ((1, 2), (2, 3), (3, 4)):
            A = random_spd(np.random.default_rng(seed), p)
            got = inverse(SymMatrix(A)).values
            expected = oracles.inverse_cofactor(A)
            assert np.allclose(got, expected, atol=1e-9), (seed, p)

    def test_involution(self):
        A = random_spd(np.random.default_rng(9), 4)
        back = inverse(inverse(SymMatrix(A))).values
        assert np.max(np.abs(back - A)) < 1e-8

    def test_singular_matrix_rejected(self):
        A = np.ones((3, 3))  # rank 1
        with pytest.raises(SingularMatrix):
            inverse(SymMatrix(A))


class TestLogDeterminant:
    def test_hand_value(self):
        A = np.array([[1.0, 0.5], [0.5, 1.0]])
        assert log_determinant(SymMatrix(A)) == pytest.approx(
            math.log(0.75), abs=1e-12
        )

    def test_matches_cofactor_determinant(self):
        A = random_spd(np.random.default_rng(17), 3)
        expected = math.log(oracles.det_cofactor(A))
        assert log_determinant(SymMatrix(A)) == pytest.approx(expected, abs=1e-9)

    def test_not_positive_definite(self):
        A = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
        with pytest.raises(NotPositiveDefinite):
            log_determinant(SymMatrix(A))


class TestCholeskySolve:
    @pytest.mark.parametrize("p", [2, 6, 15, 20])
    def test_matches_numpy_solve(self, p):
        rng = np.random.default_rng(p)
        x = rng.normal(size=(p, p))
        a = x @ x.T + 0.1 * np.eye(p)
        b = rng.normal(size=p)
        expected = np.linalg.solve(a, b)
        # both solves are backward stable; the relative difference stays
        # below cond(a) * p * 1e-16, under 1e-9 at these condition numbers
        assert np.linalg.cond(a) < 1e6
        assert np.max(np.abs(cholesky_solve(a, b) - expected)) < 1e-9 * np.max(np.abs(expected))

    def test_reads_the_lower_triangle(self):
        a = np.array([[4.0, 99.0], [2.0, 3.0]])
        assert np.allclose(cholesky_solve(a, np.array([6.0, 5.0])), [1.0, 1.0], atol=1e-15)

    @pytest.mark.parametrize("a", [[[1.0, 2.0], [2.0, 1.0]], [[0.0]], [[1.0, 0.0], [0.0, -1.0]]])
    def test_not_positive_definite(self, a):
        with pytest.raises(NotPositiveDefinite, match="during Cholesky"):
            cholesky_solve(np.array(a), np.ones(len(a)))


class TestChiSquareTail:
    def test_zero_statistic(self):
        assert chi_square_sf(0.0, 4) == 1.0

    @pytest.mark.parametrize("df", [1, 3, 14, 190])
    def test_zero_statistic_has_unit_tail(self, df):
        assert chi_square_sf(0.0, df) == 1.0

    @pytest.mark.parametrize("df", [1, 2, 15])
    def test_smallest_subnormal_statistic_has_unit_tail(self, df):
        # x/2 rounds to 0, whose log would raise a bare ValueError
        assert chi_square_sf(5e-324, df) == 1.0

    @pytest.mark.parametrize("df", [1, 3, 14, 15, 190])
    def test_branches_meet_at_the_switch(self, df):
        # the tail is continuous in x: one ulp below x = df + 2 every term
        # of the finite sum moves by an ulp or so, and so does the tail
        x = df + 2.0
        below = chi_square_sf(math.nextafter(x, 0.0), df)
        assert below == pytest.approx(chi_square_sf(x, df), abs=1e-11)

    def test_df2_closed_form(self):
        # sf(x; 2) = exp(-x/2), so x = 2 ln 20 gives exactly 0.05
        assert chi_square_sf(2 * math.log(20), 2) == pytest.approx(0.05, abs=1e-12)

    def test_df5_critical_value(self):
        assert chi_square_sf(11.0705, 5) == pytest.approx(0.05, abs=1e-4)

    @pytest.mark.parametrize(
        "x,df",
        [(2 * math.log(20), 2), (11.0705, 5), (3.84, 1), (28.3367, 1), (15.0, 15)],
    )
    def test_matches_quadrature_oracle(self, x, df):
        expected = oracles.chi2_sf_quadrature(x, df)
        assert chi_square_sf(x, df) == pytest.approx(expected, abs=1e-4)

    def test_monotone_in_x(self):
        values = [chi_square_sf(x, 4) for x in (0.5, 1.0, 2.0, 4.0, 8.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            chi_square_sf(-1.0, 3)
        with pytest.raises(DomainError):
            chi_square_sf(1.0, 0)
        with pytest.raises(DomainError):
            chi_square_sf(math.nan, 3)

    @pytest.mark.parametrize("df", [1, 3, 14, 15, 190])
    def test_infinite_statistic_has_zero_tail(self, df):
        assert chi_square_sf(math.inf, df) == 0.0

    @pytest.mark.parametrize("x, df", [
        (2.0, math.nan), (math.nan, 3), (math.nan, math.nan), (2.0, math.inf),
        (math.inf, math.inf),
        # a fractional df has no finite sum; above the cap a call would sum
        # more than 5e6 terms, and at 1e300 it would never end
        (2.0, 2.5), (2.0, 190.5), (2.0, 10**7 + 2), (1.0, 1e300),
    ])
    def test_refused_arguments_raise_domain_error(self, x, df):
        # a NaN must be refused before it reaches the sum, where it would
        # come out as a NaN tail
        with pytest.raises(DomainError):
            chi_square_sf(x, df)

    @pytest.mark.parametrize("ratio", [0.5, 0.9, 1.0, 1.1, 2.0])
    @pytest.mark.parametrize("df", [2, 14, 190, 780, 3160])
    def test_even_df_matches_poisson_sum(self, df, ratio):
        x = ratio * df
        expected = oracles.chi2_sf_poisson(x, df)
        assert chi_square_sf(x, df) == pytest.approx(expected, rel=1e-11, abs=0.0)

    @pytest.mark.parametrize("ratio", [0.5, 0.9, 1.0, 1.1, 2.0])
    @pytest.mark.parametrize("df", [1, 15, 191, 781, 3161])
    def test_odd_df_matches_scipy(self, df, ratio):
        stats = pytest.importorskip("scipy.stats")
        x = ratio * df
        expected = float(stats.chi2.sf(x, df))
        assert chi_square_sf(x, df) == pytest.approx(expected, rel=1e-11, abs=0.0)

    @pytest.mark.parametrize("x", [0.3, 1.0, 4.0])
    def test_exponential_special_case(self, x):
        # df = 2 is the exponential distribution: sf(2x; 2) = e^{-x}, the
        # single term of the sum
        assert chi_square_sf(2.0 * x, 2) == pytest.approx(math.exp(-x), abs=1e-12)
