"""Dense symmetric-matrix kernel and scalar statistics.

Everything downstream (reliability, adequacy checks, factor extraction)
rests on the handful of primitives in this module: pairwise covariances
from exact Gram sums, correlation matrices with per-pair missing handling,
a round-robin Jacobi eigensolver, eigen-based inversion / log-determinant,
and the chi-square upper-tail probability of a whole-number df as a finite
sum of Poisson-type terms.

All functions are pure; all variance-like quantities are sample ones,
scaled by n(n - 1) where they come from the Gram sums.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence, Sized

import numpy as np

from .errors import (
    ConfigError,
    DomainError,
    InsufficientRows,
    NoConvergence,
    NotPositiveDefinite,
    SingularMatrix,
    ZeroVariance,
)
from .rng import check_real

# Relative cutoff below which an eigenvalue, a variance or a vector norm counts as zero.
SINGULARITY_RTOL = 1e-10

# Largest |a - a.T|, relative to max(1, max |a|), that still counts as symmetric.
SYMMETRY_RTOL = 1e-8

# Jacobi sweep budget and off-diagonal convergence target.
JACOBI_MAX_SWEEPS = 100
JACOBI_TOL = 1e-12

# Fewest observations a correlation, an item or a pair may rest on.
MIN_ROWS = 3

# Largest chi-square df: a tail sums df/2 terms.
CHI_SQUARE_MAX_DF = 10**7


@dataclass(frozen=True, eq=False)
class SymMatrix:
    """A dense symmetric matrix with exact symmetry enforced at construction.

    The stored array is read-only; ``values[i, j] == values[j, i]`` holds
    bit-exactly because construction averages the two triangles. A NaN or
    infinite entry raises DomainError, so no kernel taking a SymMatrix sees one.
    Equality compares values, so -0.0 equals 0.0; the class is not hashable.
    """

    values: np.ndarray

    def __post_init__(self):
        a = as_finite_array(self.values, "matrix")  # the symmetry test passes a NaN
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DomainError(f"expected a square matrix, got shape {a.shape}")
        check_symmetric(a, "matrix")
        sym = (a + a.T) / 2.0
        sym.flags.writeable = False
        object.__setattr__(self, "values", sym)

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    def __eq__(self, other):
        return isinstance(other, SymMatrix) and np.array_equal(self.values, other.values)


def as_float_array(values, what: str) -> np.ndarray:
    """``values`` as a float array; DomainError if an entry is not a number or is complex."""
    try:
        a = np.asarray(values)
        if a.dtype.kind == "c":  # the cast would drop the imaginary parts
            raise DomainError(f"{what} must be real, got complex numbers")
        return a.astype(float, copy=False)
    except (TypeError, ValueError):
        raise DomainError(f"{what} must be an array of numbers") from None


def as_finite_array(values, what: str) -> np.ndarray:
    """``as_float_array``, and DomainError if an entry is NaN or infinite."""
    a = as_float_array(values, what)
    if not np.isfinite(a).all():
        raise DomainError(f"{what} has a non-finite entry")
    return a


def check_symmetric(a: np.ndarray, what: str) -> None:
    """DomainError unless the finite square array a is symmetric to SYMMETRY_RTOL."""
    if a.size and np.max(np.abs(a - a.T)) > SYMMETRY_RTOL * max(1.0, np.max(np.abs(a))):
        raise DomainError(f"{what} is not symmetric")


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenpairs of a symmetric matrix, eigenvalues sorted descending.

    Column k of ``eigenvectors`` pairs with ``eigenvalues[k]``; columns are
    orthonormal and each is sign-fixed so its largest-magnitude entry is
    positive (ties broken by lowest index).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def item_labels(items: Sequence[str] | None, p: int) -> tuple[str, ...]:
    """The labels of p items, item1..itemp for None; ConfigError unless p given."""
    if items is None:
        return tuple(f"item{j + 1}" for j in range(p))
    if not isinstance(items, Sized):
        raise ConfigError(f"item labels must be a sequence, got {items!r}")
    if len(items) != p:
        raise ConfigError(f"{len(items)} item labels given for {p} items")
    return tuple(items)


def lead_signs(columns: np.ndarray) -> np.ndarray:
    """Per column, the sign ±1.0 making its largest-|entry| (lowest row on ties) positive."""
    lead = np.argmax(np.abs(columns), axis=0)
    return np.where(columns[lead, np.arange(columns.shape[1])] < 0.0, -1.0, 1.0)


def fmatmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b as elementwise products summed in a fixed order, with no BLAS call.

    The products are laid out C-ordered, so the sums over the shared index
    run in the same order whatever the memory layout of a and b, and the
    bits do not depend on the machine's BLAS kernel.
    """
    return np.multiply(a[:, :, None], b[None, :, :], order="C").sum(axis=1)


def gram_covariances(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Joint counts, variances and covariances of every pair of columns.

    ``a`` is a finite respondents x items array, NaN where a cell is missing.
    For each pair (i, j) over the rows where both are present, the three
    p x p results hold the joint count n, the variance of item i and the
    covariance, the last two scaled by n(n - 1).

    They come from four masked Gram products of the presence mask W and
    the shifted data Y = a - c (zero where missing), with c the rounded
    available-case mean of each column: per pair, the joint count WᵀW, the
    sums YᵀW and (Y∘Y)ᵀW and the cross products YᵀY, combined as
    cov = n Σxy - Σx Σy and var = n Σx² - (Σx)². On integer responses with
    an integer shift every one of these is an exact integer (far below 2⁵³
    for Likert data), so they depend neither on summation order, memory
    layout nor the BLAS kernel, and the sums of a column subset are a slice
    of the full ones. On other data the shift keeps the one-pass sums
    accurate (Chan, Golub and LeVeque 1983).
    """
    present = ~np.isnan(a)
    w = present.astype(float)
    cnt = w.T @ w
    a0 = np.where(present, a, 0.0)
    shift = np.round(a0.sum(axis=0) / np.maximum(np.diag(cnt), 1.0))
    y = a0 - shift * w
    sx = y.T @ w  # sx[i, j]: sum of item i over the rows shared with item j
    return cnt, cnt * ((y * y).T @ w) - sx * sx, cnt * (y.T @ y) - sx * sx.T


def correlation_matrix(data: np.ndarray, items: Sequence[str] | None = None) -> SymMatrix:
    """Pearson correlation matrix of a respondents x items table.

    Missing cells are NaN, and an infinite cell raises DomainError naming its
    item. Each pair (i, j) is computed over the rows where
    both columns are present (pairwise deletion), which reduces to the plain
    formula when the table is complete. Each item must have at least
    MIN_ROWS observations and nonzero variance on its complete cases; each
    pair must have MIN_ROWS joint rows and nonzero variance on both sides,
    else the first failing pair in row-major order is reported.

    The pairs come from the exact sums of ``gram_covariances``, so on integer
    responses R does not depend on summation order or memory layout, and the
    R of a column subset is bit-identical to slicing R.
    """
    a = as_float_array(data, "table")
    if a.ndim != 2:
        raise DomainError(f"expected a 2-d table, got shape {a.shape}")
    names = item_labels(items, a.shape[1])
    for j in np.flatnonzero(np.isinf(a).any(axis=0))[:1]:
        raise DomainError(f"item {names[j]!r} has an infinite value")

    cnt, var, cov = gram_covariances(a)
    count = np.diag(cnt)
    # fmin/fmax skip NaN; an all-NaN column gives inf != -inf
    constant = (np.fmin.reduce(a, axis=0, initial=np.inf)
                == np.fmax.reduce(a, axis=0, initial=-np.inf))
    for j in np.flatnonzero((count < MIN_ROWS) | constant):
        if count[j] < MIN_ROWS:
            raise InsufficientRows(
                f"item {names[j]!r} has {int(count[j])} observations, need {MIN_ROWS}"
            )
        raise ZeroVariance(f"item {names[j]!r}")

    bad = np.triu((cnt < MIN_ROWS) | (var <= 0.0) | (var.T <= 0.0), 1)
    for i, j in np.argwhere(bad)[:1]:
        pair = f"pair ({names[i]!r}, {names[j]!r})"
        joint = int(cnt[i, j])
        if joint < MIN_ROWS:
            raise InsufficientRows(f"{pair} has {joint} complete rows, need {MIN_ROWS}")
        which = names[i] if var[i, j] <= 0.0 else names[j]
        raise ZeroVariance(f"item {which!r} within {pair}")

    with np.errstate(divide="ignore", invalid="ignore"):
        # every off-diagonal var is positive by now; the diagonal is reset
        sd = np.sqrt(var)
        r = np.clip(cov / (sd * sd.T), -1.0, 1.0)
    np.fill_diagonal(r, 1.0)
    return SymMatrix(r)


@functools.lru_cache(maxsize=None)
def _seat_move(p: int) -> np.ndarray:
    """Flat gather that carries the Jacobi work array on to the next round.

    Position 0 stays, and every other index moves one seat along the ring
    h -> h+1 -> ... -> n-1 -> h-1 -> ... -> 1 -> h, h = n/2, in rows 0..n-1
    and in all columns (the circle method). From round 0, the even indices
    then the odd, n - 1 moves make a Brent-Luk sweep and return to round 0.
    """
    n = p + (p & 1)
    h = n // 2
    ring = list(range(h, n)) + list(range(h - 1, 0, -1))
    perm = np.arange(n, dtype=np.intp)
    perm[ring] = ring[-1:] + ring[:-1]  # the index at ring[k - 1] moves to ring[k]
    rows = np.concatenate((perm, np.arange(n, n + p, dtype=np.intp)))
    move = (rows[:, None] * n + perm).reshape(-1)
    move.flags.writeable = False
    return move


@functools.lru_cache(maxsize=None)
def _pivots(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices of a round's pivots in the split-half layout.

    Returns the 3 x h gather of a_ij, a_ii and a_jj of every pair, and the
    positions of a_ij and a_ji, which each round sets to zero.
    """
    h = n // 2
    i = np.arange(h, dtype=np.intp)
    j = i + h
    gather = np.stack((i * n + j, i * (n + 1), j * (n + 1)))
    zero = np.concatenate((i * n + j, j * n + i))
    gather.flags.writeable = zero.flags.writeable = False
    return gather, zero


def _off_diagonal_max(a: np.ndarray) -> float:
    off = np.abs(a)
    np.fill_diagonal(off, 0.0)
    return float(off.max())


def _jacobi_sweeps(a: np.ndarray, v: np.ndarray):
    """Rotate a to diagonal form in round-robin sweeps, accumulating v.

    Sweeps stop once the largest off-diagonal magnitude is below
    JACOBI_TOL; JACOBI_MAX_SWEEPS sweeps without that raise NoConvergence.

    Each round applies its disjoint rotations at once: rows of a first,
    then columns of a and v together, then the annihilated entries are set
    to zero. A round's pairs (i, j) sit at positions (k, k + h), i on top,
    so rows i and j are the two halves of the matrix rows, and columns i
    and j the two halves of every row; each update is C X + S X' over the
    stacked halves X, where X' swaps them, C = [c; c] and S = [-s; s]. The
    angles are Python floats, whose +, -, *, / and sqrt round as numpy's
    do, and only elementwise ufuncs touch the numbers, so every rotation is
    bit-reproducible. All rounds work on one array, which the one move of
    ``_seat_move(p)`` gathers in place after each round (numpy.take buffers
    its output); a and v enter in round 0's order and leave in the natural one.
    """
    p = a.shape[0]
    n = p + (p & 1)
    h = n // 2
    order = np.r_[0:p:2, 1:p:2]  # round 0 order; an odd p's padding stays at n - 1
    work = np.zeros((n + p, n))
    work[:p, :p] = a[np.ix_(order, order)]
    work[n:, :p] = v[:, order]
    flat, rows, cols = work.reshape(-1), work[:n].reshape(2, h, n), work.reshape(n + p, 2, h)
    gather, zero = _pivots(n)
    move = _seat_move(p)
    sqrt, copysign = math.sqrt, math.copysign
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(JACOBI_MAX_SWEEPS):
            if _off_diagonal_max(work[:n]) < JACOBI_TOL:
                break
            for _ in range(n - 1):
                cs, ns, ss = [], [], []
                for aij, aii, ajj in zip(*flat.take(gather).tolist()):
                    # rotation angles from the classic two-sided formula,
                    # t = sign(theta) / (|theta| + sqrt(theta^2 + 1)); for huge
                    # theta the square would overflow and t ~ 1/(2 theta). A
                    # zero pivot, and any pair with the padding index, gets
                    # the identity rotation.
                    if aij == 0.0:
                        t = 0.0
                    else:
                        theta = (ajj - aii) / (2.0 * aij)
                        if abs(theta) > 1e150:
                            t = 0.5 / theta
                        else:
                            t = 1.0 / (theta + copysign(sqrt(theta * theta + 1.0), theta))
                    c = 1.0 / sqrt(t * t + 1.0)
                    s = t * c
                    cs.append(c)
                    ns.append(-s)
                    ss.append(s)
                # row/column i takes c*i + (-s)*j, row/column j takes c*j + s*i,
                # the same bits as c*i - s*j and s*i + c*j
                cos, sin = np.array(cs + cs + ns + ss).reshape(2, 2, h)
                np.add(cos[:, :, None] * rows, sin[:, :, None] * rows[::-1], out=rows)
                np.add(cols * cos, cols[:, ::-1] * sin, out=cols)
                flat[zero] = 0.0
                np.take(flat, move, out=flat)
        else:
            # budget exhausted: the final sweep may still have converged
            off = _off_diagonal_max(work[:n])
            if off >= JACOBI_TOL:
                raise NoConvergence(
                    f"Jacobi: {JACOBI_MAX_SWEEPS} sweeps exhausted "
                    f"(off-diagonal max {off:.3e})",
                    residual=off,
                )
    back = np.argsort(order)
    return work[:p, :p][np.ix_(back, back)], work[n:, :p][:, back]


def sym_eigen(A: SymMatrix, basis: np.ndarray | None = None) -> EigenDecomposition:
    """Full eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Each sweep visits every off-diagonal pair once, in Brent-Luk
    round-robin order: a round holds floor(p/2) disjoint pairs, whose plane
    rotations are applied together by elementwise updates (no BLAS inside
    the sweep, so each rotation is bit-reproducible). Sweeps repeat until
    the largest off-diagonal magnitude drops below JACOBI_TOL. Deterministic:
    fixed sweep order, no pivoting heuristics, and a fixed sign convention
    on the eigenvectors.

    ``basis``, an orthogonal p x p matrix, warm-starts the sweeps from
    basis.T @ A @ basis; a basis close to A's eigenvectors (say, those of
    a matrix differing from A only on the diagonal) leaves a nearly
    diagonal start and few sweeps.

    Calls without ``basis`` keep their last result: asked for the same
    matrix again, they return the same (read-only) arrays without
    sweeping. The validation pipeline asks for each decomposition several
    times in a row, so one entry is enough.
    """
    p = A.dim
    if basis is None:
        return _cold_eigen(A.values.tobytes(), p)
    v = as_float_array(basis, "basis")
    if v.shape != (p, p):
        raise DomainError(f"basis shape {v.shape} does not match dimension {p}")
    a = v.T @ A.values @ v
    return _diagonalize((a + a.T) / 2.0, v)


@functools.lru_cache(maxsize=1)
def _cold_eigen(values: bytes, p: int) -> EigenDecomposition:
    """sym_eigen started from the identity, memoised on the matrix bytes.

    The key is the exact bytes, not SymMatrix equality, which takes -0.0
    for 0.0. Exceptions are not cached.
    """
    return _diagonalize(np.frombuffer(values).reshape(p, p), np.eye(p))


def _diagonalize(a: np.ndarray, v: np.ndarray) -> EigenDecomposition:
    """Sweep a to diagonal form, accumulating v; sort and sign the eigenpairs."""
    p = a.shape[0]
    if p > 1:
        a, v = _jacobi_sweeps(a, v)

    eigenvalues = np.diag(a).copy()
    order = np.argsort(-eigenvalues, kind="stable")
    eigenvalues = eigenvalues[order]
    vectors = v[:, order]

    if p:
        vectors *= lead_signs(vectors)
    eigenvalues.flags.writeable = False
    vectors.flags.writeable = False
    return EigenDecomposition(eigenvalues=eigenvalues, eigenvectors=vectors)


def inverse(A: SymMatrix) -> SymMatrix:
    """Inverse of a nonsingular symmetric matrix via its eigendecomposition.

    Raises SingularMatrix when the smallest |eigenvalue| falls below the
    relative singularity threshold.
    """
    eig = sym_eigen(A)
    magnitudes = np.abs(eig.eigenvalues)
    smallest = float(magnitudes.min()) if magnitudes.size else 0.0
    if smallest == 0.0 or smallest < SINGULARITY_RTOL * float(magnitudes.max()):
        raise SingularMatrix(smallest)
    v = eig.eigenvectors
    return SymMatrix((v / eig.eigenvalues) @ v.T)


def log_determinant(A: SymMatrix) -> float:
    """ln|A| for a positive definite symmetric matrix, as the sum of ln(eigenvalue)."""
    lam = sym_eigen(A).eigenvalues
    largest = float(lam[0]) if lam.size else 0.0
    if lam.size == 0 or float(lam[-1]) <= SINGULARITY_RTOL * max(largest, 0.0):
        raise NotPositiveDefinite(
            f"smallest eigenvalue {float(lam[-1]) if lam.size else 0.0:.3e}"
        )
    return float(np.sum(np.log(lam)))


def cholesky_lower(a: np.ndarray) -> np.ndarray:
    """Lower-triangular Cholesky factor; fails on non-positive pivots."""
    a = np.asarray(a, dtype=float)
    m = a.shape[0]
    L = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1):
            s = a[i, j] - (L[i, :j] * L[j, :j]).sum()
            if i == j:
                if s <= 0.0:
                    raise NotPositiveDefinite(
                        f"pivot {s:.3e} at row {i} during Cholesky"
                    )
                L[i, j] = math.sqrt(s)
            else:
                L[i, j] = s / L[j, j]
    return L


def cholesky_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with a x = b for a symmetric positive definite a, read from its lower triangle.

    Forward then back substitution on ``cholesky_lower(a)``, with sums of
    elementwise products only, so no BLAS or LAPACK call touches the
    numbers; NotPositiveDefinite from the factorization.
    """
    L = cholesky_lower(a)
    n = L.shape[0]
    y = np.zeros(n)
    for i in range(n):
        y[i] = (b[i] - (L[i, :i] * y[:i]).sum()) / L[i, i]
    x = np.zeros(n)
    for i in range(n - 1, -1, -1):
        x[i] = (y[i] - (L[i + 1:, i] * x[i + 1:]).sum()) / L[i, i]
    return x


# --- chi-square tail --------------------------------------------------------

def chi_square_sf(x: float, df: int) -> float:
    """Upper-tail probability P(chi2_df > x) of a whole-number df, monotone decreasing in x.

    The finite sum of exp(-lam) lam^a / Gamma(a + 1), lam = x/2, over a = df/2 - 1,
    df/2 - 2, ... down to 0 for even df, and down to 1/2 plus erfc(sqrt(lam))
    for odd df (Abramowitz and Stegun 1964, 26.4.4-26.4.5); ``math.fsum``
    adds the libm terms exactly rounded. A call costs df/2 terms, hence the
    cap CHI_SQUARE_MAX_DF.

    x = 0 returns exactly 1.0 and x = inf 0.0. A NaN or negative x and a NaN,
    infinite, fractional or too large df raise DomainError, and an x or df
    that is not a number ConfigError.
    """
    check_real(x, "chi-square statistic")
    check_real(df, "degrees of freedom")
    if not x >= 0.0:
        raise DomainError(f"chi-square statistic must be nonnegative, got {x}")
    # written so that a NaN or an infinity fails before int() sees it
    if not 1 <= df <= CHI_SQUARE_MAX_DF or int(df) != df:
        raise DomainError(
            f"degrees of freedom must be a whole number in [1, {CHI_SQUARE_MAX_DF}], got {df}")
    df, lam = int(df), x / 2.0
    if lam == 0.0:  # x = 0, or a subnormal x whose half rounds to 0
        return 1.0
    if lam == math.inf:
        return 0.0
    log_lam = math.log(lam)
    halves = (df / 2 - i for i in range(1, df // 2 + 1))
    terms = (math.exp(a * log_lam - lam - math.lgamma(a + 1.0)) for a in halves)
    odd = (math.erfc(math.sqrt(lam)),) if df % 2 else ()
    return math.fsum(itertools.chain(terms, odd))
