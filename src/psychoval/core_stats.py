"""Dense symmetric-matrix kernel and scalar statistics.

Everything downstream (reliability, adequacy checks, factor extraction)
rests on the handful of primitives in this module: Pearson correlation,
correlation matrices with per-pair missing handling, a round-robin Jacobi
eigensolver, eigen-based inversion / log-determinant, and the chi-square
upper-tail probability via the regularized incomplete gamma function.

All functions are pure; all variance-like quantities use the n-1
(sample) denominator.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    ConfigError,
    DomainError,
    InsufficientRows,
    LengthMismatch,
    NoConvergence,
    NotPositiveDefinite,
    SingularMatrix,
    ZeroVariance,
)
from .rng import check_real

# Relative cutoff below which an eigenvalue is treated as zero.
SINGULARITY_RTOL = 1e-10

# Largest |a - a.T|, relative to max(1, max |a|), that still counts as symmetric.
SYMMETRY_RTOL = 1e-8

# Jacobi sweep budget and off-diagonal convergence target.
JACOBI_MAX_SWEEPS = 100
JACOBI_TOL = 1e-12

# Fewest observations a correlation, an item or a pair may rest on.
MIN_ROWS = 3

# Incomplete gamma: absolute term tolerance and iteration cap.
GAMMA_TOL = 1e-12
GAMMA_MAX_ITER = 10_000


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
        a = as_float_array(self.values, "matrix")
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DomainError(f"expected a square matrix, got shape {a.shape}")
        # before the symmetry test, which a NaN passes
        if not np.isfinite(a).all():
            raise DomainError("matrix has a non-finite entry")
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
    """``values`` as a float array; DomainError if an entry is not a number."""
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        raise DomainError(f"{what} must be an array of numbers") from None


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

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.T


def item_labels(items: Sequence[str] | None, p: int) -> tuple[str, ...]:
    """The labels of p items, item1..itemp for None; ConfigError unless p given."""
    if items is None:
        return tuple(f"item{j + 1}" for j in range(p))
    if len(items) != p:
        raise ConfigError(f"{len(items)} item labels given for {p} items")
    return tuple(items)


def lead_signs(columns: np.ndarray) -> np.ndarray:
    """Per column, the sign ±1.0 making its largest-|entry| (lowest row on ties) positive."""
    lead = np.argmax(np.abs(columns), axis=0)
    return np.where(columns[lead, np.arange(columns.shape[1])] < 0.0, -1.0, 1.0)


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Sample Pearson correlation of two equal-length vectors (n >= MIN_ROWS).

    Raises LengthMismatch for unequal or too-short input, DomainError for a
    NaN or infinite value, and ZeroVariance, with ``position`` 0 or 1, when
    either vector is constant. The result is clipped to [-1, 1] to absorb
    last-bit rounding.
    """
    xv = as_float_array(x, "first vector")
    yv = as_float_array(y, "second vector")
    if xv.ndim != 1 or yv.ndim != 1 or xv.shape != yv.shape:
        raise LengthMismatch(f"vector lengths {xv.shape} and {yv.shape} differ")
    if xv.size < MIN_ROWS:
        raise LengthMismatch(f"need at least {MIN_ROWS} observations, got {xv.size}")
    if not (np.isfinite(xv).all() and np.isfinite(yv).all()):
        raise DomainError("pearson needs finite values")
    dx = xv - xv.mean()
    dy = yv - yv.mean()
    sxx = float(dx @ dx)
    syy = float(dy @ dy)
    if sxx == 0.0:
        raise ZeroVariance("first vector", position=0)
    if syy == 0.0:
        raise ZeroVariance("second vector", position=1)
    r = float(dx @ dy) / math.sqrt(sxx * syy)
    return min(1.0, max(-1.0, r))


def correlation_matrix(data: np.ndarray, items: Sequence[str] | None = None) -> SymMatrix:
    """Pearson correlation matrix of a respondents x items table.

    Missing cells are NaN, and an infinite cell raises DomainError naming its
    item. Each pair (i, j) is computed over the rows where
    both columns are present (pairwise deletion), which reduces to the plain
    formula when the table is complete. Each item must have at least
    MIN_ROWS observations and nonzero variance on its complete cases; each
    pair must have MIN_ROWS joint rows and nonzero variance on both sides,
    else the first failing pair in row-major order is reported.

    All pairs come from four masked Gram products of the presence mask W and
    the shifted data Y = a - c (zero where missing), with c the rounded
    available-case mean of each column: per pair, the joint count WᵀW, the
    sums YᵀW and (Y∘Y)ᵀW and the cross products YᵀY, combined as
    cov = n Σxy - Σx Σy and var = n Σx² - (Σx)². On integer responses with
    an integer shift every one of these is an exact integer (far below 2⁵³
    for Likert data), so R does not depend on summation order or memory
    layout, and the R of a column subset is bit-identical to slicing R. On
    other data the shift keeps the one-pass sums accurate (Chan, Golub and
    LeVeque 1983).
    """
    a = as_float_array(data, "table")
    if a.ndim != 2:
        raise DomainError(f"expected a 2-d table, got shape {a.shape}")
    n, p = a.shape
    names = item_labels(items, p)
    for j in np.flatnonzero(np.isinf(a).any(axis=0))[:1]:
        raise DomainError(f"item {names[j]!r} has an infinite value")

    present = ~np.isnan(a)
    w = present.astype(float)
    cnt = w.T @ w
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

    a0 = np.where(present, a, 0.0)
    shift = np.round(a0.sum(axis=0) / np.maximum(count, 1.0))
    y = a0 - shift * w
    sx = y.T @ w  # sx[i, j]: sum of item i over the rows shared with item j
    var = cnt * ((y * y).T @ w) - sx * sx
    cov = cnt * (y.T @ y) - sx * sx.T

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
def _round_robin(p: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Brent-Luk round-robin ordering of one Jacobi sweep over p indices.

    The n - 1 rounds of a round-robin tournament on n = p indices, or on
    n = p + 1 for odd p, where index p is padding. Each round holds n/2
    disjoint pairs (i, j), i < j, sorted; over a sweep every pair meets
    exactly once. Round 0 is (0, 1), (2, 3), ...
    """
    n = p + (p & 1)
    # circle method: seat 0 stays, the others move one seat per round;
    # labels are renamed so that round 0 pairs neighbours
    label = [0] * n
    for k in range(n // 2):
        label[k], label[n - 1 - k] = 2 * k, 2 * k + 1
    ring = list(range(1, n))
    rounds = []
    for r in range(n - 1):
        seats = [0] + ring[r:] + ring[:r]
        rounds.append(tuple(sorted(
            (min(label[x], label[y]), max(label[x], label[y]))
            for x, y in zip(seats[: n // 2], reversed(seats[n // 2:]))
        )))
    return tuple(rounds)


@functools.lru_cache(maxsize=None)
def _sweep_moves(p: int) -> tuple[np.ndarray, ...]:
    """Flat gather indices that carry the Jacobi work array between rounds.

    The work array stacks the padded n x n matrix on top of the p x n
    eigenvector matrix. During round r the pairs (i, j) of
    ``_round_robin(p)[r]`` sit at positions (m, m + h), h = n/2. Move r
    permutes rows 0..n-1 and all columns into the order of round r + 1;
    the last move returns to round 0, which holds the even indices, then
    the odd ones.
    """
    n = p + (p & 1)
    orders = [[i for i, _ in pairs] + [j for _, j in pairs] for pairs in _round_robin(p)]
    moves = []
    for r, order in enumerate(orders):
        position = {x: k for k, x in enumerate(order)}
        perm = np.array([position[x] for x in orders[(r + 1) % len(orders)]],
                        dtype=np.intp)
        rows = np.concatenate((perm, np.arange(n, n + p, dtype=np.intp)))
        move = (rows[:, None] * n + perm).reshape(-1)
        move.flags.writeable = False
        moves.append(move)
    return tuple(moves)


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
    to zero. A round's pairs sit at positions (m, m + h), so rows i and j
    are the two halves of the matrix rows, and columns i and j the two
    halves of every row; each update is C X + S X' over the stacked halves
    X, where X' swaps them, C = [c; c] and S = [-s; s]. The angles are
    Python floats, whose +, -, *, / and sqrt round as numpy's do, and only
    elementwise ufuncs touch the numbers, so every rotation is
    bit-reproducible. The rounds work on two buffers in turn, each move
    gathering the next round's order from one into the other; a and v
    enter in round 0's order and leave in the natural one.
    """
    p = a.shape[0]
    n = p + (p & 1)
    h = n // 2
    order = np.r_[0:p:2, 1:p:2]  # round 0 order; an odd p's padding stays at n - 1
    buffers = (np.zeros((n + p, n)), np.empty((n + p, n)))
    buffers[0][:p, :p] = a[np.ix_(order, order)]
    buffers[0][n:, :p] = v[:, order]
    views = [(work.reshape(-1), work[:n].reshape(2, h, n), work.reshape(n + p, 2, h))
             for work in buffers]
    gather, zero = _pivots(n)
    sqrt, copysign = math.sqrt, math.copysign
    cur = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(JACOBI_MAX_SWEEPS):
            if _off_diagonal_max(buffers[cur][:n]) < JACOBI_TOL:
                break
            for move in _sweep_moves(p):
                flat, rows, cols = views[cur]
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
                cur = 1 - cur
                np.take(flat, move, out=views[cur][0])
        else:
            # budget exhausted: the final sweep may still have converged
            off = _off_diagonal_max(buffers[cur][:n])
            if off >= JACOBI_TOL:
                raise NoConvergence(
                    f"Jacobi: {JACOBI_MAX_SWEEPS} sweeps exhausted "
                    f"(off-diagonal max {off:.3e})",
                    residual=off,
                )
    back = np.argsort(order)
    work = buffers[cur]
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


def _eigen_checked(A: SymMatrix) -> EigenDecomposition:
    eig = sym_eigen(A)
    lam = eig.eigenvalues
    largest = float(np.max(np.abs(lam))) if lam.size else 0.0
    smallest = float(np.min(np.abs(lam))) if lam.size else 0.0
    if lam.size == 0 or smallest < SINGULARITY_RTOL * largest or largest == 0.0:
        raise SingularMatrix(smallest)
    return eig


def inverse(A: SymMatrix) -> SymMatrix:
    """Inverse of a nonsingular symmetric matrix via its eigendecomposition.

    Raises SingularMatrix when the smallest |eigenvalue| falls below the
    relative singularity threshold.
    """
    eig = _eigen_checked(A)
    v = eig.eigenvectors
    inv = (v / eig.eigenvalues) @ v.T
    return SymMatrix(inv)


def log_determinant(A: SymMatrix) -> float:
    """ln|A| for a positive definite symmetric matrix, as the sum of ln(eigenvalue)."""
    lam = sym_eigen(A).eigenvalues
    largest = float(lam[0]) if lam.size else 0.0
    if lam.size == 0 or float(lam[-1]) <= SINGULARITY_RTOL * max(largest, 0.0):
        raise NotPositiveDefinite(
            f"smallest eigenvalue {float(lam[-1]) if lam.size else 0.0:.3e}"
        )
    return float(np.sum(np.log(lam)))


# --- incomplete gamma / chi-square -------------------------------------------

def _gamma_p_series(a: float, x: float) -> float:
    """Lower regularized gamma P(a, x) by series; accurate for x < a + 1."""
    if x == 0.0:
        return 0.0
    term = 1.0 / a
    total = term
    for n in range(1, GAMMA_MAX_ITER + 1):
        term *= x / (a + n)
        total += term
        if abs(term) < GAMMA_TOL:
            return total * math.exp(-x + a * math.log(x) - math.lgamma(a))
    raise NoConvergence("incomplete gamma series did not converge", residual=term)


def _gamma_q_contfrac(a: float, x: float) -> float:
    """Upper regularized gamma Q(a, x) by continued fraction (modified Lentz);
    accurate for x >= a + 1."""
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, GAMMA_MAX_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < GAMMA_TOL:
            return h * math.exp(-x + a * math.log(x) - math.lgamma(a))
    raise NoConvergence("incomplete gamma continued fraction did not converge")


def _check_gamma_args(a: float, x: float) -> None:
    check_real(a, "shape parameter")
    check_real(x, "argument")
    # written so that a NaN fails each test
    if not 0.0 < a < math.inf:
        raise DomainError(f"shape parameter must be positive and finite, got {a}")
    if not x >= 0.0:
        raise DomainError(f"argument must be nonnegative, got {x}")


def regularized_gamma_p(a: float, x: float) -> float:
    """Lower regularized incomplete gamma P(a, x), 0 < a < inf, 0 <= x <= inf."""
    _check_gamma_args(a, x)
    if x < a + 1.0:
        return _gamma_p_series(a, x)
    if x == math.inf:
        return 1.0
    return 1.0 - _gamma_q_contfrac(a, x)


def regularized_gamma_q(a: float, x: float) -> float:
    """Upper regularized incomplete gamma function Q(a, x) = 1 - P(a, x)."""
    _check_gamma_args(a, x)
    if x < a + 1.0:
        return 1.0 - _gamma_p_series(a, x)
    if x == math.inf:
        return 0.0
    return _gamma_q_contfrac(a, x)


def chi_square_sf(x: float, df: int) -> float:
    """Upper-tail probability P(chi2_df > x), monotone decreasing in x.

    x = 0 returns exactly 1.0 and x = inf returns 0.0; a NaN x raises
    DomainError, and an x or df that is not a number ConfigError.
    """
    check_real(x, "chi-square statistic")
    check_real(df, "degrees of freedom")
    if not x >= 0.0:
        raise DomainError(f"chi-square statistic must be nonnegative, got {x}")
    if df < 1:
        raise DomainError(f"degrees of freedom must be >= 1, got {df}")
    if x == 0.0:
        return 1.0
    return regularized_gamma_q(df / 2.0, x / 2.0)
