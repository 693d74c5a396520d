"""Exploratory factor analysis: extraction, retention, rotation, assignment.

Extraction offers principal components (all variance) and principal axis
factoring (shared variance only, iterated communalities). Retention uses
the eigenvalue-greater-than-one rule or a fixed count. Rotation offers
varimax (orthogonal, pairwise Kaiser-normalized sweeps) and direct oblimin
(oblique, gradient projection). ``fit_efa`` chains these and a canonical
form, so identical inputs yield identical output bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .core_stats import (
    SINGULARITY_RTOL,
    SymMatrix,
    as_finite_array,
    cholesky_solve,
    fmatmul,
    inverse,
    item_labels,
    lead_signs,
    sym_eigen,
)
from .errors import (
    BadFactorCount, ConfigError, DomainError, NoConvergence, NotPositiveDefinite, TooFewItems,
    stage,
)
from .rng import as_int, check_real

EXTRACTIONS = ("paf", "pca")
ROTATIONS = ("oblimin", "varimax", "none")
PAF_TOL = 1e-4
PAF_MAX_ITER = 1000
# PAF iterates on b = m + PAF_RITZ_EXTRA Ritz vectors once p >= 2b
PAF_RITZ_EXTRA = 4
# the subspace step gives a run up after this many passes (set for the
# default PAF_TOL: pairwise-prune's runs at seeds 1, 3 and 7 stop within 9)
PAF_RITZ_MAX_ITER = 50
# and stops only on top-m Ritz vectors within PAF_RITZ_ANGLE * PAF_TOL of
# an invariant subspace (pairwise-prune's stops there: at most 0.097)
PAF_RITZ_ANGLE = 0.1
VARIMAX_TOL = 1e-8
VARIMAX_MAX_SWEEPS = 100
OBLIMIN_GTOL = 1e-6
OBLIMIN_MAX_ITER = 1000
OBLIMIN_MAX_HALVINGS = 11
ASSIGN_CUTOFF = 0.4


@dataclass(frozen=True, eq=False)
class FactorSolution:
    """A (possibly rotated) factor solution over a named item set.

    ``loadings`` is the p x m pattern matrix, ``eigenvalues`` the full
    length-p spectrum of the input correlation matrix (the spectrum the
    retention rule sees), ``phi`` the m x m factor correlation matrix
    (identity for orthogonal solutions). ``structure`` is derived as
    loadings @ phi, so pattern and structure coincide exactly when phi is
    the identity, and ``communalities`` as the row sums of loadings *
    structure, the diagonal of loadings @ phi @ loadings'. A non-finite
    entry raises DomainError.
    """

    items: tuple[str, ...]
    extraction: str  # "pca" | "paf"
    rotation: str  # "none" | "varimax" | "oblimin(<gamma>)"
    loadings: np.ndarray
    eigenvalues: np.ndarray
    phi: np.ndarray
    convergence: dict = field(default_factory=dict)
    heywood: bool = False
    structure: np.ndarray = field(init=False, repr=False)
    communalities: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        L = _frozen(as_finite_array(self.loadings, "loadings"))
        lam = _frozen(as_finite_array(self.eigenvalues, "eigenvalues"))
        phi = _frozen(as_finite_array(self.phi, "phi"))
        if L.ndim != 2:
            raise DomainError(f"expected a 2-d loadings matrix, got shape {L.shape}")
        p, m = L.shape
        if p == 0:
            raise DomainError("a factor solution needs at least one item")
        if m == 0:
            raise DomainError("a factor solution needs at least one factor")
        if len(self.items) != p or lam.shape != (p,):
            raise DomainError("solution fields disagree on the item count")
        if phi.shape != (m, m):
            raise DomainError("phi shape does not match the factor count")
        object.__setattr__(self, "items", tuple(self.items))
        object.__setattr__(self, "loadings", L)
        object.__setattr__(self, "eigenvalues", lam)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "structure", _frozen(L @ phi))
        object.__setattr__(self, "communalities", _frozen((self.structure * L).sum(axis=1)))

    @property
    def p(self) -> int:
        return self.loadings.shape[0]

    @property
    def m(self) -> int:
        return self.loadings.shape[1]

    @property
    def variance_explained(self) -> np.ndarray:
        """Per-factor proportion of total variance: column SSQ over p."""
        return (self.loadings**2).sum(axis=0) / self.p


@dataclass(frozen=True)
class ItemAssignment:
    item: str
    factor: int | None  # 0-based factor index; None when unassigned
    status: str  # "assigned" | "cross_loaded" | "unassigned"


def _frozen(a: np.ndarray) -> np.ndarray:
    a = a.copy()
    a.flags.writeable = False
    return a


def _check_m(m: int, p: int) -> None:
    if not 1 <= as_int(m, "factor count") <= p:
        raise BadFactorCount(f"factor count {m} outside [1, {p}]")


def extract_pca(R: SymMatrix, m: int, items=None) -> FactorSolution:
    """Principal component extraction: loading column k = sqrt(lambda_k) v_k."""
    p = R.dim
    names = item_labels(items, p)
    _check_m(m, p)
    eig = sym_eigen(R)
    lam = np.clip(eig.eigenvalues[:m], 0.0, None)
    loadings = eig.eigenvectors[:, :m] * np.sqrt(lam)
    return FactorSolution(
        items=names,
        extraction="pca",
        rotation="none",
        loadings=loadings,
        eigenvalues=eig.eigenvalues,
        phi=np.eye(m),
        convergence={"iterations": 0, "delta": 0.0},
    )


def extract_paf(R: SymMatrix, m: int, items=None) -> FactorSolution:
    """Principal axis factoring with iterated communalities.

    Initial communalities are squared multiple correlations
    1 - 1/(R^-1)_jj. Each pass (``_paf_passes``) puts the communalities h
    on diag(R), takes the top m eigenpairs of that reduced matrix, clamps
    negative eigenvalues to zero, and recomputes communalities f(h) as row
    sums of squared loadings; once max |f(h) - h| < PAF_TOL it returns
    f(h) with its loadings. A communality exceeding 1 is clamped to 1 with
    the row rescaled (Heywood case, flagged, never silent). Below
    Ledermann's bound, (p - m)^2 <= p + m, every pass is plain. Above it,
    a pass of the full step takes Newton's step (``_newton``) on
    f(h) - h, which converges quadratically, and any other pass starts the
    next one from the Anderson(1) step (``_anderson``) instead of f(h),
    which about halves the plain passes: a subspace pass, a pass that
    clamps a row, and one where Newton's step is not defined or its
    Cholesky guard fails; when that guard fails right after a Newton step,
    the step is undone. The stop rule is the same for all of them.

    The two eigen steps differ only in these ways. With p >= 2b items,
    b = m + PAF_RITZ_EXTRA, the passes first take the subspace step
    (``_ritz_step``): a b x b Ritz matrix per pass, started from R's top b
    eigenvectors, at most PAF_RITZ_MAX_ITER passes, and a stop stands
    only if the top m Ritz vectors are within PAF_RITZ_ANGLE * PAF_TOL of
    an invariant subspace (p >= 2b also puts it above Ledermann's bound).
    A run it gives up starts over from the SMC communalities with the full
    step (``_full_step``), so it gives that step's bits: all p eigenpairs
    of the p x p reduced matrix per pass (which Newton's step needs),
    warm-started from the last pass's eigenvectors, at most PAF_MAX_ITER
    passes, every stop standing; a run it gives up raises NoConvergence.
    ``convergence["iterations"]`` counts both.
    """
    p = R.dim
    names = item_labels(items, p)
    _check_m(m, p)
    spectrum = sym_eigen(R)
    smc = 1.0 - 1.0 / np.diag(inverse(R).values)
    h2 = np.clip(smc, 0.0, 1.0)
    b = m + PAF_RITZ_EXTRA
    fit, passes = None, 0
    if p >= 2 * b:
        block = spectrum.eigenvectors[:, :b]
        budget = min(PAF_RITZ_MAX_ITER, PAF_MAX_ITER)
        fit, passes, _ = _paf_passes(R.values, h2, m, _ritz_step, block, budget)
    if fit is None:
        fit, full_passes, delta = _paf_passes(R.values, h2, m, _full_step, None, PAF_MAX_ITER)
        if fit is None:
            raise NoConvergence(
                f"principal axis factoring: max |delta h2| = {delta:.3e} "
                f"after {PAF_MAX_ITER} iterations",
                residual=delta,
            )
        passes += full_passes
    loadings, heywood, delta = fit
    return FactorSolution(
        items=names,
        extraction="paf",
        rotation="none",
        loadings=loadings,
        eigenvalues=spectrum.eigenvalues,
        phi=np.eye(m),
        convergence={"iterations": passes, "delta": delta},
        heywood=heywood,
    )


def _paf_passes(values: np.ndarray, h2: np.ndarray, m: int, step, vectors, budget: int):
    """At most ``budget`` PAF passes from h2: (fit or None, passes, last delta).

    ``step(reduced, vectors, m)`` gives eigenvalues (descending),
    eigenvectors started from the last pass's ``vectors`` and the sine of
    their angle to an invariant subspace, or None to give the run up. The
    run is also given up by the budget or by a second stop whose angle
    fails the check; the first such stop takes one plain pass, which
    refines the vectors (a subspace step tracks the eigenvalues largest in
    magnitude, so on an over-extracted model, whose m-th eigenvalue is
    small and close to the next, the block lags the matrix it stops on).
    Above Ledermann's bound, a pass whose step gave all p eigenpairs and
    clamped no row takes Newton's step if it has one, and the Anderson
    history restarts after each Newton step taken. A Newton step that
    lands where the next pass's Cholesky guard fails, clamped or not, is
    undone: that pass is dropped (it sets no Heywood flag) and the run
    takes the Anderson step from the point before the Newton step. An
    over-extracted model can have several fixed points, and from where
    I - J is barely positive definite the step can cross into another
    basin or into a region where the passes stall.
    """
    p = values.shape[0]
    mix = (p - m) ** 2 > p + m
    reduced = values.copy()
    heywood = refined = False
    last = undo = None
    passes, delta = 0, math.inf
    for passes in range(1, budget + 1):
        np.fill_diagonal(reduced, h2)
        found = step(reduced, vectors, m)
        if found is None:
            return None, passes - 1, delta
        lam, vectors, angle = found
        loadings, new_h2, clamped = _paf_loadings(lam, vectors, m)
        delta = float(np.max(np.abs(new_h2 - h2)))
        newton = None
        if mix and lam.size == p and delta >= PAF_TOL:
            try:
                newton = _newton(h2, new_h2, lam, vectors, m)
            except NotPositiveDefinite:
                if undo is not None:
                    (h2, last), undo = _anderson(*undo), None
                    continue
        heywood = heywood or clamped
        if delta < PAF_TOL:
            if angle < PAF_RITZ_ANGLE * PAF_TOL:
                return (loadings, heywood, delta), passes, delta
            if refined:
                return None, passes, delta
            refined, last = True, None
        if newton is not None and not clamped:
            undo, h2, last = (h2, new_h2, last), newton, None
        else:
            undo = None
            h2, last = _anderson(h2, new_h2, last) if mix else (new_h2, None)
    return None, passes, delta


def _full_step(a: np.ndarray, basis, m: int):
    """One full eigen step on a, warm-started from the last pass's ``basis``.

    Only the diagonal changed, so the basis nearly diagonalizes a; the
    angle is 0, so every stop stands.
    """
    eig = sym_eigen(SymMatrix(a), basis=basis)
    return eig.eigenvalues, eig.eigenvectors, 0.0


def _newton(h2: np.ndarray, f: np.ndarray, lam: np.ndarray, vectors: np.ndarray, m: int):
    """Newton's step on g(h) = f(h) - h from the full spectrum of the reduced matrix at h.

    f is the gradient of phi(h) = 1/2 sum_{k<=m} lambda_k(h)^2, so its
    Jacobian J (``_paf_jacobian``) is symmetric, and (I - J) delta = g is
    solved by Cholesky. Returns h + delta, or None when lambda_m <= 0 or
    lambda_m = lambda_m+1 (J is not defined) or when h + delta leaves
    [0, 1]; raises NotPositiveDefinite when I - J is not positive definite
    (psi = phi - |h|^2 / 2 is not concave at h, and there the plain pass
    need not contract).
    """
    if not lam[m - 1] > max(lam[m], 0.0):
        return None
    delta = cholesky_solve(np.eye(h2.size) - _paf_jacobian(lam, vectors, m), f - h2)
    h2 = h2 + delta
    return h2 if 0.0 <= h2.min() and h2.max() <= 1.0 else None


def _paf_jacobian(lam: np.ndarray, vectors: np.ndarray, m: int) -> np.ndarray:
    """J = df/dh of f(h) = diag(V_m Lambda_m V_m') from the full spectrum at h.

    With d lambda_k / dh_j = v_jk^2 and d v_k / dh_j = sum_{l != k} v_l
    v_jl v_jk / (lambda_k - lambda_l), J = sum_{k<=m} (v_k v_k') o (V W_k
    V'), where W_k = diag(w_k1, ..., w_kp) with w_kl = 1 for l <= m (these
    terms sum to (V_m V_m') o (V_m V_m')) and 2 lambda_k / (lambda_k -
    lambda_l) for l > m. Needs lambda_m > lambda_m+1. Products are summed
    by ``fmatmul``, one p x p x p array per factor.
    """
    jac = np.zeros((lam.size, lam.size))
    for k in range(m):
        w = np.ones(lam.size)
        w[m:] = 2.0 * lam[k] / (lam[k] - lam[m:])
        v = vectors[:, k]
        jac += fmatmul(vectors * w, vectors.T) * np.outer(v, v)
    return jac


def _anderson(h2: np.ndarray, f: np.ndarray, last):
    """Anderson(1) step from h2 and its image f: (next h2, (g, f) for the next call).

    With g = f - h2 and the last call's (g_prev, f_prev), the next iterate
    is f - gamma (f - f_prev) clipped to [0, 1], where gamma = <dg, g> /
    <dg, dg> and dg = g - g_prev (Walker & Ni 2011); with no last call, or
    dg = 0, it is f, the plain pass.
    """
    g = f - h2
    if last is not None:
        g_prev, f_prev = last
        dg = g - g_prev
        dd = float((dg * dg).sum())
        if dd > 0.0:
            gamma = float((dg * g).sum()) / dd
            return np.clip(f - gamma * (f - f_prev), 0.0, 1.0), (g, f)
    return f, (g, f)


def _paf_loadings(lam: np.ndarray, vectors: np.ndarray, m: int):
    """Loadings of the top m eigenpairs, Heywood rows clamped: (loadings, h2, clamped)."""
    loadings = vectors[:, :m] * np.sqrt(np.clip(lam[:m], 0.0, None))
    h2 = (loadings**2).sum(axis=1)
    over = h2 > 1.0
    if not np.any(over):
        return loadings, h2, False
    loadings[over] /= np.sqrt(h2[over])[:, None]
    return loadings, np.minimum(h2, 1.0), True


def _ritz_step(a: np.ndarray, block: np.ndarray, m: int):
    """One subspace step of a on an orthonormal p x b block, then Rayleigh-Ritz.

    Returns the Ritz values (descending), the sign-fixed Ritz vectors and
    |a V - V Theta|_F / (theta_m - theta_m+1) over the top m of them, which
    bounds the sine of their angle to an invariant subspace of a
    (Davis-Kahan, with theta_m+1 standing in for the rest of a's spectrum);
    or None when Gram-Schmidt finds a column of a @ block in the span of
    the earlier ones.
    """
    q = _orthonormalize(fmatmul(a, block))
    if q is None:
        return None
    aq = fmatmul(a, q)
    # SymMatrix averages the two triangles of the rounded Ritz matrix
    eig = sym_eigen(SymMatrix(fmatmul(q.T, aq)))
    theta = eig.eigenvalues
    vectors = fmatmul(q, eig.eigenvectors)
    r = fmatmul(aq, eig.eigenvectors[:, :m]) - vectors[:, :m] * theta[:m]
    gap = theta[m - 1] - theta[m]
    angle = math.sqrt((r * r).sum()) / gap if gap > 0.0 else math.inf
    return theta, vectors * lead_signs(vectors), angle


def _orthonormalize(z: np.ndarray) -> np.ndarray | None:
    """z's columns made orthonormal by modified Gram-Schmidt, run twice.

    None when a column's norm after projection falls to SINGULARITY_RTOL
    of its norm before it.
    """
    rows = np.array(z.T)  # one vector per contiguous row
    for _ in range(2):
        before = np.sqrt((rows * rows).sum(axis=1))
        for j in range(rows.shape[0]):
            norm = math.sqrt((rows[j] * rows[j]).sum())
            if not norm > SINGULARITY_RTOL * before[j]:
                return None
            rows[j] /= norm
            rest = rows[j + 1 :]
            rest -= (rest * rows[j]).sum(axis=1)[:, None] * rows[j]
    return rows.T


def retain_kaiser(eigenvalues) -> int:
    """Count of eigenvalues strictly above 1, forced to at least 1.

    The caller can detect the forced case by checking that no eigenvalue
    exceeds 1 even though 1 factor is retained.
    """
    lam = as_finite_array(eigenvalues, "eigenvalues")
    return max(int(np.sum(lam > 1.0)), 1)


def fixed_count(retention: str) -> int | None:
    """Parse a retention rule: None for "kaiser", k for "fixed:<k>" spelled as str(k)."""
    if not isinstance(retention, str):
        raise ConfigError(f"retention must be a string, got {retention!r}")
    if retention == "kaiser":
        return None
    head, sep, tail = retention.partition(":")
    if head == "fixed" and sep:
        try:
            k = int(tail)
        except ValueError:
            k = None
        if k is None or str(k) != tail:
            raise ConfigError(f"retention {retention!r} needs an integer count")
        if k < 1:
            raise ConfigError("fixed retention count must be at least 1")
        return k
    raise ConfigError(f"unknown retention rule {retention!r}")


def check_options(
    extraction: str, retention: str, rotation: str, gamma: float
) -> int | None:
    """Reject a bad EFA option; returns the fixed count, None for kaiser."""
    if extraction not in EXTRACTIONS:
        raise ConfigError(f"unknown extraction {extraction!r}")
    if rotation not in ROTATIONS:
        raise ConfigError(f"unknown rotation {rotation!r}")
    check_real(gamma, "gamma")
    if not math.isfinite(gamma):
        raise ConfigError("gamma must be finite")
    return fixed_count(retention)


def check_cutoff(cutoff: float) -> None:
    """Reject a loading cutoff outside (0, 1), NaN included."""
    check_real(cutoff, "loading_cutoff")
    if not 0.0 < cutoff < 1.0:
        raise ConfigError("loading_cutoff must lie in (0, 1)")


def fit_efa(
    R: SymMatrix,
    items=None,
    extraction: str = "paf",
    retention: str = "kaiser",
    rotation: str = "oblimin",
    gamma: float = 0.0,
) -> FactorSolution:
    """Retention, extraction, rotation and canonical form on one matrix.

    Bad names and values raise an untagged ConfigError; domain errors
    carry the stage that raised them ("retention", "extraction" or
    "rotation"). Below 2 items there is no factor structure to fit, so it
    raises TooFewItems (tagged "retention"). The solution's eigenvalues
    are the full spectrum of R that the retention rule saw.
    """
    fixed = check_options(extraction, retention, rotation, gamma)
    items = item_labels(items, R.dim)
    with stage("retention"):
        if R.dim < 2:
            raise TooFewItems(f"efa needs >= 2 items, got {R.dim}")
        # decomposed under fixed:k too, so the per-run sym_eigen call count
        # that perfbench checks does not depend on the rule
        spectrum = sym_eigen(R).eigenvalues
        m = retain_kaiser(spectrum) if fixed is None else fixed
        if m > R.dim:
            raise BadFactorCount(f"fixed retention {m} exceeds {R.dim} items")
    with stage("extraction"):
        extract = extract_paf if extraction == "paf" else extract_pca
        solution = extract(R, m, items=items)
    with stage("rotation"):
        if rotation == "varimax":
            solution = rotate_varimax(solution)
        elif rotation == "oblimin":
            solution = rotate_oblimin(solution, gamma=gamma)
    return sort_and_sign(solution)


def varimax_criterion(loadings: np.ndarray, normalize: bool = True) -> float:
    """Raw varimax criterion: summed per-factor variance of squared loadings.

    With Kaiser normalization (the default, matching the optimizer) rows
    are scaled to unit communality first; a non-finite loading raises DomainError.
    """
    L = as_finite_array(loadings, "loadings")
    if L.ndim != 2:
        raise DomainError(f"expected a 2-d loadings matrix, got shape {L.shape}")
    if L.shape[0] == 0:
        raise DomainError("loadings matrix has no rows")
    if normalize:
        h = np.sqrt((L**2).sum(axis=1))
        L = L / np.where(h > 0, h, 1.0)[:, None]
    p = L.shape[0]
    sq = L**2
    return float(((sq**2).sum(axis=0) - sq.sum(axis=0) ** 2 / p).sum() / p)


def _check_orthogonal(solution: FactorSolution, rotation: str) -> None:
    """DomainError unless phi is the identity: both rotations treat the loadings as orthogonal."""
    if not np.array_equal(solution.phi, np.eye(solution.m)):
        raise DomainError(f"{rotation} rotates orthogonal solutions, "
                          f"got one with factor correlations ({solution.rotation})")


def rotate_varimax(solution: FactorSolution) -> FactorSolution:
    """Orthogonal varimax rotation by pairwise Kaiser-normalized sweeps.

    Each factor pair is rotated by the closed-form angle maximizing the
    pair criterion; sweeps repeat until the relative criterion improvement
    drops below VARIMAX_TOL, and VARIMAX_MAX_SWEEPS sweeps without that
    raise NoConvergence. A one-factor solution is returned unchanged with
    rotation still recorded as none; an oblique one raises DomainError.
    """
    _check_orthogonal(solution, "varimax")
    if solution.m < 2:
        return solution
    L = solution.loadings.copy()
    p, m = L.shape
    h = np.sqrt((L**2).sum(axis=1))
    scale = np.where(h > 0, h, 1.0)
    L /= scale[:, None]
    crit = varimax_criterion(L, normalize=False)
    sweeps = 0
    for sweeps in range(1, VARIMAX_MAX_SWEEPS + 1):
        for i in range(m - 1):
            for j in range(i + 1, m):
                x = L[:, i]
                y = L[:, j]
                u = x * x - y * y
                v = 2.0 * x * y
                a = u.sum()
                b = v.sum()
                c = (u * u - v * v).sum()
                d = 2.0 * (u * v).sum()
                num = d - 2.0 * a * b / p
                den = c - (a * a - b * b) / p
                angle = 0.25 * math.atan2(num, den)
                if abs(angle) < 1e-15:
                    continue
                cs, sn = math.cos(angle), math.sin(angle)
                rot = np.array([[cs, -sn], [sn, cs]])
                L[:, [i, j]] = L[:, [i, j]] @ rot
        new_crit = varimax_criterion(L, normalize=False)
        improvement = new_crit - crit
        crit = new_crit
        if improvement <= VARIMAX_TOL * max(abs(new_crit), 1e-15):
            break
    else:
        raise NoConvergence(
            f"varimax: criterion still improving after {VARIMAX_MAX_SWEEPS} sweeps",
            residual=improvement,
        )
    L *= scale[:, None]
    rotated = replace(
        solution,
        rotation="varimax",
        loadings=L,
        phi=np.eye(m),
        convergence={"sweeps": sweeps, "criterion": crit},
    )
    return sort_and_sign(rotated)


def rotate_oblimin(solution: FactorSolution, gamma: float = 0.0) -> FactorSolution:
    """Direct oblimin rotation by oblique gradient projection.

    Minimizes the oblimin criterion tr(L2' X) / 4 with L2 = L * L and
    X = (I - gamma 11'/p) L2 (11' - I), whose first factor is applied as a
    column-mean shift (gamma = 0 is direct quartimin), over oblique
    rotations with unit-length columns by projected gradient steps with
    doubling/backtracking line search, until the projected gradient norm
    drops below OBLIMIN_GTOL; OBLIMIN_MAX_ITER steps without that raise
    NoConvergence. Returns the pattern matrix, phi = T'T and structure =
    pattern @ phi; the reproduced matrix pattern @ phi @ pattern' +
    diag(uniqueness) does not change. It starts from orthogonal loadings,
    so an oblique solution raises DomainError.
    """
    _check_orthogonal(solution, "oblimin")
    if solution.m < 2:
        return solution
    A = solution.loadings
    p, m = A.shape
    neutral = np.ones((m, m)) - np.eye(m)

    def criterion(L: np.ndarray) -> tuple[float, np.ndarray]:
        # an overflow shows as a non-finite gradient norm, which stops the loop
        with np.errstate(over="ignore", invalid="ignore"):
            L2 = L * L
            X = (L2 - gamma * L2.mean(axis=0)) @ neutral
            return float((L2 * X).sum() / 4.0), L * X

    T = np.eye(m)
    Ti = np.eye(m)
    L = A.copy()
    f, Gq = criterion(L)
    G = -(L.T @ Gq @ Ti).T
    al = 1.0
    s = math.inf
    for iterations in range(OBLIMIN_MAX_ITER):
        Gp = G - T * (T * G).sum(axis=0)
        with np.errstate(over="ignore"):  # an overflow shows as s = inf
            s = float(np.sqrt((Gp * Gp).sum()))
        if s < OBLIMIN_GTOL or not math.isfinite(s):  # no step recovers from NaN or inf
            break
        al *= 2.0
        Tt, Tti, Lt, ft = T, Ti, L, f
        for _ in range(OBLIMIN_MAX_HALVINGS):
            X = T - al * Gp
            norms = np.sqrt((X * X).sum(axis=0))
            if np.any(norms == 0.0):
                al /= 2.0
                continue
            Tt = X / norms
            try:
                Tti = np.linalg.inv(Tt)
            except np.linalg.LinAlgError:
                al /= 2.0
                continue
            Lt = A @ Tti.T
            ft, Gq = criterion(Lt)
            # sufficient-decrease condition of the projection algorithm
            if ft < f - 0.5 * s * s * al:
                break
            al /= 2.0
        T, Ti, L, f = Tt, Tti, Lt, ft
        G = -(L.T @ Gq @ Ti).T
    else:
        iterations = OBLIMIN_MAX_ITER
    if not s < OBLIMIN_GTOL:
        raise NoConvergence(
            f"oblimin: gradient norm {s:.3e} after {iterations} iterations",
            residual=s,
        )
    rotated = replace(
        solution,
        rotation=f"oblimin({gamma:g})",
        loadings=L,
        phi=T.T @ T,
        convergence={"iterations": iterations, "gradient_norm": s},
    )
    return sort_and_sign(rotated)


def sort_and_sign(solution: FactorSolution) -> FactorSolution:
    """Canonical form: columns by descending SSQ, largest-|loading| positive.

    phi rows/columns are permuted and sign-adjusted consistently so
    structure == pattern @ phi keeps holding. Idempotent.
    """
    L = solution.loadings
    order = np.argsort(-((L**2).sum(axis=0)), kind="stable")
    L = L[:, order]
    phi = solution.phi[np.ix_(order, order)]
    signs = lead_signs(L)
    return replace(solution, loadings=L * signs, phi=phi * np.outer(signs, signs))


def assign_items(
    solution: FactorSolution, cutoff: float = ASSIGN_CUTOFF
) -> dict[str, ItemAssignment]:
    """Map each item to its dominant factor at the loading cutoff.

    An item is assigned to the factor with the largest |pattern loading|
    when that loading reaches the cutoff, flagged cross_loaded when a
    second factor also reaches it, and unassigned when none does.
    """
    check_cutoff(cutoff)
    magnitudes = np.abs(solution.loadings)
    # the first largest |loading| (np.argmax's tie rule) and how many reach the cutoff
    best = magnitudes.argmax(axis=1).tolist()
    reach = (magnitudes >= cutoff).sum(axis=1).tolist()
    status = ("unassigned", "assigned", "cross_loaded")
    return {
        item: ItemAssignment(item, k if n else None, status[min(n, 2)])
        for item, k, n in zip(solution.items, best, reach)
    }
