"""Independent reference implementations used to pin expected test values.

Everything here is written straight from textbook definitions (sum
formulas, cofactor expansion, characteristic polynomials, numeric
quadrature) and deliberately shares no code with the package, so agreement
between the two is evidence, not tautology. The simulator oracles are the
exception: they are the package's earlier one-value-at-a-time code, built
on the scalar ``Rng.normal`` that ``TestRng`` pins to the published
recurrences, and they check the batched paths against it. The
reconstruction, the reproduced matrix and the threshold-implied category
moments are the defining formulas, applied to the package's results. The
Jacobi and CSV oracles are likewise the package's earlier round and per-cell parser,
kept so that the faster paths can be held to the same bits and errors, the
sign oracle is the earlier per-column loop of ``sort_and_sign`` and the
assignment oracle the earlier per-row loop of ``assign_items``. The
PAF oracle is the package's earlier extraction loop, which decomposes the
full p x p reduced matrix on every pass, with an Anderson(1) step written
from its residual-minimizing definition (``mix=False`` gives the plain
iteration); ``paf_step`` is one such pass written from the definition
with numpy's ``eigh``.
"""

from __future__ import annotations

import csv
import decimal
import io
import math
from bisect import bisect_right
from fractions import Fraction

import numpy as np

from psychoval.core_stats import SymMatrix, cholesky_lower, inverse, sym_eigen
from psychoval.efa import FactorSolution
from psychoval.errors import (
    DuplicateId,
    EmptyDataset,
    NoConvergence,
    ParseError,
    RangeError,
)
from psychoval.ingest import SurveyDataset
from psychoval.rng import Rng


def pearson_definitional(x, y) -> float:
    """Sum-formula Pearson r, no shortcuts."""
    x = [float(v) for v in x]
    y = [float(v) for v in y]
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    num = sum((a - mx) * (b - my) for a, b in zip(x, y))
    den = math.sqrt(
        sum((a - mx) ** 2 for a in x) * sum((b - my) ** 2 for b in y)
    )
    return num / den


def det_cofactor(a) -> float:
    """Determinant by first-row cofactor expansion (any order, O(n!))."""
    a = [list(map(float, row)) for row in a]
    n = len(a)
    if n == 1:
        return a[0][0]
    total = 0.0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in a[1:]]
        total += ((-1) ** j) * a[0][j] * det_cofactor(minor)
    return total


def inverse_cofactor(a) -> np.ndarray:
    """Adjugate-over-determinant inverse, practical for p <= 4."""
    a = [list(map(float, row)) for row in a]
    n = len(a)
    det = det_cofactor(a)
    out = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            minor = [
                row[:j] + row[j + 1 :] for k, row in enumerate(a) if k != i
            ]
            out[j, i] = ((-1) ** (i + j)) * det_cofactor(minor) / det
    return out


def kmo_definitional(R) -> tuple[float, list[float]]:
    """KMO and per-item MSA from the cofactor inverse and the ratio definition."""
    R = np.asarray(R, dtype=float)
    p = R.shape[0]
    S = inverse_cofactor(R)
    Q = np.empty((p, p))
    for i in range(p):
        for j in range(p):
            Q[i, j] = -S[i, j] / math.sqrt(S[i, i] * S[j, j])
    r2 = 0.0
    q2 = 0.0
    row_r2 = [0.0] * p
    row_q2 = [0.0] * p
    for i in range(p):
        for j in range(p):
            if i == j:
                continue
            r2 += R[i, j] ** 2
            q2 += Q[i, j] ** 2
            row_r2[i] += R[i, j] ** 2
            row_q2[i] += Q[i, j] ** 2
    overall = r2 / (r2 + q2)
    msa = [row_r2[i] / (row_r2[i] + row_q2[i]) for i in range(p)]
    return overall, msa


def eigenvalues_3x3_charpoly(a) -> list[float]:
    """Roots of the hand-expanded characteristic polynomial of a symmetric 3x3.

    det(A - t I) = -t^3 + c2 t^2 + c1 t + c0 with c2 = trace, c1 =
    -(sum of 2x2 principal minors), c0 = det(A). All roots are real for a
    symmetric matrix; solved by the trigonometric cubic formula.
    """
    a = np.asarray(a, dtype=float)
    c2 = a[0, 0] + a[1, 1] + a[2, 2]
    minors = (
        a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1]
        + a[0, 0] * a[2, 2] - a[0, 2] * a[2, 0]
        + a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    )
    c0 = det_cofactor(a)
    # monic form t^3 - c2 t^2 + minors t - c0 = 0; depress with t = s + c2/3
    p = minors - c2 * c2 / 3.0
    q = -c0 + c2 * minors / 3.0 - 2.0 * c2**3 / 27.0
    shift = c2 / 3.0
    if abs(p) < 1e-14:
        root = math.copysign(abs(q) ** (1.0 / 3.0), -q)
        roots = [root + shift] * 3
    else:
        r = math.sqrt(-p * p * p / 27.0)
        phi = math.acos(max(-1.0, min(1.0, -q / (2.0 * r))))
        mag = 2.0 * math.sqrt(-p / 3.0)
        roots = [
            mag * math.cos((phi + 2.0 * math.pi * k) / 3.0) + shift
            for k in range(3)
        ]
    return sorted(roots, reverse=True)


def eigenvector_3x3(a, eigenvalue) -> np.ndarray:
    """Unit eigenvector of a 3x3 symmetric matrix for a simple eigenvalue.

    Null vector of (A - t I) obtained as the largest cross product of two
    of its rows; sign fixed so the largest-magnitude entry is positive.
    """
    a = np.asarray(a, dtype=float) - eigenvalue * np.eye(3)
    candidates = [
        np.cross(a[0], a[1]),
        np.cross(a[0], a[2]),
        np.cross(a[1], a[2]),
    ]
    v = max(candidates, key=lambda c: float(c @ c))
    v = v / math.sqrt(float(v @ v))
    lead = int(np.argmax(np.abs(v)))
    if v[lead] < 0:
        v = -v
    return v


def eigen_reconstruction(dec) -> np.ndarray:
    """V diag(lambda) V^T of an eigendecomposition."""
    v = dec.eigenvectors
    return (v * dec.eigenvalues) @ v.T


def reproduced_matrix(sol) -> np.ndarray:
    """Model-implied matrix L Phi L^T + diag(1 - h2) of a factor solution."""
    L = sol.loadings
    return L @ sol.phi @ L.T + np.diag(1.0 - sol.communalities)


def category_probabilities(spec) -> np.ndarray:
    """Per-item category probabilities implied by a spec's thresholds."""
    k = spec.likert_max - spec.likert_min + 1
    probs = np.empty((spec.p, k))
    for j, cuts in enumerate(spec.thresholds):
        cdf = [0.0] + [0.5 * (1.0 + math.erf(t / math.sqrt(2.0))) for t in cuts] + [1.0]
        probs[j] = np.diff(cdf)
    return probs


def expected_item_means(spec) -> np.ndarray:
    """Threshold-implied expectation of each observed item."""
    categories = np.arange(spec.likert_min, spec.likert_max + 1, dtype=float)
    return category_probabilities(spec) @ categories


def chi2_sf_quadrature(x: float, df: int, panels: int = 20000) -> float:
    """Upper-tail chi-square probability by Simpson quadrature of the density.

    Integrates the density over [0, x] after the substitution t = u^2,
    which turns it into 2 u^(df-1) exp(-u^2/2) / (2^(df/2) Gamma(df/2)),
    smooth at zero for every df >= 1; returns one minus that integral.
    """
    if x <= 0:
        return 1.0
    norm = 2.0 / (2.0 ** (df / 2.0) * math.gamma(df / 2.0))

    def integrand(u: float) -> float:
        return norm * u ** (df - 1) * math.exp(-u * u / 2.0)

    upper = math.sqrt(x)
    if panels % 2:
        panels += 1
    h = upper / panels
    acc = integrand(0.0) + integrand(upper)
    for k in range(1, panels):
        acc += (4.0 if k % 2 else 2.0) * integrand(k * h)
    cdf = acc * h / 3.0
    return 1.0 - cdf


def chi2_sf_poisson(x: float, df: int) -> float:
    """Upper-tail chi-square probability of an even df from the Poisson sum.

    P(chi2_df > x) = e^(-lam) (1 + lam + lam^2/2! + ... + lam^(df/2 - 1)/(df/2 - 1)!)
    with lam = x/2, in 60-digit decimal arithmetic from the exact value of x.
    Every term is positive, so only the final rounding to a float is lost.
    """
    if df % 2:
        raise ValueError(f"the Poisson sum needs an even df, got {df}")
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        lam = decimal.Decimal(x) / 2
        term = total = decimal.Decimal(1)
        for i in range(1, df // 2):
            term = term * lam / i
            total += term
        return float(total * (-lam).exp())


def alpha_definitional(data) -> float:
    """Cronbach's alpha straight from item and total-score sample variances."""
    data = np.asarray(data, dtype=float)
    k = data.shape[1]
    item_vars = [float(np.var(data[:, j], ddof=1)) for j in range(k)]
    total_var = float(np.var(data.sum(axis=1), ddof=1))
    return (k / (k - 1.0)) * (1.0 - sum(item_vars) / total_var)


def alpha_standardized_exact(R) -> float:
    """k rbar / (1 + (k - 1) rbar) over the mean off-diagonal r, in exact arithmetic, rounded once."""
    R = np.asarray(R, dtype=float)
    k = R.shape[0]
    rbar = sum(Fraction(float(x)) for x in R[~np.eye(k, dtype=bool)]) / (k * (k - 1))
    return float(k * rbar / (1 + (k - 1) * rbar))


def lead_signs_per_column(columns) -> np.ndarray:
    """Per column, -1.0 when its first largest-|entry| is negative, else 1.0."""
    columns = np.asarray(columns, dtype=float)
    signs = np.ones(columns.shape[1])
    for k in range(columns.shape[1]):
        col = columns[:, k]
        lead = int(np.argmax(np.abs(col)))
        if col[lead] < 0:
            signs[k] = -1.0
    return signs


def assign_items_per_row(loadings, cutoff: float) -> list[tuple[int | None, str]]:
    """(factor, status) per row: the first largest |loading|, checked against the cutoff."""
    out = []
    for row in np.abs(np.asarray(loadings, dtype=float)).tolist():
        best = row.index(max(row))
        if row[best] < cutoff:
            out.append((None, "unassigned"))
        elif any(v >= cutoff for i, v in enumerate(row) if i != best):
            out.append((best, "cross_loaded"))
        else:
            out.append((best, "assigned"))
    return out


def generate_rowwise(spec) -> np.ndarray:
    """Cells of ``generate(spec)``, one respondent and one scalar draw at a time.

    Draw order per respondent: m factor normals, then p unique normals.
    """
    rng = Rng(spec.seed)
    chol = cholesky_lower(spec.phi)
    unique_sd = np.sqrt(np.clip(1.0 - spec.communalities, 0.0, None))
    n, p, m = spec.n, spec.p, spec.m
    values = np.empty((n, p))
    for i in range(n):
        z = np.array([rng.normal() for _ in range(m)])
        factors = chol @ z
        eps = np.array([rng.normal() for _ in range(p)])
        latent = spec.loadings @ factors + unique_sd * eps
        for j in range(p):
            values[i, j] = spec.likert_min + bisect_right(spec.thresholds[j], latent[j])
    return values


def loads_csv_per_cell(text: str, likert_min: int, likert_max: int,
                       missing_token: str = "NA") -> SurveyDataset:
    """``loads_csv`` checking and converting one cell at a time."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyDataset("file has no header row") from None
        if len(header) < 2:
            raise ParseError(1, header[0] if header else "", "header needs id column plus items")
        items = [h.strip() for h in header[1:]]
        duplicates = [it for k, it in enumerate(items) if it in items[:k]]
        if duplicates:
            raise DuplicateId("item", duplicates[0])
        respondents, rows = [], []
        for lineno, record in enumerate(reader, start=2):
            if not record or all(not c.strip() for c in record):
                continue
            if len(record) != len(items) + 1:
                raise ParseError(lineno, "", f"expected {len(items) + 1} cells, got {len(record)}")
            rid = record[0].strip()
            if rid in respondents:
                raise DuplicateId("respondent", rid)
            row = []
            for j, cell in enumerate(record[1:]):
                cell = cell.strip()
                if cell == missing_token:
                    row.append(math.nan)
                    continue
                try:
                    value = int(cell)
                except ValueError:
                    raise ParseError(lineno, items[j], cell) from None
                if value < likert_min or value > likert_max:
                    raise RangeError(lineno, items[j], value)
                row.append(float(value))
            respondents.append(rid)
            rows.append(row)
    except csv.Error as exc:
        raise ParseError(reader.line_num, "", str(exc)) from None
    values = np.array(rows, dtype=float) if rows else np.empty((0, len(items)))
    return SurveyDataset(items=tuple(items), respondents=tuple(respondents),
                         values=values, likert_min=likert_min, likert_max=likert_max)


def to_csv_per_cell(ds, missing_token: str = "NA") -> str:
    """CSV text of a dataset, formatting each cell on its own."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["respondent", *ds.items])
    for i, rid in enumerate(ds.respondents):
        cells = [
            missing_token if math.isnan(v) else str(int(v)) for v in ds.values[i]
        ]
        writer.writerow([rid, *cells])
    return out.getvalue()


def seat_ring_rounds(p: int) -> list[list[tuple[int, int]]]:
    """The (top, bottom) pairs of each round of a Jacobi sweep, by the circle method.

    n = p + (p & 1) indices sit in two rows of h = n/2 seats, and top seat
    k faces bottom seat k. Round 0 seats the even indices on top and the
    odd ones below. Between rounds top seat 0 stays, and every other index
    moves one seat along the circle of top seats h-1..1, then bottom seats
    0..h-1, the last seat's index moving to the first.
    """
    n = p + (p & 1)
    h = n // 2
    top, bottom = list(range(0, n, 2)), list(range(1, n, 2))
    rounds = []
    for _ in range(n - 1):
        rounds.append(list(zip(top, bottom)))
        circle = top[:0:-1] + bottom  # top seats h-1..1, then bottom seats 0..h-1
        circle = circle[-1:] + circle[:-1]
        top, bottom = top[:1] + circle[:h - 1][::-1], circle[h - 1:]
    return rounds


def _interleaved_moves(p: int) -> list[np.ndarray]:
    """Flat gathers between rounds whose pairs sit at positions (2m, 2m + 1)."""
    n = p + (p & 1)
    orders = [[x for pair in pairs for x in pair] for pairs in seat_ring_rounds(p)]
    moves = []
    for r, order in enumerate(orders):
        position = {x: k for k, x in enumerate(order)}
        perm = np.array([position[x] for x in orders[(r + 1) % len(orders)]],
                        dtype=np.intp)
        rows = np.concatenate((perm, np.arange(n, n + p, dtype=np.intp)))
        moves.append((rows[:, None] * n + perm).reshape(-1))
    return moves


def _off_diagonal_max(a: np.ndarray) -> float:
    off = np.abs(a)
    np.fill_diagonal(off, 0.0)
    return float(off.max())


def jacobi_interleaved(a, v, tol: float, max_sweeps: int):
    """Round-robin Jacobi sweeps with each round's pairs at (2m, 2m + 1).

    The package's earlier round: the angles as numpy vectors, rows and
    columns i and j as strided views. Returns (a, v) in natural order.
    """
    p = a.shape[0]
    n = p + (p & 1)
    buffers = (np.zeros((n + p, n)), np.empty((n + p, n)))
    buffers[0][:p, :p] = a
    buffers[0][n:, :p] = v
    step = 2 * (n + 1)
    views = []
    for work in buffers:
        flat = work[:n].reshape(-1)
        views.append((
            work.reshape(-1),
            flat[1::step], flat[n::step], flat[0::step], flat[n + 1::step],
            work[0:n:2], work[1:n:2], work[:, 0::2], work[:, 1::2],
        ))
    moves = _interleaved_moves(p)
    cur = 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(max_sweeps):
            if _off_diagonal_max(buffers[cur][:n]) < tol:
                break
            for move in moves:
                flat, aij, aji, aii, ajj, row_i, row_j, col_i, col_j = views[cur]
                theta = (ajj - aii) / (2.0 * aij)
                t = 1.0 / (theta + np.copysign(np.sqrt(theta * theta + 1.0), theta))
                t = np.where(np.abs(theta) > 1e150, 0.5 / theta, t)
                t = np.where(aij == 0.0, 0.0, t)
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                cr, sr = c[:, None], s[:, None]
                new_i = cr * row_i - sr * row_j
                row_j[...] = sr * row_i + cr * row_j
                row_i[...] = new_i
                new_i = col_i * c - col_j * s
                col_j[...] = col_i * s + col_j * c
                col_i[...] = new_i
                aij[...] = 0.0
                aji[...] = 0.0
                cur = 1 - cur
                np.take(flat, move, out=views[cur][0])
        else:
            off = _off_diagonal_max(buffers[cur][:n])
            if off >= tol:
                raise NoConvergence(f"off-diagonal max {off:.3e}", residual=off)
    work = buffers[cur]
    return work[:p, :p], work[n:, :p]


def extract_paf_full(
    R: SymMatrix, m: int, tol: float, max_iter: int, mix: bool = True
) -> FactorSolution:
    """PAF from SMC communalities, one warm-started p x p Jacobi per pass.

    With ``mix`` and positive degrees of freedom, (p - m)^2 > p + m, the
    iterate after the first pass is the Anderson(1) combination of the last
    two images F_k = f(h_k): h_k+1 = (1 - a) F_k + a F_k-1, clipped to
    [0, 1], where a minimizes |(1 - a) r_k + a r_k-1| over the residuals
    r = F - h, that is a = <r_k - r_k-1, r_k> / |r_k - r_k-1|^2 (plain when
    that norm is 0). Otherwise h_k+1 = F_k, the plain iteration.
    """
    p = R.dim
    full_spectrum = sym_eigen(R).eigenvalues
    h2 = np.clip(1.0 - 1.0 / np.diag(inverse(R).values), 0.0, 1.0)
    mix = mix and (p - m) ** 2 > p + m
    heywood = False
    reduced = R.values.copy()
    basis = None
    earlier = None  # (h, F) of the pass before
    for iterations in range(1, max_iter + 1):
        np.fill_diagonal(reduced, h2)
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
        if delta < tol:
            break
        next_h2 = new_h2
        if mix and earlier is not None:
            old_h2, old_f = earlier
            r_now, r_old = new_h2 - h2, old_f - old_h2
            diff = r_now - r_old
            norm2 = float(np.sum(diff * diff))
            if norm2 != 0.0:
                a = float(np.sum(diff * r_now)) / norm2
                next_h2 = np.clip(new_h2 - a * (new_h2 - old_f), 0.0, 1.0)
        earlier = (h2, new_h2)
        h2 = next_h2
    else:
        raise NoConvergence(f"PAF: delta {delta:.3e}", residual=delta)
    return FactorSolution(
        items=tuple(f"item{j + 1}" for j in range(p)),
        extraction="paf",
        rotation="none",
        loadings=loadings,
        eigenvalues=full_spectrum,
        phi=np.eye(m),
        convergence={"iterations": iterations, "delta": delta},
        heywood=heywood,
    )


def paf_step(R: SymMatrix, h2, m: int) -> np.ndarray:
    """Communalities after one PAF pass from h2, Heywood rows clamped to 1."""
    reduced = R.values.copy()
    np.fill_diagonal(reduced, h2)
    lam, vectors = np.linalg.eigh(reduced)
    top = np.argsort(lam)[::-1][:m]
    loadings = vectors[:, top] * np.sqrt(np.clip(lam[top], 0.0, None))
    return np.minimum((loadings**2).sum(axis=1), 1.0)
