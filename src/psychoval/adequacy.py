"""Pre-factor-analysis assumption checks.

Bartlett's sphericity test asks whether the correlation matrix is
distinguishable from the identity; the Kaiser-Meyer-Olkin statistics
compare raw correlations against partial correlations from the anti-image
matrix, per item (MSA) and overall. Items whose MSA falls below threshold
are pruned one at a time, worst first, because every removal shifts the
remaining MSA values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core_stats import (
    SymMatrix,
    chi_square_sf,
    correlation_matrix,
    inverse,
    item_labels,
    log_determinant,
)
from .errors import (
    AssumptionsNotMet, ConfigError, DomainError, NotPositiveDefinite, SampleTooSmall, TooFewItems,
)
from .ingest import AnalysisView
from .rng import as_int, check_real

MIN_ITEMS_AFTER_PRUNE = 3
MSA_THRESHOLD = 0.5


@dataclass(frozen=True)
class AdequacyReport:
    """Bartlett's test and the KMO/MSA values of one correlation matrix.

    The fields are the report's ``adequacy`` keys, in order; ``bartlett``
    holds ``chi2``, ``df`` and ``p``.
    """

    bartlett: dict
    kmo_overall: float
    msa: dict[str, float]


@dataclass(frozen=True)
class PruneStep:
    item: str
    msa: float
    kmo_after: float


@dataclass(frozen=True)
class PruneTrail:
    """Record of the iterative low-MSA item removal loop."""

    steps: tuple[PruneStep, ...]
    retained: tuple[str, ...]
    termination: str  # "all_above_threshold" | "min_items_reached"


@dataclass(frozen=True)
class SampleAdequacyAdvice:
    """Advisory heuristic on sample size; never blocks the pipeline."""

    mean_communality: float
    communality_band: str  # high | moderate | low
    items_per_factor: float
    n: int
    caution: bool
    note: str


def bartlett_sphericity(R: SymMatrix, n: int) -> tuple[float, int, float]:
    """Bartlett's test of sphericity against the identity-matrix null.

    chi2 = -(n - 1 - (2p + 5)/6) * ln|R| with df = p(p-1)/2. An identity
    matrix gives chi2 = 0, p-value 1; any correlation structure pushes the
    determinant below 1 and the statistic up. Below 2 items there is no
    correlation to test (df = 0), so it raises TooFewItems. A sample size
    n that is not an integer raises ConfigError.
    """
    p = R.dim
    if p < 2:
        raise TooFewItems(f"bartlett needs >= 2 items, got {p}")
    n = as_int(n, "sample size n")
    if n <= p:
        raise SampleTooSmall(f"n = {n} must exceed the item count p = {p}")
    log_det = log_determinant(R)
    chi2 = -(n - 1.0 - (2.0 * p + 5.0) / 6.0) * log_det
    chi2 = max(chi2, 0.0)
    df = p * (p - 1) // 2
    return chi2, df, chi_square_sf(chi2, df)


def check_alpha(alpha: float) -> None:
    """Reject a Bartlett significance level outside (0, 1), NaN included."""
    check_real(alpha, "bartlett_alpha")
    if not 0.0 < alpha < 1.0:
        raise ConfigError("bartlett_alpha must lie in (0, 1)")


def check_msa_threshold(threshold: float) -> None:
    """Reject an MSA pruning threshold outside [0, 1), NaN included."""
    check_real(threshold, "msa_threshold")
    if not 0.0 <= threshold < 1.0:
        raise ConfigError("msa_threshold must lie in [0, 1)")


def sphericity_gate(p: float, alpha: float) -> None:
    """Raise AssumptionsNotMet when Bartlett's p-value exceeds a checked alpha.

    A p-value outside [0, 1], NaN included, raises DomainError.
    """
    check_alpha(alpha)
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"p-value {p!r} outside [0, 1]")
    if p > alpha:
        raise AssumptionsNotMet(
            f"sphericity not significant (p = {p:.6g} > alpha = {alpha:g})"
        )


def kmo(R: SymMatrix, items: list[str] | None = None) -> tuple[float, dict[str, float]]:
    """Overall KMO and per-item MSA.

    With S = R^-1, the partial correlation of items i and j given the rest
    is q_ij = -S_ij / sqrt(S_ii * S_jj). KMO compares squared raw against
    squared partial correlations: sum r^2 / (sum r^2 + sum q^2) over
    off-diagonal entries, overall and restricted to each item's row.
    Raises TooFewItems below 2 items (no off-diagonal entries),
    DomainError for an item uncorrelated with every other one (its MSA
    would be 0/0), and NotPositiveDefinite when a diagonal entry of R^-1
    is not positive, which only an indefinite R allows.
    """
    p = R.dim
    if p < 2:
        raise TooFewItems(f"kmo needs >= 2 items, got {p}")
    names = item_labels(items, p)
    r2 = R.values**2
    np.fill_diagonal(r2, 0.0)
    row_r2 = r2.sum(axis=1)
    for j in np.flatnonzero(row_r2 == 0.0)[:1]:
        raise DomainError(
            f"item {names[j]!r} has zero correlation with every other item; "
            "its MSA is undefined"
        )
    s = inverse(R).values
    s_diag = np.diag(s)
    if np.any(s_diag <= 0.0):
        raise NotPositiveDefinite(
            "matrix is indefinite: its inverse has diagonal entry "
            f"{float(s_diag.min()):.3e}"
        )
    d = 1.0 / np.sqrt(s_diag)
    # exactly symmetric, as s is and d_i * d_j == d_j * d_i
    q = -s * np.outer(d, d)

    q2 = q**2
    np.fill_diagonal(q2, 0.0)

    overall = float(r2.sum() / (r2.sum() + q2.sum()))
    row_q2 = q2.sum(axis=1)
    msa = {name: float(row_r2[j] / (row_r2[j] + row_q2[j])) for j, name in enumerate(names)}
    return overall, msa


def msa_prune(view: AnalysisView, threshold: float = MSA_THRESHOLD) -> PruneTrail:
    """Iteratively drop the single worst item while its MSA is below threshold.

    One item per pass (the argmin MSA, ties by item order), because MSA
    values shift after each removal. Stops when every item clears the
    threshold or when removal would leave fewer than 3 items; the trail's
    termination says which.
    """
    check_msa_threshold(threshold)
    column = {it: j for j, it in enumerate(view.items)}

    def adequacy(items: list[str]) -> tuple[float, dict[str, float]]:
        R = correlation_matrix(view.data[:, [column[it] for it in items]], items)
        return kmo(R, items)

    items = list(view.items)
    steps: list[PruneStep] = []
    while True:
        _, msa = adequacy(items)
        # min() keeps the first minimum, so ties resolve by item order
        worst = min(items, key=msa.__getitem__)
        if msa[worst] >= threshold or len(items) <= MIN_ITEMS_AFTER_PRUNE:
            break
        items.remove(worst)
        steps.append(PruneStep(worst, msa[worst], adequacy(items)[0]))
    return PruneTrail(
        steps=tuple(steps),
        retained=tuple(items),
        termination="all_above_threshold" if msa[worst] >= threshold else "min_items_reached",
    )


def sample_adequacy_advice(solution, n: int) -> SampleAdequacyAdvice:
    """Advisory heuristic relating sample size to the fitted solution.

    Mean communality is classed high (>= 0.7), moderate (0.4 to 0.7, lower
    bound closed), or low (< 0.4). The caution flag fires only when the
    band is low, items-per-factor is under 4, and n is under 300. Labeled
    advisory throughout: it never blocks anything. A sample size n that is
    not an integer raises ConfigError.
    """
    n = as_int(n, "sample size n")
    mean_h2 = float(np.asarray(solution.communalities, dtype=float).mean())
    if mean_h2 >= 0.7:
        band = "high"
    elif mean_h2 >= 0.4:
        band = "moderate"
    else:
        band = "low"
    ratio = solution.p / solution.m
    caution = band == "low" and ratio < 4.0 and n < 300
    if caution:
        note = (
            "advisory heuristic: low mean communality "
            f"({mean_h2:.2f}) with {ratio:.1f} items per factor at n={n}; "
            "consider more items per factor or a larger sample"
        )
    else:
        note = (
            "advisory heuristic: no sample-size caution "
            f"(mean communality {mean_h2:.2f}, {ratio:.1f} items per factor, n={n})"
        )
    return SampleAdequacyAdvice(
        mean_communality=mean_h2,
        communality_band=band,
        items_per_factor=ratio,
        n=n,
        caution=caution,
        note=note,
    )
