"""Reliability coefficients: internal consistency and test-retest stability.

Cronbach's alpha is computed from the item covariance matrix, so the same
kernel serves both observed data (sample covariances, n-1 denominator) and
exact population matrices. Test-retest matches respondents across two
administrations by strict id equality and correlates the repeated
measurements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core_stats import MIN_ROWS, as_float_array, check_symmetric, item_labels, pearson
from .errors import DomainError, InsufficientRows, NoOverlap, TooFewItems, ZeroVariance
from .ingest import ScaleDefinition, SurveyDataset

# pearson's ZeroVariance.position, named as the occasion it stands for
_OCCASIONS = ("first", "second")


@dataclass(frozen=True)
class AlphaReport:
    """Cronbach's alpha for one scale.

    alpha_raw uses item and total-score variances; alpha_standardized uses
    the mean inter-item correlation. alpha_if_deleted entries are computed
    on the remaining k-1 items (NaN when k == 2, since a single item has no
    internal consistency).
    """

    scale: str
    k: int
    n: int
    alpha_raw: float
    alpha_standardized: float
    item_total_correlations: dict[str, float]
    alpha_if_deleted: dict[str, float]

    @property
    def negative(self) -> bool:
        return self.alpha_raw < 0.0


@dataclass(frozen=True)
class RetestReport:
    """Stability of a scale across two administrations."""

    scale: str
    matched_n: int
    dropped_first: int
    dropped_second: int
    item_r: dict[str, float]
    total_r: float


def _alpha_raw_from_cov(cov: np.ndarray) -> float:
    k = cov.shape[0]
    total_var = float(cov.sum())
    item_var = float(np.trace(cov))
    if total_var == 0.0:
        raise ZeroVariance("total score")
    return (k / (k - 1.0)) * (1.0 - item_var / total_var)


def _alpha_std_from_corr(corr: np.ndarray) -> float:
    k = corr.shape[0]
    off = (float(corr.sum()) - k) / (k * (k - 1.0))
    return k * off / (1.0 + (k - 1.0) * off)


def alpha_from_covariance(
    cov: np.ndarray,
    items: list[str] | None = None,
    scale_name: str = "scale",
    n: int = 0,
) -> AlphaReport:
    """Cronbach's alpha from a k x k item covariance matrix.

    This is the exact-arithmetic path: feed it a population covariance
    matrix and the usual identities hold to rounding error (all-equal
    items give alpha 1, mutually uncorrelated equal-variance items give 0).
    Anything but a finite, symmetric, square, 2-d matrix raises DomainError.
    """
    cov = as_float_array(cov, "covariance matrix")
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise DomainError(f"expected a square covariance matrix, got shape {cov.shape}")
    if not np.isfinite(cov).all():
        raise DomainError("covariance matrix has a non-finite entry")
    check_symmetric(cov, "covariance matrix")
    k = cov.shape[0]
    if k < 2:
        raise TooFewItems(f"alpha needs >= 2 items, got {k}")
    names = item_labels(items, k)
    variances = np.diag(cov)
    for name, v in zip(names, variances):
        if v <= 0.0:
            raise ZeroVariance(f"item {name!r}")

    sd = np.sqrt(variances)
    corr = cov / np.outer(sd, sd)
    alpha_raw = _alpha_raw_from_cov(cov)
    alpha_std = _alpha_std_from_corr(corr)

    item_total: dict[str, float] = {}
    if_deleted: dict[str, float] = {}
    for j, name in enumerate(names):
        rest = [i for i in range(k) if i != j]
        # corrected item-total: item vs sum of the remaining items
        rest_var = float(cov[np.ix_(rest, rest)].sum())
        cov_j_rest = float(cov[j, rest].sum())
        if rest_var <= 0.0:
            raise ZeroVariance("remainder score")
        item_total[name] = cov_j_rest / math.sqrt(variances[j] * rest_var)
        if k == 2:
            if_deleted[name] = math.nan
        else:
            if_deleted[name] = _alpha_raw_from_cov(cov[np.ix_(rest, rest)])

    return AlphaReport(
        scale=scale_name,
        k=k,
        n=n,
        alpha_raw=alpha_raw,
        alpha_standardized=alpha_std,
        item_total_correlations=item_total,
        alpha_if_deleted=if_deleted,
    )


def _scale_matrix(ds: SurveyDataset, scale: ScaleDefinition) -> np.ndarray:
    """Complete rows of the scale's items, in scale order."""
    scale.check_against(ds)
    idx = [ds.items.index(it) for it in scale.item_ids]
    block = ds.values[:, idx]
    complete = ~np.isnan(block).any(axis=1)
    return block[complete]


def cronbach_alpha(ds: SurveyDataset, scale: ScaleDefinition) -> AlphaReport:
    """Cronbach's alpha of a scale on observed data.

    Rows with any missing cell among the scale items are dropped; needs at
    least MIN_ROWS complete rows, 2 items, and nonzero variance per item.
    """
    if len(scale.item_ids) < 2:
        raise TooFewItems(f"scale {scale.name!r} has {len(scale.item_ids)} item(s)")
    block = _scale_matrix(ds, scale)
    if block.shape[0] < MIN_ROWS:
        raise InsufficientRows(
            f"scale {scale.name!r} has {block.shape[0]} complete rows, need {MIN_ROWS}"
        )
    # shifted to a zero minimum, so cells near 2^53 keep their spread exact
    cov = np.cov(block - block.min(axis=0), rowvar=False, ddof=1)
    return alpha_from_covariance(
        cov, items=list(scale.item_ids), scale_name=scale.name, n=block.shape[0]
    )


def _retest_r(x: np.ndarray, y: np.ndarray, what: str) -> float:
    """pearson across the two occasions; ZeroVariance names the constant one."""
    try:
        return pearson(x, y)
    except ZeroVariance as exc:
        raise ZeroVariance(f"{what} at the {_OCCASIONS[exc.position]} occasion") from None


def test_retest(
    ds_t1: SurveyDataset,
    ds_t2: SurveyDataset,
    scale: ScaleDefinition,
) -> RetestReport:
    """Correlate repeated measurements of the same respondents.

    Respondents are matched by exact id; unmatched rows are dropped and
    counted. Returns the per-item Pearson r across occasions and the r of
    the scale total scores. Values near 1 indicate a stable instrument.
    """
    scale.check_against(ds_t1)
    scale.check_against(ds_t2)
    # canonical (sorted) match order so the result is exactly symmetric in
    # the two occasions
    matched = sorted(set(ds_t1.respondents) & set(ds_t2.respondents))

    def occasion(ds: SurveyDataset) -> np.ndarray:
        row = {r: i for i, r in enumerate(ds.respondents)}
        rows = np.array([row[r] for r in matched], dtype=np.intp)
        cols = np.array([ds.items.index(it) for it in scale.item_ids], dtype=np.intp)
        return ds.values[np.ix_(rows, cols)]

    a, b = occasion(ds_t1), occasion(ds_t2)
    # keep only respondents complete on the scale at both occasions
    complete = ~(np.isnan(a).any(axis=1) | np.isnan(b).any(axis=1))
    a, b = a[complete], b[complete]
    n = len(a)
    if n < MIN_ROWS:
        raise NoOverlap(f"only {n} respondents shared between occasions, need {MIN_ROWS}")

    item_r = {
        item: _retest_r(a[:, j], b[:, j], f"item {item!r}")
        for j, item in enumerate(scale.item_ids)
    }
    total_r = _retest_r(a.sum(axis=1), b.sum(axis=1), "total score")

    return RetestReport(
        scale=scale.name,
        matched_n=n,
        dropped_first=ds_t1.n - n,
        dropped_second=ds_t2.n - n,
        item_r=item_r,
        total_r=total_r,
    )
