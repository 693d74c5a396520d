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

from .core_stats import item_labels, pearson
from .errors import InsufficientRows, NoOverlap, TooFewItems, ZeroVariance
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
    """
    cov = np.asarray(cov, dtype=float)
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
    least 3 complete rows, 2 items, and nonzero variance per item.
    """
    if len(scale.item_ids) < 2:
        raise TooFewItems(f"scale {scale.name!r} has {len(scale.item_ids)} item(s)")
    block = _scale_matrix(ds, scale)
    if block.shape[0] < 3:
        raise InsufficientRows(
            f"scale {scale.name!r} has {block.shape[0]} complete rows, need 3"
        )
    cov = np.cov(block, rowvar=False, ddof=1)
    return alpha_from_covariance(
        cov, items=list(scale.item_ids), scale_name=scale.name, n=block.shape[0]
    )


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

    idx1 = [ds_t1.items.index(it) for it in scale.item_ids]
    idx2 = [ds_t2.items.index(it) for it in scale.item_ids]
    rows1 = {r: i for i, r in enumerate(ds_t1.respondents)}
    rows2 = {r: i for i, r in enumerate(ds_t2.respondents)}
    a = np.array([ds_t1.values[rows1[r]][idx1] for r in matched]) if matched else np.empty((0, len(idx1)))
    b = np.array([ds_t2.values[rows2[r]][idx2] for r in matched]) if matched else np.empty((0, len(idx2)))

    # keep only respondents complete on the scale at both occasions
    if matched:
        complete = ~(np.isnan(a).any(axis=1) | np.isnan(b).any(axis=1))
        matched = [r for r, c in zip(matched, complete) if c]
        a, b = a[complete], b[complete]
    if len(matched) < 3:
        raise NoOverlap(
            f"only {len(matched)} respondents shared between occasions, need 3"
        )

    item_r: dict[str, float] = {}
    for j, item in enumerate(scale.item_ids):
        try:
            item_r[item] = pearson(a[:, j], b[:, j])
        except ZeroVariance as exc:
            occasion = _OCCASIONS[exc.position]
            raise ZeroVariance(f"item {item!r} at the {occasion} occasion") from None
    try:
        total_r = pearson(a.sum(axis=1), b.sum(axis=1))
    except ZeroVariance as exc:
        occasion = _OCCASIONS[exc.position]
        raise ZeroVariance(f"total score at the {occasion} occasion") from None

    return RetestReport(
        scale=scale.name,
        matched_n=len(matched),
        dropped_first=ds_t1.n - len(matched),
        dropped_second=ds_t2.n - len(matched),
        item_r=item_r,
        total_r=total_r,
    )
