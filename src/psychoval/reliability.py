"""Reliability coefficients: internal consistency and test-retest stability.

Cronbach's alpha is computed from the item covariance matrix, so the same
kernel serves both observed data (the n(n-1)-scaled Gram sums of
``core_stats.gram_covariances``; every output is a ratio) and population
matrices. Test-retest matches respondents across two administrations by
strict id equality and correlates the repeated measurements, from the same
Gram sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core_stats import (
    MIN_ROWS, SINGULARITY_RTOL, as_finite_array, check_symmetric, gram_covariances, item_labels,
)
from .errors import DomainError, InsufficientRows, NoOverlap, TooFewItems, ZeroVariance
from .ingest import ScaleDefinition, SurveyDataset


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


def _not_psd(detail: str) -> DomainError:
    return DomainError(f"covariance matrix is not positive semidefinite: {detail}")


def _alpha(cov: np.ndarray, what: str, trace: float | None = None) -> tuple[float, float]:
    """Cronbach's alpha k/(k-1) (1 - trace/total) of cov and total, the variance of its sum.

    ``trace`` defaults to cov's. ZeroVariance at a relative zero total,
    DomainError below it; one item has no alpha (NaN).
    """
    k = cov.shape[0]
    total = float(cov.sum())
    trace = float(np.trace(cov)) if trace is None else trace
    # a relative zero: population input carries rounding in its entries
    if abs(total) < SINGULARITY_RTOL * trace:
        raise ZeroVariance(what)
    if total < 0.0:
        raise _not_psd(f"{what} has a negative variance")
    if k < 2:
        return math.nan, total
    # one quotient: on exact sums identical items give 1. With every |r| <= 1,
    # Cauchy-Schwarz gives total <= (sum sd)^2 <= k trace, so alpha <= 1 and
    # any excess is rounding (|r| beyond that is refused upstream)
    return min(1.0, k * (total - trace) / ((k - 1.0) * total)), total


def alpha_from_covariance(
    cov: np.ndarray,
    items: list[str] | None = None,
    scale_name: str = "scale",
    n: int = 0,
) -> AlphaReport:
    """Cronbach's alpha from a k x k item covariance matrix.

    This is the exact-arithmetic path: feed it a population covariance
    matrix, or any positive multiple of one, and the usual identities hold
    to rounding error (identical items give alpha 1, mutually uncorrelated
    equal-variance items give 0). Anything but a finite, symmetric, square,
    2-d matrix raises DomainError, and so does one that is not positive
    semidefinite by more than rounding wherever that shows: an implied
    correlation beyond ±1 or a sum of items with negative variance.
    """
    cov = as_finite_array(cov, "covariance matrix")
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise DomainError(f"expected a square covariance matrix, got shape {cov.shape}")
    check_symmetric(cov, "covariance matrix")
    k = cov.shape[0]
    if k < 2:
        raise TooFewItems(f"alpha needs >= 2 items, got {k}")
    names = item_labels(items, k)
    variances = np.diag(cov)
    for name, v in zip(names, variances):
        if v <= 0.0:
            raise ZeroVariance(f"item {name!r}")

    corr = cov / np.sqrt(np.outer(variances, variances))
    for i, j in np.argwhere(np.abs(corr) > 1.0 + SINGULARITY_RTOL)[:1]:
        raise _not_psd(f"items {names[i]!r} and {names[j]!r} have r = {corr[i, j]:.4g}")
    alpha_raw, _ = _alpha(cov, "total score")
    # the standardized items' covariances are R, whose trace is k
    alpha_std, _ = _alpha(np.clip(corr, -1.0, 1.0), "standardized total score", trace=k)

    item_total: dict[str, float] = {}
    if_deleted: dict[str, float] = {}
    for j, name in enumerate(names):
        rest = [i for i in range(k) if i != j]
        if_deleted[name], rest_total = _alpha(cov[np.ix_(rest, rest)], "remainder score")
        # corrected item-total: item vs sum of the remaining items
        r = float(cov[j, rest].sum()) / math.sqrt(variances[j] * rest_total)
        if abs(r) > 1.0 + SINGULARITY_RTOL:
            raise _not_psd(f"item {name!r} has r = {r:.4g} with the remainder score")
        item_total[name] = min(1.0, max(-1.0, r))

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
    _, _, cov = gram_covariances(block)
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

    def occasion(ds: SurveyDataset) -> np.ndarray:
        row = {r: i for i, r in enumerate(ds.respondents)}
        rows = np.array([row[r] for r in matched], dtype=np.intp)
        cols = np.array([ds.items.index(it) for it in scale.item_ids], dtype=np.intp)
        return ds.values[np.ix_(rows, cols)]

    both = np.stack([occasion(ds_t1), occasion(ds_t2)], axis=2)
    # keep only respondents complete on the scale at both occasions
    both = both[~np.isnan(both).any(axis=(1, 2))]
    n = len(both)
    if n < MIN_ROWS:
        raise NoOverlap(f"only {n} respondents shared between occasions, need {MIN_ROWS}")

    # item 1 at the first and the second occasion, item 2, ..., the total
    # score last: the order in which a constant column is refused
    both = np.concatenate([both, both.sum(axis=1, keepdims=True)], axis=1)
    _, var, cov = gram_covariances(both.reshape(n, -1))
    v = np.diag(var)
    for j in np.flatnonzero(v <= 0.0)[:1]:
        what = f"item {scale.item_ids[j // 2]!r}" if j < len(v) - 2 else "total score"
        raise ZeroVariance(f"{what} at the {('first', 'second')[j % 2]} occasion")
    r = np.clip(np.diag(cov, 1)[::2] / np.sqrt(v[::2] * v[1::2]), -1.0, 1.0)

    return RetestReport(
        scale=scale.name,
        matched_n=n,
        dropped_first=ds_t1.n - n,
        dropped_second=ds_t2.n - n,
        item_r=dict(zip(scale.item_ids, r[:-1].tolist())),
        total_r=float(r[-1]),
    )
