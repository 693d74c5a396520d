"""Synthetic Likert data from a specified factor model.

Each respondent draws factor scores from correlated standard normals
(Cholesky of phi), each item adds unique normal noise scaled so the latent
item has unit variance, and the latent value is discretized through fixed
per-item thresholds into Likert categories. Default thresholds are
equal-probability cuts of the standard normal, so the latent-to-observed
map never depends on the sample. Discretization attenuates correlations;
round-trip tolerances downstream account for that.

Model files are plain text: ``key: value`` lines (n, seed, likert, items)
plus indented blocks for ``loadings:``, ``phi:`` and ``thresholds:``.
Full-line ``#`` comments and blank lines are ignored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core_stats import SymMatrix, as_float_array, cholesky_lower, fmatmul, item_labels
from .errors import ConfigError, UniquenessNegative
from .ingest import (
    DEFAULT_LIKERT, SurveyDataset, check_likert, parse_likert, read_text, split_items,
)
from .rng import Rng, as_int

# Most Likert categories a model may span; it bounds the per-item threshold tuples.
MAX_CATEGORIES = 1000


def _check_categories(likert_min: int, likert_max: int) -> None:
    """check_likert, and ConfigError for bounds spanning over MAX_CATEGORIES categories."""
    check_likert(likert_min, likert_max)
    categories = likert_max - likert_min + 1
    if categories > MAX_CATEGORIES:
        raise ConfigError(f"likert bounds {likert_min}:{likert_max} span {categories} "
                          f"categories, the simulator takes at most {MAX_CATEGORIES}")


def equal_probability_thresholds(likert_min: int, likert_max: int) -> tuple[float, ...]:
    """Cut points splitting the standard normal into equally likely categories."""
    _check_categories(likert_min, likert_max)
    # imported on first use: at module level it costs `import psychoval` about 4 ms
    from statistics import NormalDist

    k = likert_max - likert_min + 1
    inv_cdf = NormalDist().inv_cdf
    return tuple(inv_cdf(c / k) for c in range(1, k))


@dataclass(frozen=True)
class FactorModelSpec:
    """A population factor model plus the sampling frame for simulation.

    ``thresholds`` may be omitted (equal-probability cuts), given once for
    all items, or given per item; each item needs exactly
    likert_max - likert_min strictly increasing cut points. The bounds
    span at most MAX_CATEGORIES categories. ``communalities``, stored
    read-only, are the row sums of (loadings @ phi) * loadings.
    """

    loadings: np.ndarray
    phi: np.ndarray | None = None
    likert_min: int = DEFAULT_LIKERT[0]
    likert_max: int = DEFAULT_LIKERT[1]
    n: int = 1
    thresholds: tuple | None = None
    seed: int = 0
    items: tuple[str, ...] | None = None
    communalities: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        L = as_float_array(self.loadings, "loadings")
        if L.ndim != 2 or L.size == 0:
            raise ConfigError("loadings must be a nonempty p x m matrix")
        p, m = L.shape
        phi = np.eye(m) if self.phi is None else as_float_array(self.phi, "phi")
        if phi.shape != (m, m):
            raise ConfigError("phi shape does not match the factor count")
        for name, a in (("loadings", L), ("phi", phi)):
            if not np.isfinite(a).all():
                raise ConfigError(f"{name} must be finite")
        if np.max(np.abs(phi - phi.T)) > 1e-8:
            raise ConfigError("phi must be symmetric")
        if np.max(np.abs(np.diag(phi) - 1.0)) > 1e-8:
            raise ConfigError("phi must have a unit diagonal")
        cholesky_lower(phi)  # positive definiteness check
        _check_categories(self.likert_min, self.likert_max)
        n, seed = as_int(self.n, "n"), as_int(self.seed, "seed")
        if n < 1:
            raise ConfigError("n must be at least 1")

        items = item_labels(self.items, p)

        L, phi = L.copy(), phi.copy()
        h2 = (fmatmul(L, phi) * L).sum(axis=1)
        for j, value in enumerate(h2):
            if value > 1.0 + 1e-12:
                raise UniquenessNegative(items[j])

        cuts = self._normalized_thresholds(p)

        for a in (L, phi, h2):
            a.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "loadings", L)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "items", items)
        object.__setattr__(self, "thresholds", cuts)
        object.__setattr__(self, "communalities", h2)

    def _normalized_thresholds(self, p: int) -> tuple[tuple[float, ...], ...]:
        need = self.likert_max - self.likert_min
        raw = self.thresholds
        if raw is None:
            per_item = [equal_probability_thresholds(self.likert_min, self.likert_max)] * p
        # np.ndim refuses a ragged list, which is a sequence all the same
        elif not isinstance(raw, (list, tuple)) and np.ndim(raw) == 0:
            raise ConfigError(f"thresholds must be a sequence of cut points, got {raw!r}")
        elif len(raw) and np.ndim(raw[0]) == 0:
            per_item = [as_float_array(raw, "thresholds")] * p
        else:
            per_item = [as_float_array(row, "thresholds") for row in raw]
        if len(per_item) != p:
            raise ConfigError("need one threshold row per item")
        for j, row in enumerate(per_item):
            if np.ndim(row) != 1:
                raise ConfigError(f"item {j}: thresholds must be a row of cut points")
            if len(row) != need:
                raise ConfigError(
                    f"item {j}: expected {need} thresholds, got {len(row)}"
                )
            if not all(math.isfinite(t) for t in row):
                raise ConfigError(f"item {j}: thresholds must be finite")
            if any(b <= a for a, b in zip(row, row[1:])):
                raise ConfigError(f"item {j}: thresholds must strictly increase")
        return tuple(tuple(map(float, row)) for row in per_item)

    @property
    def p(self) -> int:
        return self.loadings.shape[0]

    @property
    def m(self) -> int:
        return self.loadings.shape[1]


def population_correlation(spec: FactorModelSpec) -> SymMatrix:
    """Exact latent correlation matrix lambda phi lambda' + diag(1 - h2)."""
    h2 = spec.communalities
    R = fmatmul(fmatmul(spec.loadings, spec.phi), spec.loadings.T) + np.diag(1.0 - h2)
    np.fill_diagonal(R, 1.0)
    return SymMatrix(R)


def generate(spec: FactorModelSpec) -> SurveyDataset:
    """Simulate a complete SurveyDataset; deterministic given the seed.

    Draw order per respondent: m factor normals, then p unique normals, all
    from one stream. Sums over factors run in a fixed elementwise order.
    """
    n, p, m = spec.n, spec.p, spec.m
    draws = Rng(spec.seed).normals(n * (m + p)).reshape(n, m + p)
    z, eps = draws[:, :m], draws[:, m:]
    chol = cholesky_lower(spec.phi)
    factors = np.empty((n, m))
    for k in range(m):
        acc = chol[k, 0] * z[:, 0]
        for j in range(1, k + 1):
            acc += chol[k, j] * z[:, j]
        factors[:, k] = acc
    latent = np.multiply.outer(factors[:, 0], spec.loadings[:, 0])
    for k in range(1, m):
        latent += np.multiply.outer(factors[:, k], spec.loadings[:, k])
    latent += np.sqrt(np.clip(1.0 - spec.communalities, 0.0, None)) * eps
    values = np.empty((n, p))
    for j, cuts in enumerate(spec.thresholds):
        values[:, j] = np.searchsorted(cuts, latent[:, j], side="right")
    values += spec.likert_min
    width = len(str(n))
    respondents = tuple(f"r{i + 1:0{width}d}" for i in range(n))
    return SurveyDataset(
        items=spec.items,
        respondents=respondents,
        values=values,
        likert_min=spec.likert_min,
        likert_max=spec.likert_max,
    )


_SCALAR_KEYS = ("n", "seed", "likert", "items")
_BLOCK_KEYS = ("loadings", "phi", "thresholds")


def parse_model(text: str, n: int | None = None, seed: int | None = None) -> FactorModelSpec:
    """Build a FactorModelSpec from model-file text.

    ``n`` and ``seed`` arguments override the file's values when given.
    """
    scalars: dict[str, str] = {}
    blocks: dict[str, list[list[float]]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        if current is not None and line[0] in " \t":
            try:
                blocks[current].append([float(tok) for tok in line.split()])
            except ValueError:
                raise ConfigError(
                    f"line {lineno}: bad number in {current} block"
                ) from None
            continue
        current = None
        key, sep, value = line.partition(":")
        key = key.strip()
        if not sep:
            raise ConfigError(f"line {lineno}: expected 'key: value'")
        value = value.strip()
        if key in _BLOCK_KEYS:
            if value:
                raise ConfigError(f"line {lineno}: {key} block takes no inline value")
            blocks[key] = []
            current = key
        elif key in _SCALAR_KEYS:
            scalars[key] = value
        else:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")

    if "loadings" not in blocks or not blocks["loadings"]:
        raise ConfigError("model file needs a loadings block")
    loadings = _rectangular(blocks["loadings"], "loadings")

    phi = _rectangular(blocks["phi"], "phi") if blocks.get("phi") else None
    thresholds: tuple | None = None
    if blocks.get("thresholds"):
        rows = blocks["thresholds"]
        thresholds = tuple(rows[0]) if len(rows) == 1 else tuple(tuple(r) for r in rows)

    likert = parse_likert(scalars["likert"]) if "likert" in scalars else DEFAULT_LIKERT
    items = split_items(scalars["items"]) if "items" in scalars else None

    if n is None:
        n = _parse_int(scalars.get("n"), "n") if "n" in scalars else None
    if n is None:
        raise ConfigError("respondent count n given neither in file nor as override")
    if seed is None:
        seed = _parse_int(scalars["seed"], "seed") if "seed" in scalars else 0

    return FactorModelSpec(
        loadings=loadings,
        phi=phi,
        likert_min=likert[0],
        likert_max=likert[1],
        n=n,
        thresholds=thresholds,
        seed=seed,
        items=items,
    )


def load_model(path: str | Path, n: int | None = None, seed: int | None = None) -> FactorModelSpec:
    return parse_model(read_text(path), n=n, seed=seed)


def _rectangular(rows: list[list[float]], what: str) -> np.ndarray:
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ConfigError(f"{what} block rows have unequal lengths")
    return np.array(rows, dtype=float)


def _parse_int(token: str | None, what: str) -> int:
    try:
        return int(token)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        raise ConfigError(f"{what} must be an integer, got {token!r}") from None
