"""Loading, validation, and description of survey response datasets.

The on-disk format is plain CSV: header row with the respondent-id column
first and one column per item, then one row per respondent. Cells hold
integer Likert responses or the declared missing token; nothing is
type-inferred. Scale definitions (named item groupings) live in a
line-oriented sidecar file, ``name: id1,id2,...``.
"""

from __future__ import annotations

import csv
import io
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

from .core_stats import as_float_array
from .errors import (
    ConfigError,
    DuplicateId,
    EmptyAfterDeletion,
    EmptyDataset,
    MissingDataError,
    ParseError,
    RangeError,
    TooFewItems,
    UnknownItem,
)
from .rng import as_int

POLICIES = ("listwise", "pairwise", "strict")
MISSING_TOKEN = "NA"
DEFAULT_LIKERT = (1, 7)
LIKERT_LIMIT = 2**53  # every integer cell within ±2^53 is exact as a float


@dataclass(frozen=True)
class SurveyDataset:
    """Rectangular respondents x items table of bounded Likert responses.

    ``values`` is a read-only float array with NaN marking missing cells;
    all non-missing entries are integers within [likert_min, likert_max].
    """

    items: tuple[str, ...]
    respondents: tuple[str, ...]
    values: np.ndarray
    likert_min: int
    likert_max: int

    def __post_init__(self):
        check_likert(self.likert_min, self.likert_max)
        if len(set(self.items)) != len(self.items):
            raise DuplicateId("item", _first_duplicate(self.items))
        if len(set(self.respondents)) != len(self.respondents):
            raise DuplicateId("respondent", _first_duplicate(self.respondents))
        a = as_float_array(self.values, "values")
        if a.shape != (len(self.respondents), len(self.items)):
            raise ConfigError(
                f"values shape {a.shape} does not match "
                f"{len(self.respondents)} respondents x {len(self.items)} items"
            )
        outside = (a < self.likert_min) | (a > self.likert_max)
        if outside.any():
            i, j = map(int, np.argwhere(outside)[0])
            raise RangeError(self.respondents[i], self.items[j], a[i, j])
        fractional = a % 1 > 0  # NaN compares False, so missing cells pass
        if fractional.any():
            i, j = map(int, np.argwhere(fractional)[0])
            raise ConfigError(
                f"respondent {self.respondents[i]!r}, item {self.items[j]!r}: "
                f"value {a[i, j]} is not an integer"
            )
        a = a.copy()
        a.flags.writeable = False
        object.__setattr__(self, "values", a)
        object.__setattr__(self, "items", tuple(self.items))
        object.__setattr__(self, "respondents", tuple(self.respondents))

    @property
    def n(self) -> int:
        return len(self.respondents)

    @property
    def p(self) -> int:
        return len(self.items)


@dataclass(frozen=True)
class ScaleDefinition:
    """A named, ordered group of item ids intended to measure one construct."""

    name: str
    item_ids: tuple[str, ...]

    def __post_init__(self):
        if not self.item_ids:
            raise TooFewItems(f"scale {self.name!r} has no items")
        if len(set(self.item_ids)) != len(self.item_ids):
            raise DuplicateId("scale item", _first_duplicate(self.item_ids))
        object.__setattr__(self, "item_ids", tuple(self.item_ids))

    def check_against(self, ds: SurveyDataset) -> None:
        unknown = [it for it in self.item_ids if it not in ds.items]
        if unknown:
            raise UnknownItem(self.name, unknown)


@dataclass(frozen=True)
class AnalysisView:
    """A dataset seen through a missing-data policy.

    ``data`` is the table handed to downstream statistics: listwise views
    contain only complete rows, pairwise views keep NaN and defer exclusion
    to each item pair. ``effective_n`` is the rows kept (listwise, strict)
    or the smallest count of rows complete on an item pair (pairwise).
    """

    items: tuple[str, ...]
    data: np.ndarray = field(repr=False)
    effective_n: int


def parse_likert(text: str) -> tuple[int, int]:
    """Likert bounds from ``A:B`` text, checked by check_likert."""
    lo, _, hi = text.partition(":")
    try:
        bounds = (int(lo), int(hi))  # no colon leaves hi empty
    except ValueError:
        raise ConfigError(f"likert bounds {text!r} must look like 1:7") from None
    check_likert(*bounds)
    return bounds


def check_likert(likert_min: int, likert_max: int, ordered: bool = True) -> None:
    """Reject a bound that is not an integer within ±LIKERT_LIMIT, and, if ordered, min >= max.

    A NaN or a non-number fails the limit; a float within it fails as_int.
    """
    bounds = (likert_min, likert_max)
    if not all(isinstance(b, numbers.Real) and -LIKERT_LIMIT <= b <= LIKERT_LIMIT
               for b in bounds):
        raise ConfigError("likert bounds must lie within [-2^53, 2^53]")
    for b in bounds:
        as_int(b, "likert bound")
    if ordered and likert_min >= likert_max:
        raise ConfigError("likert_min must be strictly below likert_max")


def split_items(text: str) -> tuple[str, ...]:
    """Item ids from comma-separated text, each stripped, blanks dropped."""
    return tuple(tok.strip() for tok in text.split(",") if tok.strip())


def _first_duplicate(seq: Iterable[str]) -> str:
    seen = set()
    for s in seq:
        if s in seen:
            return s
        seen.add(s)
    return ""


def read_text(path: str | Path) -> str:
    """The text of a UTF-8 file, line ends untranslated.

    A byte sequence that is not UTF-8 raises ParseError naming its 1-based
    line, the first bad byte and its offset in the file.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(line, "", f"byte 0x{data[exc.start]:02x} at offset {exc.start}"
                                   " is not UTF-8") from None


def load_csv(
    path: str | Path,
    likert_min: int,
    likert_max: int,
    missing_token: str = MISSING_TOKEN,
) -> SurveyDataset:
    """Read a survey CSV into a validated SurveyDataset.

    First header cell names the respondent-id column, the rest are item ids.
    Cells must parse as integers or equal ``missing_token`` exactly.
    """
    return loads_csv(read_text(path), likert_min, likert_max, missing_token)


def loads_csv(
    text: str,
    likert_min: int,
    likert_max: int,
    missing_token: str = MISSING_TOKEN,
) -> SurveyDataset:
    """Same as load_csv but from an in-memory string."""
    check_likert(likert_min, likert_max, ordered=False)  # SurveyDataset checks the order
    if not isinstance(missing_token, str):
        raise ConfigError(f"missing token must be a string, got {missing_token!r}")
    # untranslated line ends, so a quoted cell keeps its CR LF
    reader = _records(csv.reader(io.StringIO(text, newline="")))
    try:
        header = next(reader)
    except StopIteration:
        raise EmptyDataset("file has no header row") from None
    if len(header) < 2:
        raise ParseError(1, header[0] if header else "", "header needs id column plus items")
    items = [h.strip() for h in header[1:]]
    if len(set(items)) != len(items):
        raise DuplicateId("item", _first_duplicate(items))

    respondents: list[str] = []
    seen_ids: set[str] = set()
    rows: list[list[float]] = []
    tokens: dict[str, float] = {}  # every cell text accepted so far -> its value
    for lineno, record in enumerate(reader, start=2):
        if not record or all(not c.strip() for c in record):
            continue
        if len(record) != len(items) + 1:
            raise ParseError(lineno, "", f"expected {len(items) + 1} cells, got {len(record)}")
        rid = record[0].strip()
        if rid in seen_ids:
            raise DuplicateId("respondent", rid)
        seen_ids.add(rid)
        try:
            row = list(map(tokens.__getitem__, record[1:]))
        except KeyError:
            row = [_cell(tokens, cell, lineno, item, likert_min, likert_max, missing_token)
                   for item, cell in zip(items, record[1:])]
        respondents.append(rid)
        rows.append(row)

    return SurveyDataset(
        items=tuple(items),
        respondents=tuple(respondents),
        values=np.array(rows, dtype=float) if rows else np.empty((0, len(items))),
        likert_min=likert_min,
        likert_max=likert_max,
    )


def _cell(tokens: dict[str, float], cell: str, lineno: int, item: str,
          likert_min: int, likert_max: int, missing_token: str) -> float:
    """Check one cell text, and remember its value in ``tokens``."""
    text = cell.strip()
    if text == missing_token:
        value = math.nan
    else:
        try:
            number = int(text)
        except ValueError:
            raise ParseError(lineno, item, text) from None
        if number < likert_min or number > likert_max:
            raise RangeError(lineno, item, number)
        value = float(number)
    tokens[cell] = value
    return value


def _records(reader):
    """The rows of a csv.reader; a malformed line raises ParseError."""
    try:
        yield from reader
    except csv.Error as exc:
        raise ParseError(reader.line_num, "", str(exc)) from None


def to_csv(ds: SurveyDataset, missing_token: str = MISSING_TOKEN) -> str:
    """Serialize a dataset back to the CSV dialect read by load_csv.

    A ``respondent`` id column, integer cells, LF newlines; loading the
    output reproduces the dataset (round-trip identity).
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["respondent", *ds.items])
    token = _CellTokens(missing_token).__getitem__
    writer.writerows(
        [rid, *map(token, row.tolist())] for rid, row in zip(ds.respondents, ds.values)
    )
    return out.getvalue()


class _CellTokens(dict):
    """Memo of cell value -> CSV token. A NaN equals no key, so it always misses."""

    def __init__(self, missing_token: str):
        super().__init__()
        self.missing_token = missing_token

    def __missing__(self, v: float) -> str:
        if math.isnan(v):
            return self.missing_token
        token = self[v] = str(int(v))
        return token


def check_policy(policy: str) -> None:
    """Reject a missing-data policy outside POLICIES."""
    if policy not in POLICIES:
        raise ConfigError(f"unknown policy {policy!r}, expected one of {POLICIES}")


def complete_cases(ds: SurveyDataset, policy: str = "listwise") -> AnalysisView:
    """Apply a missing-data policy and return the analysis view.

    listwise drops respondents with any missing cell, pairwise defers
    exclusion to each item pair, strict raises on any missing value.
    """
    check_policy(policy)
    missing = np.isnan(ds.values)
    if policy == "strict":
        if missing.any():
            i, j = map(int, np.argwhere(missing)[0])
            raise MissingDataError(
                f"missing cell at respondent {ds.respondents[i]!r}, item {ds.items[j]!r}"
            )
        return AnalysisView(ds.items, ds.values, ds.n)
    if policy == "listwise":
        keep = ~missing.any(axis=1)
        if ds.n and not keep.any():
            raise EmptyAfterDeletion("every respondent has at least one missing cell")
        return AnalysisView(ds.items, ds.values[keep], int(keep.sum()))
    # pairwise: keep all rows; n is the smallest per-pair complete count
    w = (~missing).astype(int)
    return AnalysisView(ds.items, ds.values, int((w.T @ w).min(initial=ds.n)))


@dataclass(frozen=True)
class ItemSummary:
    item: str
    n: int
    missing: int
    mean: float
    sd: float
    min: float
    max: float


def describe(ds: SurveyDataset) -> list[ItemSummary]:
    """Per-item summary (n, missing, mean, sd with n-1 denominator, min, max)."""
    if ds.n == 0 or ds.p == 0:
        raise EmptyDataset("dataset has no rows or no items")
    out = []
    for j, item in enumerate(ds.items):
        col = ds.values[:, j]
        obs = col[~np.isnan(col)]
        n = int(obs.size)
        if n == 0:
            out.append(ItemSummary(item, 0, ds.n, math.nan, math.nan, math.nan, math.nan))
            continue
        sd = float(np.std(obs, ddof=1)) if n > 1 else math.nan
        out.append(
            ItemSummary(
                item=item,
                n=n,
                missing=ds.n - n,
                mean=float(np.mean(obs)),
                sd=sd,
                min=float(np.min(obs)),
                max=float(np.max(obs)),
            )
        )
    return out


def load_scales(path: str | Path) -> list[ScaleDefinition]:
    """Parse the scale sidecar: one ``name: id1,id2,...`` per line.

    Blank lines and ``#`` comments are ignored; duplicate scale names error.
    """
    return parse_scales(read_text(path))


def parse_scales(text: str) -> list[ScaleDefinition]:
    scales: list[ScaleDefinition] = []
    names: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ParseError(lineno, "", raw.strip())
        name, _, rest = line.partition(":")
        name = name.strip()
        if not name:
            raise ParseError(lineno, "", raw.strip())
        if name in names:
            raise DuplicateId("scale", name)
        names.add(name)
        scales.append(ScaleDefinition(name=name, item_ids=split_items(rest)))
    return scales
