"""Fuzzing the text parsers: whatever the input, only PsychovalError escapes.

Inputs mix free text with near-valid documents assembled from fragments
that each hit one branch of the parser (missing tokens, bad cells,
duplicate ids, unknown keys, non-finite numbers).
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import numpy as np

from psychoval import loads_csv, parse_model, parse_scales
from psychoval.errors import PsychovalError

from . import oracles

FUZZ = settings(max_examples=300, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def joined(pieces, sep: str):
    return st.lists(pieces, max_size=8).map(sep.join)


CELL_TOKENS = ["1", "4", "7", "NA", "", " 3 ", "-1", "0", "8", "x", "1.5", '"', "1_0", "\x00",
               "9" * 40]
CELLS = st.sampled_from(CELL_TOKENS)
CSV_ROW = joined(st.one_of(CELLS, st.text(max_size=3)), ",")
CSV = st.one_of(
    st.text(max_size=200),
    joined(CSV_ROW, "\n"),
    st.builds(
        lambda head, body: f"{head}\n{body}",
        st.sampled_from(["id,A,B", "id,A,A", "id", "", "id,A,B,C", "id, A ,B"]),
        joined(CSV_ROW, "\n"),
    ),
)


@given(
    CSV,
    st.integers(-2, 9),
    st.integers(-2, 9),
    st.sampled_from(["NA", "", ".", "x"]),
)
@FUZZ
def test_loads_csv_raises_only_domain_errors(text, lo, hi, missing):
    try:
        loads_csv(text, lo, hi, missing_token=missing)
    except PsychovalError:
        pass


def parse_outcome(parse, *args, **kwargs):
    try:
        return parse(*args, **kwargs)
    except PsychovalError as exc:
        return type(exc), str(exc)


MISSING = st.sampled_from(["NA", "", ".", "x"])


@st.composite
def grids(draw):
    """A rectangular table of mostly valid cells, with valid parser arguments."""
    missing = draw(MISSING)
    cells = st.sampled_from(["1", "2", "5", " 3 ", "-0", "+4", missing] * 8 + CELL_TOKENS)
    rows = draw(st.lists(st.lists(cells, min_size=3, max_size=3), max_size=6))
    text = "id,A,B,C\n" + "".join(f"r{k},{','.join(r)}\n" for k, r in enumerate(rows))
    bounds = draw(st.sampled_from([(0, 7), (-2, 9), (1, 5)]))
    return text, bounds, missing


DOCUMENTS = st.one_of(
    st.tuples(CSV, st.tuples(st.integers(-2, 9), st.integers(-2, 9)), MISSING),
    grids(),
)


@given(DOCUMENTS)
@FUZZ
def test_loads_csv_matches_per_cell_oracle(document):
    # the token map gives the cells, or the first error, of checking one
    # cell at a time
    text, bounds, missing = document
    got = parse_outcome(loads_csv, text, *bounds, missing_token=missing)
    expected = parse_outcome(oracles.loads_csv_per_cell, text, *bounds,
                             missing_token=missing)
    if isinstance(expected, tuple):
        assert got == expected
    else:
        assert (got.items, got.respondents) == (expected.items, expected.respondents)
        assert np.array_equal(got.values, expected.values, equal_nan=True)


SCALE_LINES = st.sampled_from(
    ["a: A,B", "b:", ":x", "a: A,A", "# c", "", "c: Z", "x y", "d: A, ,B # note"]
)


@given(st.one_of(st.text(max_size=200), joined(SCALE_LINES, "\n")))
@FUZZ
def test_parse_scales_raises_only_domain_errors(text):
    try:
        parse_scales(text)
    except PsychovalError:
        pass


NUMBERS = st.lists(
    st.sampled_from(["0.5", "0.7", "0", "1", "-0.3", "0.99", "2", "nan", "inf", "1e400", "x"]),
    min_size=1, max_size=3,
).map(lambda tokens: "  " + " ".join(tokens))
MODEL_LINES = st.one_of(
    NUMBERS,
    st.sampled_from([
        "n: 10", "n: 0", "n: x", "n: -3", "seed: 5", "seed: x", "likert: 1:5",
        "likert: 5:1", "likert: 1", "likert: a:b", "items: A,B", "items: A",
        "items: ,", "loadings:", "phi:", "thresholds:", "loadings: 3",
        "bogus: 1", "# comment", "", "no colon",
    ]),
)


@given(
    st.one_of(st.text(max_size=200), joined(MODEL_LINES, "\n")),
    st.one_of(st.none(), st.integers(-2, 50)),
    st.one_of(st.none(), st.integers(-2, 50)),
)
@FUZZ
def test_parse_model_raises_only_domain_errors(text, n, seed):
    try:
        parse_model(text, n=n, seed=seed)
    except PsychovalError:
        pass
