"""CSV ingestion, validation, missing-data policies, and summaries."""

from __future__ import annotations

import math

import numpy as np
import pytest

from psychoval import (
    FactorModelSpec,
    ScaleDefinition,
    SurveyDataset,
    complete_cases,
    describe,
    generate,
    load_csv,
    load_scales,
    loads_csv,
    parse_scales,
    to_csv,
)
from psychoval.errors import (
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
from tests.oracles import to_csv_per_cell

CSV_10 = (
    "id,A,B,C\n"
    "r1,1,2,3\n"
    "r2,4,5,6\n"
    "r3,7,6,5\n"
    "r4,2,2,2\n"
    "r5,3,NA,4\n"
    "r6,5,5,5\n"
    "r7,6,1,2\n"
    "r8,7,7,7\n"
    "r9,1,1,1\n"
    "r10,4,3,2\n"
)


class TestParsing:
    def test_basic_shape_and_values(self):
        ds = loads_csv(CSV_10, 1, 7)
        assert ds.items == ("A", "B", "C")
        assert ds.respondents[0] == "r1"
        assert ds.n == 10 and ds.p == 3
        assert ds.values[0, 2] == 3.0
        assert math.isnan(ds.values[4, 1])

    def test_round_trip_is_identity(self):
        ds = loads_csv(CSV_10, 1, 7, missing_token="NA")
        text = to_csv(ds)
        again = loads_csv(text, 1, 7)
        assert again.items == ds.items
        assert again.respondents == ds.respondents
        assert np.array_equal(again.values, ds.values, equal_nan=True)
        # and serialization itself is a fixed point
        assert to_csv(again) == text

    def test_out_of_bounds_value(self):
        with pytest.raises(RangeError):
            loads_csv("id,A\nr1,8\nr2,3\nr3,3\n", 1, 7)
        with pytest.raises(RangeError):
            loads_csv("id,A\nr1,0\nr2,3\nr3,3\n", 1, 7)

    def test_unparseable_cell(self):
        with pytest.raises(ParseError):
            loads_csv("id,A\nr1,x\n", 1, 7)
        with pytest.raises(ParseError):
            loads_csv("id,A\nr1,2.5\n", 1, 7)

    def test_duplicate_ids(self):
        with pytest.raises(DuplicateId):
            loads_csv("id,A\nr1,1\nr1,2\n", 1, 7)
        with pytest.raises(DuplicateId):
            loads_csv("id,A,A\nr1,1,2\n", 1, 7)

    def test_custom_missing_token(self):
        ds = loads_csv("id,A\nr1,.\nr2,3\nr3,4\n", 1, 7, missing_token=".")
        assert math.isnan(ds.values[0, 0])

    def test_load_csv_from_file(self, tmp_path):
        path = tmp_path / "survey.csv"
        path.write_text(CSV_10, encoding="utf-8")
        ds = load_csv(path, 1, 7)
        assert ds.n == 10

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    def test_string_and_file_agree_on_line_ends(self, tmp_path, end):
        text = end.join(["id,A,B", "r1,1,2", "r2,NA,7", "r3,4,4"]) + end
        path = tmp_path / "survey.csv"
        path.write_bytes(text.encode("utf-8"))
        from_text = loads_csv(text, 1, 7)
        from_file = load_csv(path, 1, 7)
        assert from_text.items == from_file.items == ("A", "B")
        assert from_text.respondents == from_file.respondents == ("r1", "r2", "r3")
        assert np.array_equal(from_text.values, from_file.values, equal_nan=True)

    def test_committed_demo_fixture_loads(self, data_dir):
        ds = load_csv(data_dir / "demo_survey.csv", 1, 7)
        assert ds.items == tuple("ABCDEF")
        assert ds.n == 300
        assert not np.isnan(ds.values).any()


class TestDatasetConstruction:
    def test_likert_bounds_must_be_ordered(self):
        with pytest.raises(ConfigError, match="likert_min must be strictly below"):
            SurveyDataset(("A",), ("r1",), np.array([[3.0]]), 7, 7)

    def test_shape_must_match_labels(self):
        with pytest.raises(ConfigError, match=r"values shape \(1, 2\) does not match"):
            SurveyDataset(("A",), ("r1",), np.array([[3.0, 4.0]]), 1, 7)

    def test_first_response_outside_bounds(self):
        values = np.array([[3.0, np.nan], [9.0, 0.0]])
        with pytest.raises(RangeError) as info:
            SurveyDataset(("A", "B"), ("r1", "r2"), values, 1, 7)
        assert (info.value.row, info.value.item, info.value.value) == ("r2", "A", 9.0)

    def test_first_non_integer_response_rejected(self):
        # to_csv writes int(v), so a fractional cell would not round-trip
        values = np.array([[3.0, np.nan], [2.5, 6.9]])
        with pytest.raises(ConfigError, match=r"respondent 'r2', item 'A': value 2.5 is not an integer"):
            SurveyDataset(("A", "B"), ("r1", "r2"), values, 1, 7)

    def test_missing_and_integer_valued_cells_accepted(self):
        values = np.array([[3.0, np.nan], [np.nan, np.nan], [-0.0, 7.0]])
        ds = SurveyDataset(("A", "B"), ("r1", "r2", "r3"), values, -1, 7)
        assert np.array_equal(ds.values, values, equal_nan=True)

    @pytest.mark.parametrize("name", ["demo", "noise", "one_item", "gap"])
    def test_committed_surveys_load(self, data_dir, name):
        ds = load_csv(data_dir / f"{name}_survey.csv", 1, 7)
        assert ds.n > 0

    def test_generated_survey_round_trips(self):
        text = to_csv(generate(FactorModelSpec(loadings=np.full((4, 1), 0.7), n=50, seed=3)))
        assert to_csv(loads_csv(text, 1, 7)) == text


class TestToCsv:
    """to_csv gives the bytes of formatting each cell on its own."""

    @staticmethod
    def dataset() -> SurveyDataset:
        rs = np.random.default_rng(4)
        values = rs.integers(1, 6, (60, 5)).astype(float)
        values[rs.random(values.shape) < 0.2] = np.nan
        values[0] = np.nan  # an all-missing row
        items = ("plain", "comma,item", 'quote"item', "space item", "e")
        respondents = tuple(f"r{i}" if i % 3 else f"r {i},x" for i in range(60))
        return SurveyDataset(items, respondents, values, 1, 5)

    @pytest.mark.parametrize("missing_token", ["NA", "", "-99"])
    def test_same_text_as_per_cell_formatting(self, missing_token):
        ds = self.dataset()
        assert to_csv(ds, missing_token) == to_csv_per_cell(ds, missing_token)

    def test_quoted_ids_and_missing_cells_round_trip(self):
        ds = self.dataset()
        text = to_csv(ds)
        assert '"r 0,x"' in text and '"comma,item"' in text
        again = loads_csv(text, 1, 5)
        assert again.respondents == ds.respondents
        assert np.array_equal(again.values, ds.values, equal_nan=True)


class TestCompleteCases:
    def test_listwise_drops_incomplete_rows(self):
        ds = loads_csv(CSV_10, 1, 7)
        view = complete_cases(ds, "listwise")
        assert view.effective_n == 9
        r5 = ds.respondents.index("r5")
        assert np.array_equal(view.data, np.delete(ds.values, r5, axis=0))

    def test_pairwise_keeps_all_rows_and_counts_pairs(self):
        ds = loads_csv(CSV_10, 1, 7)
        view = complete_cases(ds, "pairwise")
        assert np.array_equal(view.data, ds.values, equal_nan=True)
        assert view.effective_n == 9  # smallest pair count: r5 misses B, so A-B has 9

    def test_strict_rejects_missing(self):
        ds = loads_csv(CSV_10, 1, 7)
        with pytest.raises(MissingDataError):
            complete_cases(ds, "strict")

    def test_strict_passes_complete_data(self):
        ds = loads_csv("id,A,B\nr1,1,2\nr2,3,4\nr3,5,6\n", 1, 7)
        assert complete_cases(ds, "strict").effective_n == 3

    def test_unknown_policy(self):
        with pytest.raises(ConfigError, match="unknown policy 'bogus'"):
            complete_cases(loads_csv(CSV_10, 1, 7), "bogus")

    def test_listwise_empty_after_deletion(self):
        ds = loads_csv("id,A,B\nr1,NA,2\nr2,3,NA\nr3,NA,NA\n", 1, 7)
        with pytest.raises(EmptyAfterDeletion):
            complete_cases(ds, "listwise")


class TestDescribe:
    def test_constant_item_has_zero_sd(self):
        ds = loads_csv("id,A\nr1,4\nr2,4\nr3,4\n", 1, 7)
        (s,) = describe(ds)
        assert s.mean == 4.0 and s.sd == 0.0
        assert s.min == 4.0 and s.max == 4.0

    def test_two_point_spread(self):
        # items [1, 7]: mean 4, sd sqrt(18) with the n-1 denominator
        ds = loads_csv("id,A\nr1,1\nr2,7\n", 1, 7)
        (s,) = describe(ds)
        assert s.mean == pytest.approx(4.0)
        assert s.sd == pytest.approx(math.sqrt(18.0), abs=1e-12)

    def test_missing_counted_not_averaged(self):
        ds = loads_csv("id,A\nr1,2\nr2,NA\nr3,4\n", 1, 7)
        (s,) = describe(ds)
        assert s.n == 2 and s.missing == 1
        assert s.mean == pytest.approx(3.0)

    def test_empty_dataset(self):
        ds = SurveyDataset((), ("r1",), np.empty((1, 0)), 1, 7)
        with pytest.raises(EmptyDataset):
            describe(ds)


class TestScales:
    def test_parse_scales_text(self):
        scales = parse_scales("practice: A, B, C\nattitude: D,E\n")
        assert [s.name for s in scales] == ["practice", "attitude"]
        assert scales[0].item_ids == ("A", "B", "C")
        assert scales[1].item_ids == ("D", "E")

    def test_comments_and_blank_lines_skipped(self):
        scales = parse_scales("# header\n\npractice: A, B\n")
        assert len(scales) == 1

    def test_load_scales_demo_fixture(self, data_dir):
        scales = load_scales(data_dir / "demo_scales.txt")
        assert {s.name for s in scales} == {"practice", "attitude"}

    def test_duplicate_item_in_scale(self):
        with pytest.raises(DuplicateId):
            ScaleDefinition("s", ("A", "A"))

    def test_check_against_unknown_item(self):
        ds = loads_csv("id,A,B\nr1,1,2\nr2,3,4\nr3,5,6\n", 1, 7)
        with pytest.raises(UnknownItem) as info:
            ScaleDefinition("s", ("A", "Z")).check_against(ds)
        assert (info.value.scale, info.value.items) == ("s", ("Z",))

    def test_empty_scale(self):
        with pytest.raises(TooFewItems):
            ScaleDefinition("s", ())
