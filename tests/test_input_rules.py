"""Input rules with one owner each: item labels, the sign convention, Likert
bounds, numeric arrays.

Every function that takes item labels goes through ``core_stats.item_labels``;
every sign-fixed matrix through ``core_stats.lead_signs``; every Likert bound,
whether from a dataset, a CSV, a model or ``--likert``, through
``ingest.check_likert``; every array argument through
``core_stats.as_float_array``.
"""

from __future__ import annotations

import numpy as np
import pytest

from psychoval import (
    FactorModelSpec,
    FactorSolution,
    PipelineConfig,
    SurveyDataset,
    alpha_from_covariance,
    bartlett_sphericity,
    chi_square_sf,
    correlation_matrix,
    equal_probability_thresholds,
    extract_paf,
    extract_pca,
    fit_efa,
    kmo,
    loads_csv,
    parse_model,
    retain_kaiser,
    sample_adequacy_advice,
    sym_eigen,
    varimax_criterion,
)
from psychoval.cli import main
from psychoval.core_stats import SymMatrix, item_labels, lead_signs
from psychoval.errors import ConfigError, DomainError, RangeError, ZeroVariance
from psychoval.ingest import LIKERT_LIMIT, parse_likert, split_items

from . import oracles

P = 4
R4 = SymMatrix(np.full((P, P), 0.3) + 0.7 * np.eye(P))
# two factors of three items, each with communality 0.25
LOW_COMMUNALITY = FactorSolution(
    items=tuple("ABCDEF"), extraction="paf", rotation="none",
    loadings=np.kron(np.eye(2), np.full((3, 1), 0.5)), eigenvalues=np.ones(6),
    phi=np.eye(2),
)


def _correlation_labels(items):
    # labels only show in errors: the last item is constant
    data = np.array([[1, 2, 3, 5], [2, 1, 3, 5], [3, 3, 1, 5], [1, 3, 2, 5]], dtype=float)
    with pytest.raises(ZeroVariance) as exc:
        correlation_matrix(data, items)
    return str(exc.value)


LABEL_TAKERS = {
    "correlation_matrix": _correlation_labels,
    "kmo": lambda items: tuple(kmo(R4, items)[1]),
    "extract_pca": lambda items: extract_pca(R4, 1, items=items).items,
    "extract_paf": lambda items: extract_paf(R4, 1, items=items).items,
    "fit_efa": lambda items: fit_efa(R4, items).items,
    "alpha_from_covariance": lambda items: tuple(
        alpha_from_covariance(R4.values, items).item_total_correlations
    ),
    "FactorModelSpec": lambda items: FactorModelSpec(
        loadings=np.full((P, 1), 0.5), n=10, items=items
    ).items,
}


class TestItemLabels:
    @pytest.mark.parametrize("count", [P - 1, P + 1])
    @pytest.mark.parametrize("name", LABEL_TAKERS)
    def test_wrong_label_count_is_config_error(self, name, count):
        labels = tuple("ABCDEF"[:count])
        with pytest.raises(ConfigError, match=f"{count} item labels given for {P} items"):
            LABEL_TAKERS[name](labels)

    @pytest.mark.parametrize("name", LABEL_TAKERS)
    def test_none_labels_items_by_position(self, name):
        got = LABEL_TAKERS[name](None)
        if name == "correlation_matrix":
            assert got == f"item 'item{P}' has zero variance"
        else:
            assert got == tuple(f"item{j}" for j in range(1, P + 1))

    @pytest.mark.parametrize("name", LABEL_TAKERS)
    def test_unsized_labels_are_config_error(self, name):
        # as in kmo(R, 3), where the 3 was meant for another argument
        with pytest.raises(ConfigError, match="^item labels must be a sequence, got 3$"):
            LABEL_TAKERS[name](3)

    def test_owner(self):
        assert item_labels(None, 2) == ("item1", "item2")
        assert item_labels(["x", "y"], 2) == ("x", "y")
        assert item_labels(None, 0) == ()


class TestLeadSigns:
    def test_matches_per_column_loop(self):
        rng = np.random.default_rng(20)
        for _ in range(300):
            p, m = rng.integers(1, 7), rng.integers(1, 6)
            # small integers tie often; zero columns and -0.0 are kept on purpose
            a = rng.integers(-2, 3, size=(p, m)).astype(float)
            a[:, rng.random(m) < 0.2] = 0.0
            a[rng.random((p, m)) < 0.1] = -0.0
            np.testing.assert_array_equal(lead_signs(a), oracles.lead_signs_per_column(a))

    def test_ties_go_to_lowest_row(self):
        a = np.array([[2.0, -2.0, 0.0], [-2.0, 2.0, 0.0]])
        np.testing.assert_array_equal(lead_signs(a), [1.0, -1.0, 1.0])

    def test_nan_column_keeps_sign(self):
        a = np.array([[-3.0], [np.nan]])
        np.testing.assert_array_equal(lead_signs(a), oracles.lead_signs_per_column(a))


class TestSplitItems:
    def test_strips_and_drops_blanks(self):
        assert split_items(" A, ,B,, C ") == ("A", "B", "C")
        assert split_items("") == ()


EDGE = LIKERT_LIMIT  # 2^53: the last bound at which every integer cell is exact
SPANS_IN = [(EDGE - 6, EDGE), (-EDGE, -EDGE + 6)]
SPANS_OUT = [(EDGE - 5, EDGE + 1), (-EDGE - 1, -EDGE + 5)]


def _dataset(lo, hi):
    values = np.full((2, 2), float(lo))
    return SurveyDataset(("A", "B"), ("r1", "r2"), values, lo, hi)


def _csv(lo, hi):
    return loads_csv(f"id,A,B\nr1,{lo},{hi}\nr2,{hi},{lo}\n", lo, hi)


def _spec(lo, hi):
    # six categories, so the equal-probability cuts stay cheap
    return FactorModelSpec(loadings=np.full((3, 1), 0.5), likert_min=lo, likert_max=hi)


def _model(lo, hi):
    return parse_model(f"n: 5\nlikert: {lo}:{hi}\nloadings:\n  0.5\n  0.5\n  0.5\n")


LIKERT_TAKERS = {
    "SurveyDataset": _dataset,
    "loads_csv": _csv,
    "FactorModelSpec": _spec,
    "parse_model": _model,
    "parse_likert": lambda lo, hi: parse_likert(f"{lo}:{hi}"),
    "equal_probability_thresholds": equal_probability_thresholds,
}


class TestLikertLimit:
    @pytest.mark.parametrize("bounds", SPANS_IN)
    @pytest.mark.parametrize("name", LIKERT_TAKERS)
    def test_two_to_the_53_is_accepted(self, name, bounds):
        LIKERT_TAKERS[name](*bounds)

    @pytest.mark.parametrize("bounds", SPANS_OUT)
    @pytest.mark.parametrize("name", LIKERT_TAKERS)
    def test_beyond_two_to_the_53_is_config_error(self, name, bounds):
        with pytest.raises(ConfigError, match=r"likert bounds must lie within \[-2\^53, 2\^53\]"):
            LIKERT_TAKERS[name](*bounds)

    @pytest.mark.parametrize("bounds", [(1.5, 7), (1, 7.0)])
    @pytest.mark.parametrize("name", ["SurveyDataset", "loads_csv", "FactorModelSpec",
                                      "equal_probability_thresholds"])
    def test_non_integer_bound_is_config_error(self, name, bounds):
        with pytest.raises(ConfigError, match="^likert bound must be an integer, got "):
            LIKERT_TAKERS[name](*bounds)

    def test_numpy_integer_bounds_accepted(self):
        ds = loads_csv("id,A,B\nr1,1,2\nr2,2,1\n", np.int64(1), np.int32(7))
        assert (ds.likert_min, ds.likert_max) == (1, 7)

    def test_nan_bound_is_config_error(self):
        with pytest.raises(ConfigError, match="likert bounds must lie within"):
            _dataset(1, float("nan"))

    def test_csv_checks_bounds_before_any_cell(self):
        # the 400-digit cell is never converted: the bound fails first
        with pytest.raises(ConfigError, match="likert bounds must lie within"):
            loads_csv("id,A,B\nr1," + "9" * 400 + ",1\nr2,1,2\n", 0, 10**400)

    def test_csv_cells_at_the_limit_are_exact(self):
        ds = loads_csv(f"id,A,B\nr1,{EDGE},0\nr2,{EDGE - 1},1\n", 0, EDGE)
        assert ds.values[:, 0].tolist() == [EDGE, EDGE - 1]

    def test_order_is_still_checked_after_the_cells(self):
        # a cell outside reversed bounds is reported first, as cell by cell
        with pytest.raises(RangeError):
            loads_csv("id,A,B\nr1,5,5\n", 7, 1)
        with pytest.raises(ConfigError, match="strictly below"):
            loads_csv("id,A,B\n", 7, 1)

    @pytest.mark.parametrize("text", ["17", "1:", ":7", "1:7:9", "a:b"])
    def test_parse_likert_shape(self, text):
        with pytest.raises(ConfigError, match=f"likert bounds '{text}' must look like 1:7"):
            parse_likert(text)

    def test_model_file_uses_the_same_parser(self):
        with pytest.raises(ConfigError, match="likert bounds '17' must look like 1:7"):
            parse_model("n: 5\nlikert: 17\nloadings:\n  0.5\n  0.5\n  0.5\n")

    def test_cli_accepts_two_to_the_53(self, capsys, data_dir):
        code = main(["validate", "-i", str(data_dir / "demo_survey.csv"),
                     "--likert", f"0:{EDGE}", "-f", "json"])
        assert code == 0
        assert f'"likert_max": {EDGE}' in capsys.readouterr().out

    @pytest.mark.parametrize("bounds", ["0:9007199254740993", "-9007199254740993:0",
                                        "0:100000000000000000000"])
    def test_cli_rejects_beyond_as_usage_error(self, capsys, data_dir, bounds):
        code = main(["validate", "-i", str(data_dir / "demo_survey.csv"), f"--likert={bounds}"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.splitlines()[-1] == (
            "psychoval validate: error: argument --likert: "
            "likert bounds must lie within [-2^53, 2^53]"
        )


ARRAY_TAKERS = {
    "SymMatrix": lambda: SymMatrix([["a"]]),
    "correlation_matrix": lambda: correlation_matrix(np.full((4, 2), "x")),
    "correlation_matrix.ragged": lambda: correlation_matrix([[1, 2], [3]]),
    "alpha_from_covariance": lambda: alpha_from_covariance([["a", "0"], ["0", "b"]]),
    "SurveyDataset": lambda: SurveyDataset(("A",), ("r1",), [["x"]], 1, 7),
    "FactorModelSpec.loadings": lambda: FactorModelSpec(loadings=[["a"]]),
    "FactorModelSpec.phi": lambda: FactorModelSpec(loadings=[[0.5]], phi=[["a"]]),
    "FactorModelSpec.thresholds": lambda: FactorModelSpec(
        loadings=[[0.5]], likert_min=1, likert_max=2, thresholds=["a"]
    ),
    "FactorSolution": lambda: FactorSolution(
        ("A",), "pca", "none", [["a"]], [1.0], [[1.0]], [0.5]
    ),
    "sym_eigen.basis": lambda: sym_eigen(R4, basis=np.full((P, P), "b")),
    "retain_kaiser": lambda: retain_kaiser(["a", 2.0]),
    "varimax_criterion": lambda: varimax_criterion([["a", 0.5]]),
}


COMPLEX_TAKERS = {
    "SymMatrix": lambda: SymMatrix(np.eye(2) * (1 + 1j)),
    "correlation_matrix": lambda: correlation_matrix(np.arange(8.0).reshape(4, 2) * 1j),
    "SurveyDataset": lambda: SurveyDataset(("A",), ("r1",), [[2 + 0j]], 1, 7),
    "FactorModelSpec.loadings": lambda: FactorModelSpec(loadings=[[0.5 + 0.1j]]),
    "sym_eigen.basis": lambda: sym_eigen(R4, basis=np.eye(P, dtype=complex)),
    "varimax_criterion": lambda: varimax_criterion([[0.5j, 0.5]]),
}


class TestNumericArrays:
    @pytest.mark.parametrize("name", ARRAY_TAKERS)
    def test_non_numeric_entry_is_domain_error(self, name):
        with pytest.raises(DomainError, match="must be an array of numbers$"):
            ARRAY_TAKERS[name]()

    @pytest.mark.parametrize("name", COMPLEX_TAKERS)
    def test_complex_entry_is_domain_error(self, name):
        # a cast to float would warn and drop the imaginary parts
        with pytest.raises(DomainError, match="must be real, got complex numbers$"):
            COMPLEX_TAKERS[name]()

    @pytest.mark.parametrize("thresholds", [5, "abc"])
    def test_scalar_thresholds_are_config_error(self, thresholds):
        with pytest.raises(ConfigError, match="^thresholds must be a sequence of cut points"):
            FactorModelSpec(loadings=[[0.5]], likert_min=1, likert_max=2,
                            thresholds=thresholds)

    def test_threshold_array_is_one_shared_row(self):
        spec = FactorModelSpec(loadings=np.full((2, 1), 0.5), likert_min=1, likert_max=3,
                               thresholds=np.array([-0.5, 0.5]))
        assert spec.thresholds == ((-0.5, 0.5), (-0.5, 0.5))


class TestScalarArguments:
    @pytest.mark.parametrize("n", ["300", 300.5, None])
    def test_bartlett_sample_size_must_be_an_integer(self, n):
        with pytest.raises(ConfigError, match="^sample size n must be an integer, got "):
            bartlett_sphericity(R4, n)

    def test_bartlett_numpy_integer_sample_size(self):
        assert bartlett_sphericity(R4, np.int64(300)) == bartlett_sphericity(R4, 300)

    @pytest.mark.parametrize("n", ["300", 300.5, None])
    def test_advice_sample_size_must_be_an_integer(self, n):
        # a low-communality solution with 3 items per factor, where n is compared
        with pytest.raises(ConfigError, match="^sample size n must be an integer, got "):
            sample_adequacy_advice(LOW_COMMUNALITY, n)

    def test_advice_numpy_integer_sample_size(self):
        advice = sample_adequacy_advice(LOW_COMMUNALITY, np.int64(150))
        assert advice == sample_adequacy_advice(LOW_COMMUNALITY, 150)
        assert advice.caution

    @pytest.mark.parametrize("args,what", [
        (("3", 2), "chi-square statistic"),
        ((3.0, "2"), "degrees of freedom"),
        ((None, 2), "chi-square statistic"),
    ])
    def test_chi_square_sf_refuses_non_numbers(self, args, what):
        with pytest.raises(ConfigError, match=f"^{what} must be a number, got "):
            chi_square_sf(*args)

    @pytest.mark.parametrize("retention", [None, 3, ("fixed", 2)])
    def test_pipeline_config_retention_must_be_a_string(self, retention):
        with pytest.raises(ConfigError, match="^retention must be a string, got "):
            PipelineConfig(retention=retention)

    def test_fit_efa_retention_must_be_a_string(self):
        with pytest.raises(ConfigError, match="^retention must be a string, got 3$"):
            fit_efa(R4, retention=3)
