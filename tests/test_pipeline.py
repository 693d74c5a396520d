"""End-to-end validation pipeline: staging, gating, reporting, round trips."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

import numpy as np
import pytest

from psychoval import (
    AdequacyReport,
    FactorModelSpec,
    PipelineConfig,
    SurveyDataset,
    ValidationReport,
    assign_items,
    complete_cases,
    correlation_matrix,
    extract_paf,
    fit_efa,
    generate,
    load_csv,
    msa_prune,
    render_report,
    retain_kaiser,
    rotate_oblimin,
    run_validation,
    sort_and_sign,
    to_csv,
)
from psychoval import core_stats, efa
from psychoval.adequacy import sphericity_gate
from psychoval.cli import main
from psychoval.errors import (
    AssumptionsNotMet,
    BadFactorCount,
    ConfigError,
    NoConvergence,
    TooFewItems,
)
from psychoval.ingest import POLICIES
from psychoval.pipeline import STAGES, _record, json_bytes
from tests.conftest import ITEMS6, two_block_loadings
from tests.frozen import PRUNE_SEED


@pytest.fixture(scope="module")
def small_round_trip():
    spec = FactorModelSpec(loadings=two_block_loadings(), n=500, seed=101,
                           items=ITEMS6)
    return run_validation(generate(spec), source="memory")


@pytest.fixture(scope="module")
def prune_report():
    L = np.zeros((7, 2))
    L[:3, 0] = 0.8
    L[3:6, 1] = 0.8
    spec = FactorModelSpec(loadings=L, n=400, seed=PRUNE_SEED,
                           items=tuple("ABCDEFG"))
    return run_validation(generate(spec))


class TestRoundTrip:
    def test_retains_two_factors(self, small_round_trip):
        assert small_round_trip.solution.m == 2

    def test_assignment_matches_generator_blocks(self, small_round_trip):
        # factor labels follow explained variance, so compare the partition
        blocks = {frozenset(s.items) for s in small_round_trip.scales}
        assert blocks == {frozenset("ABC"), frozenset("DEF")}
        assert {s.name for s in small_round_trip.scales} == {"F1", "F2"}

    def test_alphas_acceptable(self, small_round_trip):
        for scale in small_round_trip.scales:
            assert scale.alpha_raw >= 0.7
            assert scale.alpha_standardized >= 0.7

    def test_stage_sequence_recorded(self, small_round_trip):
        assert small_round_trip.stages == STAGES

    def test_dataset_block(self, small_round_trip):
        d = small_round_trip.dataset
        assert d["source"] == "memory"
        assert d["n"] == 500 and d["effective_n"] == 500
        assert d["p"] == 6
        assert tuple(d["items"]) == ITEMS6
        assert tuple(d["items_retained"]) == ITEMS6

    def test_no_warnings_on_clean_run(self, small_round_trip):
        assert small_round_trip.warnings == ()


class TestSphericityGate:
    def test_noise_aborts_with_stage(self, noise_dataset):
        with pytest.raises(AssumptionsNotMet) as exc_info:
            run_validation(noise_dataset)
        assert exc_info.value.stage == "bartlett"

    def test_force_continues_with_warning(self, noise_dataset):
        cfg = PipelineConfig(force=True, msa_threshold=0.0,
                             rotation="none", retention="fixed:1")
        report = run_validation(noise_dataset, cfg)
        assert any("AssumptionsNotMet" in w for w in report.warnings)
        assert len(report.warnings) == len(set(report.warnings))

    def test_relaxed_alpha_lets_noise_through(self, noise_dataset):
        # the frozen noise fixture has Bartlett p = 0.998
        cfg = PipelineConfig(bartlett_alpha=0.999, msa_threshold=0.0,
                             rotation="none", retention="fixed:1")
        report = run_validation(noise_dataset, cfg)
        assert report.adequacy.bartlett["p"] > 0.99


class TestStageTags:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_zero_items_refused_alike(self, policy):
        ds = SurveyDataset((), ("r1", "r2", "r3"), np.empty((3, 0)), 1, 7)
        with pytest.raises(TooFewItems, match="^bartlett needs >= 2 items, got 0$") as exc_info:
            run_validation(ds, PipelineConfig(policy=policy))
        assert exc_info.value.stage == "bartlett"

    def test_retention_error_tagged(self, two_factor_dataset):
        with pytest.raises(BadFactorCount) as exc_info:
            run_validation(two_factor_dataset, PipelineConfig(retention="fixed:9"))
        assert exc_info.value.stage == "retention"

    @pytest.mark.parametrize(
        "target, cfg, stage",
        [
            ("extract_paf", PipelineConfig(), "extraction"),
            ("rotate_varimax", PipelineConfig(rotation="varimax"), "rotation"),
            ("rotate_oblimin", PipelineConfig(), "rotation"),
        ],
    )
    def test_no_convergence_tagged(self, monkeypatch, two_factor_dataset,
                                   target, cfg, stage):
        def stuck(*args, **kwargs):
            raise NoConvergence(f"{target}: stuck", residual=1.0)

        monkeypatch.setattr(efa, target, stuck)
        with pytest.raises(NoConvergence) as exc_info:
            run_validation(two_factor_dataset, cfg)
        assert exc_info.value.stage == stage


@pytest.fixture(scope="module")
def instrument_600x20():
    """600 respondents, 20 items on 4 factors, loadings 0.60 to 0.74 per block."""
    L = np.zeros((20, 4))
    for f in range(4):
        L[5 * f:5 * f + 5, f] = 0.60 + 0.035 * np.arange(5)
    return generate(FactorModelSpec(loadings=L, n=600, seed=11))


# patched budget, config, stage tag, message naming the budget, tolerance
BUDGETS = {
    "paf": ((efa, "PAF_MAX_ITER", 2), {}, "extraction",
            r"principal axis factoring: .* after 2 iterations", efa.PAF_TOL),
    "varimax": ((efa, "VARIMAX_MAX_SWEEPS", 1), {"rotation": "varimax"}, "rotation",
                r"varimax: criterion still improving after 1 sweeps", efa.VARIMAX_TOL),
    "oblimin": ((efa, "OBLIMIN_MAX_ITER", 1), {}, "rotation",
                r"oblimin: gradient norm .* after 1 iterations", efa.OBLIMIN_GTOL),
    "jacobi": ((core_stats, "JACOBI_MAX_SWEEPS", 1), {}, "bartlett",
               r"Jacobi: 1 sweeps exhausted", core_stats.JACOBI_TOL),
}


class TestBudgetExhaustion:
    """Each iteration budget, run out on a 600 x 20 instrument with m = 4."""

    def test_instrument_fits_within_every_budget(self, instrument_600x20):
        for cfg in (PipelineConfig(), PipelineConfig(rotation="varimax")):
            report = run_validation(instrument_600x20, cfg)
            assert report.solution.m == 4
            assert report.prune_trail == ()

    @pytest.mark.parametrize("case", BUDGETS)
    def test_exhausted_budget_raises_tagged(self, instrument_600x20, numerics, case):
        (module, name, value), options, tag, message, tol = BUDGETS[case]
        numerics(module, **{name: value})
        with pytest.raises(NoConvergence, match=message) as exc_info:
            run_validation(instrument_600x20, PipelineConfig(**options))
        assert exc_info.value.stage == tag
        assert math.isfinite(exc_info.value.residual)
        assert exc_info.value.residual >= tol

    def test_cli_exits_one_with_the_stage(self, instrument_600x20, numerics,
                                          tmp_path, capsys):
        path = tmp_path / "instrument.csv"
        path.write_text(to_csv(instrument_600x20))
        numerics(efa, PAF_MAX_ITER=2)
        assert main(["validate", "-i", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("NoConvergence: principal axis factoring: ")
        assert line.endswith(" after 2 iterations [stage: extraction]")


class TestConfigPassThrough:
    def test_pca_no_rotation_fixed_two(self, two_factor_dataset):
        cfg = PipelineConfig(extraction="pca", rotation="none",
                             retention="fixed:2")
        report = run_validation(two_factor_dataset, cfg)
        sol = report.solution
        assert sol.extraction == "pca"
        assert sol.rotation == "none"
        assert sol.m == 2
        assert np.array_equal(sol.phi, np.eye(2))
        assert report.config.extraction == "pca"
        assert report.config.retention == "fixed:2"

    def test_fixed_one(self, two_factor_dataset):
        cfg = PipelineConfig(retention="fixed:1", rotation="none")
        report = run_validation(two_factor_dataset, cfg)
        assert report.solution.m == 1

    def test_varimax_choice_recorded(self, two_factor_dataset):
        cfg = PipelineConfig(extraction="paf", rotation="varimax")
        report = run_validation(two_factor_dataset, cfg)
        assert report.solution.rotation == "varimax"

    def test_config_echo_reproduces_run(self, two_factor_dataset):
        cfg = PipelineConfig(extraction="pca", rotation="varimax",
                             msa_threshold=0.3, loading_cutoff=0.35)
        first = run_validation(two_factor_dataset, cfg)
        echoed = PipelineConfig(**first.config.to_dict())
        second = run_validation(two_factor_dataset, echoed)
        assert first.to_dict() == second.to_dict()
        assert render_report(first, "json") == render_report(second, "json")


class TestComposition:
    def test_manual_stage_composition_matches_pipeline(self, two_factor_dataset):
        cfg = PipelineConfig()  # paf + oblimin + kaiser
        report = run_validation(two_factor_dataset, cfg)

        view = complete_cases(two_factor_dataset, cfg.policy)
        R = correlation_matrix(view.data, list(view.items))
        m = retain_kaiser(sym_eigenvalues(R))
        sol = sort_and_sign(
            rotate_oblimin(extract_paf(R, m, items=view.items), cfg.gamma)
        )
        assert np.array_equal(report.solution.loadings, sol.loadings)
        assert np.array_equal(report.solution.phi, sol.phi)

        assigned = assign_items(sol, cfg.loading_cutoff)
        f1 = tuple(it for it in sol.items
                   if assigned[it].status == "assigned"
                   and assigned[it].factor == 0)
        assert f1 == tuple(report.scales[0].items)


def sym_eigenvalues(R):
    from psychoval import sym_eigen

    return sym_eigen(R).eigenvalues


class TestPruneIntegration:
    def test_noise_item_removed_before_extraction(self, prune_report):
        assert [s.item for s in prune_report.prune_trail] == ["G"]
        assert tuple(prune_report.dataset["items_retained"]) == tuple("ABCDEF")
        assert prune_report.solution.items == tuple("ABCDEF")

    def test_adequacy_reports_full_item_set(self, prune_report):
        assert list(prune_report.adequacy.msa) == list("ABCDEFG")

    def test_prune_trail_serialized(self, prune_report):
        doc = json.loads(render_report(prune_report, "json"))
        assert [step["item"] for step in doc["prune_trail"]] == ["G"]
        step = doc["prune_trail"][0]
        assert step["msa"] < 0.5
        assert step["kmo_after"] > doc["adequacy"]["kmo_overall"]


class TestRendering:
    def test_json_is_deterministic(self, two_factor_dataset):
        a = render_report(run_validation(two_factor_dataset), "json")
        b = render_report(run_validation(two_factor_dataset), "json")
        assert a == b

    def test_json_schema_keys(self, small_round_trip):
        doc = json.loads(render_report(small_round_trip, "json"))
        assert set(doc) == {
            "dataset", "adequacy", "prune_trail", "solution", "scales",
            "advice", "warnings", "config", "stages",
        }
        assert set(doc["adequacy"]) == {"bartlett", "kmo_overall", "msa"}
        assert set(doc["adequacy"]["bartlett"]) == {"chi2", "df", "p"}
        sol = doc["solution"]
        for key in ("extraction", "rotation", "m", "eigenvalues", "loadings",
                    "structure", "phi", "communalities",
                    "variance_explained"):
            assert key in sol

    def test_report_fields_are_the_json_layout(self, small_round_trip):
        doc = json.loads(render_report(small_round_trip, "json"))
        assert [f.name for f in fields(ValidationReport)] == list(doc)
        assert [f.name for f in fields(AdequacyReport)] == list(doc["adequacy"])

    def test_two_item_scale_serializes_null_alpha_if_deleted(self):
        L = np.zeros((4, 2))
        L[:2, 0] = 0.8
        L[2:, 1] = 0.8
        spec = FactorModelSpec(loadings=L, n=400, seed=11,
                               items=("A", "B", "C", "D"))
        # msa_threshold 0: two-item blocks sit at MSA ~ 0.5 by construction
        cfg = PipelineConfig(retention="fixed:2", rotation="varimax",
                             msa_threshold=0.0)
        report = run_validation(generate(spec), cfg)
        assert all(len(s.items) == 2 for s in report.scales)
        doc = json.loads(render_report(report, "json"))
        for scale in doc["scales"]:
            assert set(scale["alpha_if_deleted"].values()) == {None}

    def test_text_contains_warnings_section_only_when_present(
        self, small_round_trip, noise_dataset
    ):
        clean = render_report(small_round_trip, "text").decode("utf-8")
        assert "WARNINGS" not in clean
        cfg = PipelineConfig(force=True, msa_threshold=0.0,
                             rotation="none", retention="fixed:1")
        noisy_report = run_validation(noise_dataset, cfg)
        noisy = render_report(noisy_report, "text").decode("utf-8")
        assert "WARNINGS" in noisy
        for w in noisy_report.warnings:
            assert noisy.count(w) == 1

    def test_text_shows_key_numbers(self, small_round_trip):
        text = render_report(small_round_trip, "text").decode("utf-8")
        assert "kmo overall" in text
        assert "bartlett" in text
        assert "F1" in text and "F2" in text
        for item in ITEMS6:
            assert item in text

    def test_unknown_format_rejected(self, small_round_trip):
        with pytest.raises(ConfigError):
            render_report(small_round_trip, "yaml")


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"policy": "bogus"},
            {"extraction": "ml"},
            {"rotation": "promax"},
            {"retention": "fixed:0"},
            {"retention": "fixed:x"},
            {"retention": "parallel"},
            {"bartlett_alpha": 0.0},
            {"bartlett_alpha": 1.5},
            {"msa_threshold": -0.1},
            {"msa_threshold": 1.0},
            {"loading_cutoff": 0.0},
            {"loading_cutoff": 1.0},
        ],
    )
    def test_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            PipelineConfig(**kwargs)

    def test_policy_has_one_check(self):
        # the config and the policy stage reject a policy with one message
        expected = "unknown policy 'bogus', expected one of ('listwise', 'pairwise', 'strict')"
        with pytest.raises(ConfigError) as config:
            PipelineConfig(policy="bogus")
        ds = SurveyDataset(items=("A", "B"), respondents=("r1", "r2"),
                           values=np.ones((2, 2)), likert_min=1, likert_max=5)
        with pytest.raises(ConfigError) as cases:
            complete_cases(ds, "bogus")
        assert str(config.value) == str(cases.value) == expected

    @pytest.mark.parametrize(
        "field, gate",
        [
            ("bartlett_alpha", lambda view, alpha: sphericity_gate(0.9, alpha)),
            ("msa_threshold", msa_prune),
            ("loading_cutoff",
             lambda view, cutoff: assign_items(
                 fit_efa(correlation_matrix(view.data, view.items), view.items), cutoff)),
        ],
        ids=["sphericity_gate", "msa_prune", "assign_items"],
    )
    @pytest.mark.parametrize("value", [math.nan, -0.5, 1.0, 1.5])
    def test_gates_reject_what_the_config_rejects(self, data_dir, field, gate, value):
        # unchecked, the demo file passes the gate at NaN and prunes to 3 items at 1.5
        view = complete_cases(load_csv(data_dir / "demo_survey.csv", 1, 7))
        with pytest.raises(ConfigError) as config:
            PipelineConfig(**{field: value})
        with pytest.raises(ConfigError) as gated:
            gate(view, value)
        assert str(gated.value) == str(config.value)

    @pytest.mark.parametrize("value", ["false", "", 0, 1, None])
    def test_non_bool_force_rejected(self, value):
        # a truthy "false" would otherwise carry a noise survey past the gate
        with pytest.raises(ConfigError, match=f"^force must be True or False, got {value!r}$"):
            PipelineConfig(force=value)

    @pytest.mark.parametrize("value", ["0.5", None, True, [0.5]])
    @pytest.mark.parametrize("field",
                             ["bartlett_alpha", "msa_threshold", "gamma", "loading_cutoff"])
    def test_non_number_rejected(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field} must be a number, got "):
            PipelineConfig(**{field: value})

    def test_numpy_numbers_accepted(self):
        cfg = PipelineConfig(bartlett_alpha=np.float32(0.05), msa_threshold=np.float64(0.5),
                             gamma=np.int64(0), loading_cutoff=np.float64(0.4))
        assert cfg.gamma == 0

    @pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("rotation", ["oblimin", "varimax", "none"])
    def test_non_finite_gamma_rejected(self, gamma, rotation):
        with pytest.raises(ConfigError, match="^gamma must be finite$"):
            PipelineConfig(gamma=gamma, rotation=rotation)

    def test_to_dict_is_fields_in_order(self):
        cfg = PipelineConfig(retention="fixed:2", gamma=0.5, force=True)
        assert list(cfg.to_dict()) == [
            "policy", "bartlett_alpha", "msa_threshold", "extraction",
            "retention", "rotation", "gamma", "loading_cutoff", "force",
        ]
        assert PipelineConfig(**cfg.to_dict()) == cfg

    def test_defaults_echoed(self, small_round_trip):
        cfg = small_round_trip.config
        assert cfg.policy == "listwise"
        assert cfg.extraction == "paf"
        assert cfg.rotation == "oblimin"
        assert cfg.retention == "kaiser"
        assert cfg.bartlett_alpha == 0.05


def _with_missing(ds: SurveyDataset, share: float, seed: int) -> SurveyDataset:
    values = ds.values.copy()
    values[np.random.default_rng(seed).random(values.shape) < share] = np.nan
    return SurveyDataset(ds.items, ds.respondents, values, ds.likert_min, ds.likert_max)


def _assert_close(a, b, path="report"):
    """Equal structure and non-float leaves; floats within 1e-10."""
    if isinstance(a, dict):
        assert list(a) == list(b), path
        for k in a:
            _assert_close(a[k], b[k], f"{path}.{k}")
    elif isinstance(a, list):
        assert len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_close(x, y, f"{path}[{i}]")
    elif isinstance(a, float):
        assert abs(a - b) <= 1e-10, path
    else:
        assert a == b, path


class TestInvariance:
    """Relabeling items or shifting the Likert scale changes no statistic."""

    @pytest.fixture(
        scope="class",
        params=[
            ("listwise", "oblimin", None),
            ("pairwise", "varimax", 0.1),
        ],
        ids=["listwise-oblimin", "pairwise-varimax-missing"],
    )
    def case(self, request):
        policy, rotation, missing = request.param
        L = np.zeros((7, 2))
        L[:3, 0] = 0.8
        L[3:6, 1] = 0.8
        spec = FactorModelSpec(loadings=L, n=400, seed=PRUNE_SEED,
                               items=tuple("ABCDEFG"))
        ds = generate(spec)
        if missing:
            ds = _with_missing(ds, missing, seed=5)
        cfg = PipelineConfig(policy=policy, rotation=rotation)
        return ds, cfg, run_validation(ds, cfg)

    def test_item_permutation(self, case):
        ds, cfg, base = case
        perm = [4, 6, 0, 2, 5, 1, 3]
        permuted = SurveyDataset(
            tuple(ds.items[j] for j in perm), ds.respondents,
            ds.values[:, perm], ds.likert_min, ds.likert_max,
        )
        report = run_validation(permuted, cfg)
        assert [s.item for s in report.prune_trail] == [s.item for s in base.prune_trail]
        for item, value in base.adequacy.msa.items():
            assert abs(report.adequacy.msa[item] - value) <= 1e-10
        assert np.max(np.abs(report.solution.eigenvalues - base.solution.eigenvalues)) <= 1e-10
        sol, ref = report.solution, base.solution
        assert set(sol.items) == set(ref.items) and sol.items != ref.items
        rows = [sol.items.index(it) for it in ref.items]
        assert np.max(np.abs(sol.loadings[rows] - ref.loadings)) <= 1e-10
        assert np.max(np.abs(sol.communalities[rows] - ref.communalities)) <= 1e-10
        assert np.max(np.abs(sol.phi - ref.phi)) <= 1e-10
        for got, want in zip(report.scales, base.scales):
            assert got.name == want.name and set(got.items) == set(want.items)
            assert abs(got.alpha_raw - want.alpha_raw) <= 1e-10
            assert abs(got.alpha_standardized - want.alpha_standardized) <= 1e-10

    @pytest.mark.parametrize("shift", [-1, 3])
    def test_likert_shift(self, case, shift):
        ds, cfg, base = case
        shifted = SurveyDataset(ds.items, ds.respondents, ds.values + shift,
                                ds.likert_min + shift, ds.likert_max + shift)
        view, shifted_view = complete_cases(ds, cfg.policy), complete_cases(shifted, cfg.policy)
        items = list(view.items)
        R = correlation_matrix(view.data, items)
        assert np.array_equal(correlation_matrix(shifted_view.data, items).values, R.values)
        got, want = run_validation(shifted, cfg).to_dict(), base.to_dict()
        for key in ("likert_min", "likert_max"):
            assert got["dataset"].pop(key) == want["dataset"].pop(key) + shift
        _assert_close(got, want)


@dataclass(frozen=True)
class _Inner:
    label: str
    weights: np.ndarray


@dataclass(frozen=True)
class _Outer:
    name: str
    inner: _Inner
    pair: tuple
    score: float
    count: int
    flag: bool
    note: None = None


class TestRecord:
    """The one JSON walker behind every -f json output."""

    def test_nan_becomes_null(self):
        assert _record(math.nan) is None
        assert _record(np.float64("nan")) is None
        assert _record({"a": math.nan, "b": [1.5, math.nan]}) == {"a": None, "b": [1.5, None]}

    def test_numpy_scalars_become_python(self):
        for value, want in ((np.float64(0.25), 0.25), (np.int64(3), 3),
                            (np.float32(0.5), 0.5), (np.int32(-2), -2)):
            got = _record(value)
            assert got == want and type(got) is type(want)

    def test_ndarray_becomes_nested_lists(self):
        assert _record(np.array([[1.0, -0.0], [0.5, 2.0]])) == [[1.0, -0.0], [0.5, 2.0]]
        assert _record(np.array([3, 4])) == [3, 4]
        assert _record(np.array([[1.0, np.nan]])) == [[1.0, None]]
        assert _record(np.zeros((0, 2))) == []

    def test_nested_dataclass_and_tuple(self):
        value = _Outer("x", _Inner("w", np.array([0.5, np.nan])), (1, "two", 3.0),
                       math.nan, np.int64(7), True)
        got = _record(value)
        assert got == {
            "name": "x",
            "inner": {"label": "w", "weights": [0.5, None]},
            "pair": [1, "two", 3.0],
            "score": None,
            "count": 7,
            "flag": True,
            "note": None,
        }
        assert list(got) == ["name", "inner", "pair", "score", "count", "flag", "note"]
        assert type(got["count"]) is int and got["flag"] is True

    def test_json_bytes_encoding(self):
        payload = json_bytes(_record({"b": [1, 2.5], "a": math.nan, "s": "µ"}))
        assert payload == '{\n  "b": [\n    1,\n    2.5\n  ],\n  "a": null,\n  "s": "\\u00b5"\n}\n'.encode()

    def test_json_bytes_refuses_unwalked_nan(self):
        with pytest.raises(ValueError):
            json_bytes({"a": math.nan})

    def test_report_json_is_the_walked_record(self, small_round_trip):
        assert render_report(small_round_trip, "json") == json_bytes(small_round_trip.to_dict())
