"""Command-line contract: exit codes, stream discipline, determinism."""

from __future__ import annotations

import importlib.util
import json
import os
import platform
import re
import subprocess
import sys
from itertools import groupby
from pathlib import Path

import numpy as np
import pytest

from psychoval import PipelineConfig, correlation_matrix, load_csv
from psychoval.cli import SEED_ENV, build_parser, main
from tests import oracles
from tests.frozen import NOISE_SEED

ROOT = Path(__file__).resolve().parent.parent


def _load_digest():
    spec = importlib.util.spec_from_file_location(
        "cli_digest", ROOT / "scripts" / "cli_digest.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


DIGEST = _load_digest()


@pytest.fixture(autouse=True)
def clean_seed_env(monkeypatch):
    monkeypatch.delenv(SEED_ENV, raising=False)


@pytest.fixture(scope="module")
def demo_csv(data_dir):
    return str(data_dir / "demo_survey.csv")


@pytest.fixture(scope="module")
def noise_csv(data_dir):
    return str(data_dir / "noise_survey.csv")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_happy_path_validate(self, capsys, demo_csv):
        code, out, err = run(capsys, "validate", "-i", demo_csv,
                             "--likert", "1:7", "-f", "json")
        assert code == 0
        assert err == ""
        doc = json.loads(out)
        assert doc["solution"]["m"] == 2

    def test_analysis_error_is_one(self, capsys, noise_csv):
        code, out, err = run(capsys, "bartlett", "-i", noise_csv)
        assert code == 1
        assert "AssumptionsNotMet" in err
        assert "Traceback" not in err

    def test_usage_error_is_two(self, capsys):
        assert run(capsys, "validate")[0] == 2          # missing --input
        assert run(capsys, "frobnicate")[0] == 2        # unknown subcommand
        assert run(capsys)[0] == 2                      # no subcommand

    def test_bad_likert_syntax_is_two(self, capsys, demo_csv):
        code, _, err = run(capsys, "validate", "-i", demo_csv,
                           "--likert", "17")
        assert code == 2
        assert "usage" in err

    def test_missing_file_is_one(self, capsys):
        code, _, err = run(capsys, "describe", "-i", "no_such_file.csv")
        assert code == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("target, error", [
        ("no_such_dir/x.json", "FileNotFoundError"),
        (".", "IsADirectoryError"),
    ])
    def test_unwritable_out_is_one_line(self, capsys, demo_csv, tmp_path, target, error):
        code, out, err = run(capsys, "validate", "-i", demo_csv, "-o", str(tmp_path / target))
        assert code == 1
        assert err.startswith(f"{error}: ") and err.count("\n") == 1
        assert out == ""

    @pytest.mark.parametrize("alpha", ["5", "0", "1", "-0.1", "nan"])
    def test_bartlett_alpha_outside_unit_interval(self, capsys, noise_csv, alpha):
        code, out, err = run(capsys, "bartlett", "-i", noise_csv, "--alpha", alpha)
        assert code == 1
        assert err.startswith("ConfigError: ") and err.count("\n") == 1
        assert out == ""

    def test_unknown_scale_item_is_one_line(self, capsys, demo_csv):
        code, out, err = run(capsys, "alpha", "-i", demo_csv, "--items", "A,Z")
        assert code == 1
        assert err == "UnknownItem: scale 'scale' references unknown items ['Z']\n"
        assert out == ""

    def test_failed_stage_named_on_stderr(self, capsys, noise_csv):
        code, out, err = run(capsys, "validate", "-i", noise_csv)
        assert code == 1
        assert "AssumptionsNotMet" in err
        assert "bartlett" in err
        assert out == ""


class TestDefaults:
    @pytest.mark.parametrize("command", ["validate", "efa", "kmo", "bartlett"])
    def test_parsed_defaults_are_pipeline_config(self, command):
        args = build_parser().parse_args([command, "-i", "survey.csv"])
        config = PipelineConfig().to_dict()
        assert {name: getattr(args, name) for name in config} == config


class TestValidate:
    def test_byte_identical_reruns(self, capsys, demo_csv, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert run(capsys, "validate", "-i", demo_csv, "-f", "json",
                   "-o", str(out1))[0] == 0
        assert run(capsys, "validate", "-i", demo_csv, "-f", "json",
                   "-o", str(out2))[0] == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_text_format_default(self, capsys, demo_csv):
        code, out, _ = run(capsys, "validate", "-i", demo_csv)
        assert code == 0
        assert out.startswith("scale validation report")

    def test_force_flag_passes_gate(self, capsys, noise_csv):
        code, out, _ = run(capsys, "validate", "-i", noise_csv, "--force",
                           "--msa-threshold", "0", "--rotation", "none",
                           "--retention", "fixed:1", "-f", "json")
        assert code == 0
        doc = json.loads(out)
        assert any("force" in w for w in doc["warnings"])

    def test_wide_over_extraction_ends_at_the_plain_limit(self, capsys, data_dir):
        # m = 6 on the 18 items left after pruning; the limit of the plain
        # passes clamps W09 at 1, and the run ends 1.9e-7 from it (the
        # Anderson passes with Newton steps and undos: 4.6e-2, no flag)
        path = data_dir / "wide_survey.csv"
        code, out, _ = run(capsys, "validate", "-i", str(path), "--retention", "fixed:6",
                           "-f", "json")
        assert code == 0
        doc = json.loads(out)
        items = doc["dataset"]["items_retained"]
        ds = load_csv(path, 1, 7)
        R = correlation_matrix(ds.values[:, [ds.items.index(item) for item in items]])
        limit = oracles.paf_plain_limit(R, 6)
        got = np.array([doc["solution"]["communalities"][item] for item in items])
        assert np.max(np.abs(got - limit)) < 1e-5
        assert np.any(limit == 1.0)
        assert any(w.startswith("HeywoodCase: ") for w in doc["warnings"])

    def test_config_choices_echoed(self, capsys, demo_csv):
        code, out, _ = run(capsys, "validate", "-i", demo_csv,
                           "--extraction", "pca", "--rotation", "varimax",
                           "-f", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["extraction"] == "pca"
        assert doc["config"]["rotation"] == "varimax"


class TestEfaMatchesValidate:
    """efa and validate share one EFA path, so their solutions agree exactly."""

    @pytest.mark.parametrize(
        "flags",
        [
            [],
            ["--rotation", "varimax"],
            ["--extraction", "pca", "--rotation", "none"],
            ["--retention", "fixed:3", "--gamma", "0.5"],
        ],
    )
    def test_efa_json_is_validate_solution(self, capsys, demo_csv, flags):
        code, efa_out, _ = run(capsys, "efa", "-i", demo_csv, "-f", "json", *flags)
        assert code == 0
        code, validate_out, _ = run(capsys, "validate", "-i", demo_csv,
                                    "-f", "json", *flags)
        assert code == 0
        assert json.loads(efa_out) == json.loads(validate_out)["solution"]

    def test_efa_fixed_count_above_items_is_one_line(self, capsys, demo_csv):
        code, out, err = run(capsys, "efa", "-i", demo_csv, "--retention", "fixed:9")
        assert code == 1
        assert err == "BadFactorCount: fixed retention 9 exceeds 6 items [stage: retention]\n"
        assert out == ""


def _section(text: str, first: str, stop: str | None = None) -> str:
    """Lines of text from the one starting with first to a blank one or one starting with stop."""
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(first))
    end = next(
        i for i in range(start + 1, len(lines))
        if not lines[i] or (stop and lines[i].startswith(stop))
    )
    return "\n".join(lines[start:end]) + "\n"


class TestTextSections:
    """efa, kmo and bartlett text are the matching sections of validate's text."""

    @pytest.mark.parametrize("flags", DIGEST.MODEL_FLAGS, ids=" ".join)
    def test_efa_is_validate_solution(self, capsys, demo_csv, flags):
        code, validate_out, _ = run(capsys, "validate", "-i", demo_csv, *flags)
        assert code == 0
        code, efa_out, _ = run(capsys, "efa", "-i", demo_csv, *flags)
        assert code == 0
        assert efa_out == _section(validate_out, "solution:")

    @pytest.mark.parametrize("policy", ["listwise", "pairwise"])
    def test_kmo_is_validate_kmo(self, capsys, demo_csv, policy):
        _, validate_out, _ = run(capsys, "validate", "-i", demo_csv, "--policy", policy)
        code, kmo_out, _ = run(capsys, "kmo", "-i", demo_csv, "--policy", policy)
        assert code == 0
        assert kmo_out == _section(validate_out, "kmo overall:", "pruned items")

    def test_bartlett_is_validate_bartlett(self, capsys, demo_csv):
        _, validate_out, _ = run(capsys, "validate", "-i", demo_csv)
        code, bartlett_out, _ = run(capsys, "bartlett", "-i", demo_csv)
        assert code == 0
        assert bartlett_out == _section(validate_out, "bartlett:", "kmo overall")


def _tables(text: str) -> list[list[str]]:
    """Each run of consecutive lines indented by two spaces."""
    lines = text.splitlines()
    return [list(run) for indented, run in groupby(lines, lambda line: line.startswith("  "))
            if indented]


def _assert_aligned(table: list[str]) -> None:
    """Every line starts its first column at 2 and ends each other column together."""
    spans = [[m.span() for m in re.finditer(r"\S+", line)] for line in table]
    width = len(spans[1])
    ends = [end for _, end in spans[1][1:]]
    for line, cells in zip(table, spans):
        # the phi table's header has a blank first cell
        assert len(cells) in (width, width - 1), line
        assert [end for _, end in cells[len(cells) - width + 1:]] == ends, table
        if len(cells) == width:
            assert cells[0][0] == 2, line


class TestTextTables:
    @pytest.mark.parametrize("name_length", [1, 20])
    def test_columns_line_up(self, capsys, demo_csv, tmp_path, name_length):
        _, body = Path(demo_csv).read_text(encoding="utf-8").split("\n", 1)
        items = [c * name_length for c in "ABCDEF"]
        survey = tmp_path / "survey.csv"
        survey.write_text(",".join(["respondent", *items]) + "\n" + body, encoding="utf-8")
        path, scale = str(survey), ",".join(items[:3])
        runs = [
            ("validate", "-i", path),
            ("validate", "-i", path, "--msa-threshold", "0.72"),  # a prune trail
            ("validate", "-i", path, "--retention", "fixed:3"),
            ("efa", "-i", path),
            ("kmo", "-i", path),
            ("describe", "-i", path),
            ("alpha", "-i", path, "--items", scale),
            ("retest", "--t1", path, "--t2", path, "--items", scale),
        ]
        for argv in runs:
            code, out, _ = run(capsys, *argv)
            assert code == 0
            tables = _tables(out)
            assert tables, argv
            for table in tables:
                assert len(table) >= 2, argv
                _assert_aligned(table)

    def test_all_missing_column_prints_na(self, capsys, data_dir):
        code, out, _ = run(capsys, "describe", "-i", str(data_dir / "gap_survey.csv"))
        assert code == 0
        (table,) = _tables(out)
        _assert_aligned(table)
        rows = {line.split()[0]: line.split()[1:] for line in table}
        assert rows["item"] == ["n", "missing", "mean", "sd", "min", "max"]
        assert rows["skipped"] == ["0", "5", "n/a", "n/a", "n/a", "n/a"]
        assert "n/a" not in rows["q"] + rows["perceived_usefulness_2"]


class TestSimulate:
    MODEL = "demo_model.txt"

    def test_deterministic_output_files(self, capsys, data_dir, tmp_path):
        model = str(data_dir / self.MODEL)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(capsys, "simulate", "--spec", model, "-n", "100",
                   "-s", "9", "-o", str(a))[0] == 0
        assert run(capsys, "simulate", "--spec", model, "-n", "100",
                   "-s", "9", "-o", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_stdout_when_no_out_flag(self, capsys, data_dir):
        code, out, err = run(capsys, "simulate", "--spec",
                             str(data_dir / self.MODEL), "-n", "5")
        assert code == 0
        assert out.startswith("respondent,A,B,C,D,E,F")
        assert len(out.strip().splitlines()) == 6
        assert err == ""

    def test_committed_fixture_is_reproducible(self, capsys, data_dir):
        # data/demo_survey.csv was produced by exactly this invocation
        code, out, _ = run(capsys, "simulate", "--spec",
                           str(data_dir / self.MODEL))
        assert code == 0
        committed = (data_dir / "demo_survey.csv").read_text(encoding="utf-8")
        assert out == committed

    def test_committed_wide_fixture_is_reproducible(self, capsys, data_dir):
        # data/wide_survey.csv was produced by exactly this invocation
        code, out, _ = run(capsys, "simulate", "--spec", str(data_dir / "wide_model.txt"))
        assert code == 0
        assert out == (data_dir / "wide_survey.csv").read_text(encoding="utf-8")

    def test_committed_wide_noise_fixture_is_reproducible(self, capsys, data_dir):
        # data/wide_noise_survey.csv was produced by exactly this invocation
        code, out, _ = run(capsys, "simulate", "--spec", str(data_dir / "wide_noise_model.txt"))
        assert code == 0
        assert out == (data_dir / "wide_noise_survey.csv").read_text(encoding="utf-8")

    def test_env_seed_used_when_flag_absent(self, capsys, monkeypatch,
                                            data_dir):
        model = str(data_dir / self.MODEL)
        monkeypatch.setenv(SEED_ENV, "777")
        _, via_env, _ = run(capsys, "simulate", "--spec", model, "-n", "20")
        monkeypatch.delenv(SEED_ENV)
        _, via_flag, _ = run(capsys, "simulate", "--spec", model, "-n", "20",
                             "-s", "777")
        assert via_env == via_flag

    def test_flag_beats_env_seed(self, capsys, monkeypatch, data_dir):
        model = str(data_dir / self.MODEL)
        monkeypatch.setenv(SEED_ENV, "111")
        _, with_flag, _ = run(capsys, "simulate", "--spec", model, "-n", "20",
                              "-s", "222")
        monkeypatch.delenv(SEED_ENV)
        _, direct, _ = run(capsys, "simulate", "--spec", model, "-n", "20",
                           "-s", "222")
        assert with_flag == direct

    def test_bad_env_seed_is_config_error(self, capsys, monkeypatch,
                                          data_dir):
        monkeypatch.setenv(SEED_ENV, "not-a-number")
        code, _, err = run(capsys, "simulate", "--spec",
                           str(data_dir / self.MODEL), "-n", "5")
        assert code == 1
        assert "ConfigError" in err


class TestOtherSubcommands:
    def test_alpha_with_scales_file(self, capsys, demo_csv, data_dir):
        code, out, _ = run(capsys, "alpha", "-i", demo_csv,
                           "--scales", str(data_dir / "demo_scales.txt"),
                           "-f", "json")
        assert code == 0
        doc = json.loads(out)
        assert {s["scale"] for s in doc} == {"practice", "attitude"}
        for s in doc:
            assert s["alpha_raw"] > 0.6

    def test_alpha_with_inline_items(self, capsys, demo_csv):
        code, out, _ = run(capsys, "alpha", "-i", demo_csv,
                           "--items", "A,B,C", "--name", "practice",
                           "-f", "json")
        assert code == 0
        (scale,) = json.loads(out)
        assert scale["scale"] == "practice"
        assert scale["k"] == 3

    def test_retest_same_file_gives_unity(self, capsys, demo_csv):
        code, out, _ = run(capsys, "retest", "--t1", demo_csv,
                           "--t2", demo_csv, "--items", "A,B,C",
                           "-f", "json")
        assert code == 0
        (doc,) = json.loads(out)
        assert doc["total_r"] == 1.0
        assert all(r == 1.0 for r in doc["item_r"].values())

    def test_kmo(self, capsys, demo_csv):
        code, out, _ = run(capsys, "kmo", "-i", demo_csv, "-f", "json")
        assert code == 0
        doc = json.loads(out)
        assert 0.0 <= doc["kmo_overall"] <= 1.0
        assert set(doc["msa"]) == set("ABCDEF")

    def test_bartlett_significant_data(self, capsys, demo_csv):
        code, out, _ = run(capsys, "bartlett", "-i", demo_csv, "-f", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["p"] < 0.05

    def test_describe(self, capsys, demo_csv):
        code, out, _ = run(capsys, "describe", "-i", demo_csv, "-f", "json")
        assert code == 0
        doc = json.loads(out)
        assert len(doc) == 6
        for row in doc:
            assert row["n"] == 300
            assert 1.0 <= row["mean"] <= 7.0

    def test_efa_pca_unrotated(self, capsys, demo_csv):
        code, out, _ = run(capsys, "efa", "-i", demo_csv,
                           "--extraction", "pca", "--rotation", "none",
                           "-f", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["extraction"] == "pca"
        assert doc["rotation"] == "none"
        assert doc["m"] == 2


class TestNoiseFixtureProvenance:
    def test_committed_noise_fixture_matches_model(self, capsys, data_dir):
        code, out, _ = run(capsys, "simulate", "--spec",
                           str(data_dir / "noise_model.txt"))
        assert code == 0
        committed = (data_dir / "noise_survey.csv").read_text(encoding="utf-8")
        assert out == committed
        assert f"seed: {NOISE_SEED}" in (
            (data_dir / "noise_model.txt").read_text(encoding="utf-8")
        )


class TestContractSweep:
    """Every digest invocation exits 0, 1 or 2; an exit of 1 prints one line."""

    @pytest.mark.parametrize(
        "argv", DIGEST.INVOCATIONS, ids=["_".join(a) or "<none>" for a in DIGEST.INVOCATIONS]
    )
    def test_invocation(self, capsys, monkeypatch, argv):
        monkeypatch.chdir(ROOT)  # the invocations use repository-relative paths
        code, out, err = run(capsys, *argv)
        assert code in (0, 1, 2)
        if code == 1:
            assert re.fullmatch(r"[A-Z]\w*: [^\n]+\n", err), err
            assert out == ""
        if code == 0:
            assert err == ""


class TestBadInputMessages:
    @pytest.mark.parametrize("gamma", ["nan", "inf", "--gamma=-inf"])
    @pytest.mark.parametrize("command", ["validate", "efa"])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_non_finite_gamma(self, capsys, demo_csv, command, gamma, fmt):
        flags = [gamma] if gamma.startswith("--") else ["--gamma", gamma]
        code, out, err = run(capsys, command, "-i", demo_csv, *flags,
                             "--rotation", "varimax", "-f", fmt)
        assert code == 1
        assert err == "ConfigError: gamma must be finite\n"
        assert out == ""

    @pytest.mark.parametrize("retention, message", [
        ("bogus", "unknown retention rule 'bogus'"),
        ("fixed:0", "fixed retention count must be at least 1"),
        ("fixed:x", "retention 'fixed:x' needs an integer count"),
        ("fixed:2_0", "retention 'fixed:2_0' needs an integer count"),
        ("fixed:+2", "retention 'fixed:+2' needs an integer count"),
    ], ids=["bogus", "fixed:0", "fixed:x", "fixed:2_0", "fixed:+2"])
    def test_bad_retention_same_in_validate_and_efa(self, capsys, demo_csv,
                                                    retention, message):
        errs = [run(capsys, command, "-i", demo_csv, "--retention", retention)
                for command in ("validate", "efa")]
        assert errs[0] == errs[1] == (1, "", f"ConfigError: {message}\n")

    @pytest.mark.parametrize("command, line", [
        ("kmo", "TooFewItems: kmo needs >= 2 items, got 1 [stage: kmo]"),
        ("bartlett", "TooFewItems: bartlett needs >= 2 items, got 1 [stage: bartlett]"),
        ("validate", "TooFewItems: bartlett needs >= 2 items, got 1 [stage: bartlett]"),
        ("efa", "TooFewItems: efa needs >= 2 items, got 1 [stage: retention]"),
    ], ids=["kmo", "bartlett", "validate", "efa"])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_one_item_file(self, capsys, data_dir, command, line, fmt):
        code, out, err = run(capsys, command, "-i",
                             str(data_dir / "one_item_survey.csv"), "-f", fmt)
        assert (code, out, err) == (1, "", line + "\n")

    def test_zero_variance_standardized_total(self, capsys, data_dir):
        code, out, err = run(capsys, "alpha", "-i", str(data_dir / "anticorrelated_pair_survey.csv"),
                             "--items", "x,y")
        assert (code, out, err) == (
            1, "", "ZeroVariance: standardized total score has zero variance\n"
        )

    @pytest.mark.parametrize("command", ["kmo", "validate"])
    def test_item_uncorrelated_with_the_rest(self, capsys, data_dir, command):
        code, out, err = run(capsys, command, "-i", str(data_dir / "uncorrelated_item_survey.csv"),
                             "-f", "json")
        assert (code, out, err) == (1, "", (
            "DomainError: item 'c' has zero correlation with every other item; "
            "its MSA is undefined [stage: kmo]\n"
        ))


# the pipeline stages each analysis subcommand runs
SUBCOMMAND_STAGES = {
    "efa": ("policy", "correlation", "retention", "extraction", "rotation"),
    "kmo": ("policy", "correlation", "kmo"),
    "bartlett": ("policy", "correlation", "bartlett"),
}


def _failed_stage(err: str) -> str | None:
    match = re.search(r" \[stage: (\w+)\]\n\Z", err)
    return match.group(1) if match else None


class TestStageParity:
    """A stage shared with validate fails with validate's own stderr line."""

    @pytest.mark.parametrize("argv", [
        *(("-i", DIGEST.GAP, "--policy", policy) for policy in DIGEST.POLICIES),
        ("-i", DIGEST.ONE),
        ("-i", DIGEST.NOISE),
    ], ids=" ".join)
    @pytest.mark.parametrize("command", sorted(SUBCOMMAND_STAGES))
    def test_failure_line_matches_validate(self, capsys, monkeypatch, command, argv):
        monkeypatch.chdir(ROOT)
        code, _, validate_err = run(capsys, "validate", *argv)
        assert code == 1 and _failed_stage(validate_err)
        result = run(capsys, command, *argv)
        stages = SUBCOMMAND_STAGES[command]
        if _failed_stage(validate_err) in stages:
            assert result == (1, "", validate_err)
        else:  # validate stopped at a stage this subcommand skips
            code, _, err = result
            assert code == 0 or _failed_stage(err) in stages, err

    @pytest.mark.parametrize("alpha", ["2", "0", "-0.1", "nan"])
    def test_alpha_check_matches_validate(self, capsys, demo_csv, alpha):
        outcomes = [run(capsys, command, "-i", demo_csv, "--alpha", alpha)
                    for command in ("validate", "bartlett")]
        assert outcomes[0] == outcomes[1] == (
            1, "", "ConfigError: bartlett_alpha must lie in (0, 1)\n"
        )


class TestJsonKeyOrder:
    def test_describe(self, capsys, demo_csv):
        code, out, _ = run(capsys, "describe", "-i", demo_csv, "-f", "json")
        assert code == 0
        doc = json.loads(out)
        assert [row["item"] for row in doc] == list("ABCDEF")
        for row in doc:
            assert list(row) == ["item", "n", "missing", "mean", "sd", "min", "max"]
            assert row["missing"] == 0 and isinstance(row["min"], float)

    def test_describe_empty_column_is_null(self, capsys, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text("id,A,B\nr1,NA,2\nr2,NA,3\n", encoding="utf-8")
        code, out, _ = run(capsys, "describe", "-i", str(path), "-f", "json")
        assert code == 0
        first, second = json.loads(out)
        assert first == {"item": "A", "n": 0, "missing": 2, "mean": None,
                         "sd": None, "min": None, "max": None}
        assert list(second) == list(first) and second["sd"] > 0

    def test_kmo(self, capsys, demo_csv):
        code, out, _ = run(capsys, "kmo", "-i", demo_csv, "-f", "json")
        assert code == 0
        doc = json.loads(out)
        assert list(doc) == ["kmo_overall", "msa"]
        assert list(doc["msa"]) == list("ABCDEF")

    def test_bartlett(self, capsys, demo_csv):
        code, out, _ = run(capsys, "bartlett", "-i", demo_csv, "-f", "json")
        assert code == 0
        doc = json.loads(out)
        assert list(doc) == ["chi2", "df", "p"]
        assert doc["df"] == 15 and isinstance(doc["df"], int)


def _dynamic_arch_openblas() -> bool:
    """True when numpy runs on an OpenBLAS that picks its kernel at run time."""
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # a numpy without mode="dicts"
        return False
    return ("openblas" in blas.get("name", "")
            and "DYNAMIC_ARCH" in blas.get("openblas configuration", ""))


def _cpu_has(feature: str) -> bool:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    return bool(__cpu_features__.get(feature))


# the reliability runs of the digest whose JSON carries unrounded values
RELIABILITY_JSON = [argv for argv in DIGEST.INVOCATIONS
                    if argv[:1] in (("alpha",), ("retest",)) and "json" in argv]
SIMULATE = [argv for argv in DIGEST.INVOCATIONS if argv[:1] == ("simulate",)]
KERNEL_RUNS = RELIABILITY_JSON + SIMULATE
_CHILD = ("import json, sys\nfrom psychoval.cli import main\n"
          "for argv in json.loads(sys.argv[1]):\n    print(main(argv))\n")


def _child_env() -> dict[str, str]:
    """The environment of a child interpreter that imports psychoval from src/."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))


def _outputs_under(coretype: str | None) -> bytes:
    """stdout and stderr of KERNEL_RUNS run in one process on one OpenBLAS kernel."""
    env = _child_env()
    env.pop("OPENBLAS_CORETYPE", None)
    if coretype:
        env["OPENBLAS_CORETYPE"] = coretype
    done = subprocess.run([sys.executable, "-c", _CHILD, json.dumps(KERNEL_RUNS)],
                          cwd=ROOT, env=env, capture_output=True, check=True)
    return done.stdout + done.stderr


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64")
                    or not _dynamic_arch_openblas(),
                    reason="needs an x86-64 DYNAMIC_ARCH OpenBLAS")
class TestBlasKernelIndependence:
    """alpha, retest and simulate print the same bytes on every OpenBLAS kernel."""

    @pytest.fixture(scope="class")
    def default_outputs(self):
        return _outputs_under(None)

    @pytest.mark.parametrize("coretype, feature", [("Prescott", "SSE3"), ("Haswell", "AVX2")])
    def test_same_bytes_as_the_default_kernel(self, default_outputs, coretype, feature):
        if not _cpu_has(feature):
            pytest.skip(f"the {coretype} kernel needs {feature}")
        assert len(RELIABILITY_JSON) == 5 and len(SIMULATE) == 5
        assert _outputs_under(coretype) == default_outputs


class TestLazyImports:
    """Importing the package and its CLI leaves first-use modules unloaded."""

    def test_statistics_and_lanes_wait_for_first_use(self):
        # each costs every interpreter start: statistics ~4 ms of imports, lanes its compile
        code = ("import sys, psychoval, psychoval.cli\n"
                "print([m for m in ('statistics', 'psychoval.lanes') if m in sys.modules])\n")
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=_child_env(),
                              capture_output=True, text=True, check=True)
        assert done.stdout == "[]\n"
