"""Command-line contract: exit codes, stream discipline, determinism."""

from __future__ import annotations

import json

import pytest

from psychoval.cli import SEED_ENV, main
from tests.frozen import NOISE_SEED


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
