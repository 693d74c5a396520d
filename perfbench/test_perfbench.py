"""Tests of the benchmark's own helpers: run with `python -m pytest perfbench`."""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import psychoval as pv
import psychoval.cli  # noqa: F401  (every module spans.traced patches is loaded)

import checks
import measure
import run
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
DEMO = workloads.WORKLOADS["demo-batch"]


def demo_report() -> tuple[bytes, str]:
    text = workloads.generate_inputs(DEMO, seed=3).texts[0]
    ds = pv.loads_csv(text, 1, 7)
    return pv.render_report(pv.run_validation(ds, DEMO.pipeline_config()), "json"), text


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    samples = [float(x) for x in range(100, 0, -1)]
    assert measure.tail(samples) == (90.0, 90.0, 100)
    value, pct, n = measure.tail([float(x) for x in range(11)])
    assert (value, n) == (0.0, 11) and pct == pytest.approx(100 / 11)
    assert measure.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    with pytest.raises(ValueError):
        measure.tail([])


def test_self_time_subtracts_direct_children_only():
    S = spans.Span
    tree = [
        S("root", 0.0, 10.0, None, 1),
        S("a", 1.0, 4.0, 0, 1),
        S("a.inner", 2.0, 3.0, 1, 1),
        S("b", 5.0, 9.0, 0, 1),
        S("other", 20.0, 22.0, None, 2),
        S("other.child", 20.5, 21.0, 4, 2),
    ]
    assert spans.self_times(tree) == [3.0, 2.0, 1.0, 4.0, 1.5, 0.5]
    groups = spans.split_by_op(tree)
    assert [s.parent for s in groups[2]] == [None, 0]
    summary = spans.summarize(groups[1])
    assert summary.self_s == {"root": 3.0, "a": 2.0, "a.inner": 1.0, "b": 4.0}
    assert summary.total_s["root"] == 10.0


def _bindings() -> dict:
    return {
        (name, attr): value
        for name, mod in sys.modules.items()
        if name == "psychoval" or name.startswith("psychoval.")
        for attr, value in vars(mod).items()
        if callable(value)
    }


def test_traced_wraps_every_binding_and_restores_them():
    before = _bindings()
    rec = spans.Recorder()
    with pytest.raises(RuntimeError):
        with spans.traced(rec):
            during = _bindings()
            raise RuntimeError("leave the block early")
    # one wrapper per target, bound in every module that imported it
    wrapped = {k for k, v in during.items() if v is not before[k]}
    assert ("psychoval.core_stats", "sym_eigen") in wrapped
    assert ("psychoval.efa", "sym_eigen") in wrapped
    assert ("psychoval.pipeline", "sym_eigen") in wrapped
    assert ("psychoval.cli", "run_validation") in wrapped
    assert ("psychoval", "loads_csv") in wrapped
    assert len(wrapped) >= len(spans.TARGETS)
    after = _bindings()
    assert all(after[k] is v for k, v in before.items())


def test_traced_operation_holds_call_count_identities():
    report, text = demo_report()
    rec = spans.Recorder()
    rec.op = "op"
    with spans.traced(rec):
        ds = pv.loads_csv(text, 1, 7)
        traced = pv.render_report(
            pv.run_validation(ds, DEMO.pipeline_config()), "json"
        )
    assert traced == report
    summary = spans.summarize(rec.take())
    assert spans.identity_failures(summary) == []
    assert summary.count("pipeline.run_validation") == 1
    summary.calls["core_stats.sym_eigen"] -= 1  # a call the tracer missed
    assert len(spans.identity_failures(summary)) == 1


def test_checks_accept_a_true_report_and_reject_corrupted_ones():
    report, text = demo_report()
    assert all(f == [] for f in checks.report_failures(report, text, DEMO).values())

    def failing(mutate) -> set[str]:
        d = json.loads(report)
        mutate(d)
        found = checks.report_failures(json.dumps(d).encode(), text, DEMO)
        return {name for name, f in found.items() if f}

    def shift_eigenvalue(d):
        d["solution"]["eigenvalues"][0] += 1e-8

    def move_item(d):
        d["scales"][1]["items"].append(d["scales"][0]["items"].pop())

    def nudge_alpha(d):
        d["scales"][0]["alpha_raw"] += 1e-9

    assert failing(shift_eigenvalue) == {"eigenvalues"}
    assert "assignment" in failing(move_item)
    assert failing(nudge_alpha) == {"alpha"}
    assert checks.report_failures(b"{not json", text, DEMO).keys() == {"report_json"}


def test_pairwise_reference_correlation_matches_complete_data():
    rng = np.random.default_rng(0)
    values = rng.integers(1, 8, size=(50, 4)).astype(float)
    full = checks.reference_correlation(values, [0, 1, 2, 3], "listwise")
    assert np.allclose(checks.reference_correlation(values, [0, 1, 2, 3], "pairwise"), full)
    holed = values.copy()
    holed[0, 0] = np.nan
    R = checks.reference_correlation(holed, [1, 2], "listwise")
    assert np.allclose(R, np.corrcoef(values[1:, 1:3], rowvar=False))


@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line_names_every_metric_in_benchmark_json(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace == "1" else "end_to_end"]}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(
            ["--workload", "demo-batch", "--seed", "5", "--seconds", "0.1", "--trace", trace]
        )
    assert code == 0
    result = json.loads(out.getvalue().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
