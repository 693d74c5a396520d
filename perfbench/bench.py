"""Workload runs behind perfbench/run.py: timing, tracing, checks, results.

On a shared 2-vCPU Xeon virtual machine, operation times drifted by up to
2x over seconds to minutes, so every measurement is interleaved over the
whole timed phase: a scheduler runs whichever task has had the smallest
share of the phase so far, relative to its target share (TASK_SHARES).
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from pathlib import Path
from statistics import fmean, median
from typing import Callable

import psychoval as pv
import psychoval.cli

import checks
import measure
import spans
import workloads
from workloads import LIKERT_MAX, LIKERT_MIN

# Target shares of the timed phase, and the fewest runs of each task.
TASK_SHARES = {"operation": 0.55, "cli": 0.20, "setup": 0.15, "simulate": 0.10}
TRACED_SHARES = {"pair": 0.60, "cli": 0.15, "cli_inprocess": 0.10, "simulate": 0.15}
MIN_RUNS = {"operation": 11, "pair": 5, "cli": 3, "setup": 3, "cli_inprocess": 3, "simulate": 1}
# The timed phase runs past --seconds until every task has its fewest runs,
# so the tail rule always has samples; past MAX_STRETCH times --seconds,
# one run of each task is enough.
MAX_STRETCH = 3
# Warm-up runs the first datasets once each before timing starts; their
# reports make the digest, and CLI runs and setup probes take them in turn,
# so that their medians do not rest on one dataset's share of the work.
WARMUP_DATASETS = 8

END_TO_END_UNITS = {
    "validate_p50_s": "s",
    "validate_tail_s": "s",
    "surveys_per_s": "1/s",
    "cli_validate_s": "s",
    "simulate_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# A fresh interpreter: import psychoval, then one operation on the CSV in
# argv[1] under the PipelineConfig keywords in argv[2]; prints seconds taken.
SETUP_PROBE = """
import json, sys, time
text = open(sys.argv[1], encoding="utf-8").read()
t0 = time.perf_counter()
import psychoval as pv
cfg = pv.PipelineConfig(**json.loads(sys.argv[2]))
pv.render_report(pv.run_validation(pv.loads_csv(text, 1, 7), cfg), "json")
print(time.perf_counter() - t0)
"""


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


def interleave(seconds: float, shares: dict[str, float], tasks: dict[str, Callable]) -> dict:
    """Run tasks by lagging share until the phase ends; return busy seconds per task."""
    busy = dict.fromkeys(tasks, 0.0)
    runs = dict.fromkeys(tasks, 0)
    t_start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t_start
        floor = MIN_RUNS if elapsed < MAX_STRETCH * seconds else dict.fromkeys(tasks, 1)
        if elapsed >= seconds and all(runs[k] >= floor[k] for k in tasks):
            return busy
        kind = min(tasks, key=lambda k: busy[k] / shares[k])
        t0 = time.perf_counter()
        tasks[kind](runs[kind])
        busy[kind] += time.perf_counter() - t0
        runs[kind] += 1


class Run:
    """One workload run: inputs, reference reports, checks and failure counts."""

    def __init__(self, workload: workloads.Workload, seed: int, src: Path, tmp: Path):
        self.w = workload
        self.seed = seed
        self.tmp = tmp
        self.env = measure.child_env(src)
        self.cfg = workload.pipeline_config()
        self.tally = checks.Tally()
        self.refs: dict[int, bytes] = {}
        self.ops: list[tuple[int, bool]] = []  # (dataset index, completed and matched)
        self.extra_attempted = 0
        self.extra_failed = 0
        self.inputs = workloads.generate_inputs(workload, seed)
        self.warm = min(workload.instruments, WARMUP_DATASETS)
        for d in range(self.warm):
            (tmp / self.inputs.names[d]).write_text(self.inputs.texts[d], encoding="utf-8")

    def count(self, check: str, failures: list[str], where: str) -> None:
        """Tally one check that stands for an attempt outside the operations."""
        self.extra_attempted += 1
        if not self.tally.record(check, failures, where):
            self.extra_failed += 1

    # -- in-process operations --------------------------------------------
    def operation(self, d: int) -> tuple[float, bytes | None]:
        """Time one operation on dataset d; None for the bytes if it raised."""
        text, source = self.inputs.texts[d], self.inputs.names[d]
        t0 = time.perf_counter()
        try:
            ds = pv.loads_csv(text, LIKERT_MIN, LIKERT_MAX)
            out = pv.render_report(pv.run_validation(ds, self.cfg, source=source), "json")
        except Exception as exc:  # a failing operation is counted, not fatal
            elapsed = time.perf_counter() - t0
            self.tally.record("operation_completes", [f"{type(exc).__name__}: {exc}"], source)
            return elapsed, None
        return time.perf_counter() - t0, out

    def settle(self, d: int, out: bytes | None, check: str = "same_input_same_bytes") -> bool:
        """Log an operation; its bytes must equal the dataset's reference."""
        ok = out is not None
        if ok:
            ref = self.refs.setdefault(d, out)
            failures = [] if out == ref else ["report bytes differ from the first run"]
            ok = self.tally.record(check, failures, self.inputs.names[d])
        self.ops.append((d, ok))
        return ok

    def warm_up(self) -> None:
        for d in list(range(self.warm)) + ([0] if self.warm == 1 else []):
            self.settle(d, self.operation(d)[1])

    def simulate(self, i: int) -> float:
        """Simulate one instrument again; it must reproduce its input exactly."""
        d = i % self.w.instruments
        text, busy = workloads.simulate_instrument(self.w, self.seed, d)
        same = text == self.inputs.texts[d]
        failures = [] if same else ["simulating it again gave other CSV text"]
        self.count("simulator_deterministic", failures, self.inputs.names[d])
        return busy

    # -- fresh processes and the CLI --------------------------------------
    def cli_argv(self, d: int, out_name: str) -> list[str]:
        return [
            "validate", "-i", self.inputs.names[d], "-f", "json", "-o", out_name,
            *self.w.cli_flags(),
        ]

    def cli_subprocess(self, i: int) -> float:
        """Wall time of `python -m psychoval.cli validate` on a warm-up dataset."""
        d = i % self.warm
        out = self.tmp / "cli.json"
        out.unlink(missing_ok=True)
        seconds, done = measure.run_timed(
            [sys.executable, "-m", "psychoval.cli", *self.cli_argv(d, out.name)],
            self.tmp, self.env,
        )
        self.cli_result(done.returncode, out, d, "cli", done.stderr)
        return seconds

    def cli_inprocess(self, rec: spans.Recorder, i: int) -> float:
        """Total time of the traced in-process psychoval.cli.main span."""
        d = i % self.warm
        out = self.tmp / "cli-inprocess.json"
        out.unlink(missing_ok=True)
        cwd = os.getcwd()
        os.chdir(self.tmp)
        try:
            with spans.traced(rec):
                code = psychoval.cli.main(self.cli_argv(d, out.name))
        finally:
            os.chdir(cwd)
        self.cli_result(code, out, d, "in-process cli")
        main = [s for s in rec.spans if s.op == rec.op and s.name == "cli.main"]
        return sum(s.end - s.start for s in main)

    def cli_result(self, code: int, out: Path, d: int, where: str, stderr: bytes = b"") -> None:
        if code != 0:
            failures = [f"exit {code}: {stderr.decode(errors='replace').strip()[-200:]}"]
        elif not out.exists() or out.read_bytes() != self.refs.get(d):
            failures = ["CLI bytes differ from the in-process report"]
        else:
            failures = []
        self.count("cli_matches_in_process", failures, f"{where} {self.inputs.names[d]}")

    def setup_probe(self, i: int) -> float | None:
        """import psychoval plus one operation on a warm-up dataset, in a fresh interpreter."""
        csv_path = self.tmp / self.inputs.names[i % self.warm]
        _, done = measure.run_timed(
            [sys.executable, "-c", SETUP_PROBE, str(csv_path), json.dumps(self.w.config)],
            self.tmp, self.env,
        )
        failures = [] if done.returncode == 0 else [done.stderr.decode(errors="replace")[-200:]]
        self.count("setup_probe_completes", failures, "setup")
        return float(done.stdout.split()[-1]) if not failures else None

    # -- checks and tallies -----------------------------------------------
    def check_reports(self) -> None:
        """Independent numpy checks of each distinct dataset's report."""
        bad = set()
        for d, ref in sorted(self.refs.items()):
            found = checks.report_failures(ref, self.inputs.texts[d], self.w)
            for check, failures in found.items():
                if not self.tally.record(check, failures, self.inputs.names[d]):
                    bad.add(d)
        self.ops = [(d, ok and d not in bad) for d, ok in self.ops]

    def digest(self) -> str:
        h = hashlib.sha256()
        for d in range(self.warm):
            h.update(self.refs.get(d, b""))
        return h.hexdigest()

    def attempted(self) -> int:
        return len(self.ops) + self.extra_attempted

    def failed(self) -> int:
        return sum(1 for _, ok in self.ops if not ok) + self.extra_failed


def bench_end_to_end(run: Run, seconds: float) -> tuple[dict, dict]:
    run.warm_up()
    ops: list[float] = []
    cli: list[float] = []
    setup: list[float] = []
    simulate: list[float] = []  # seconds of one instrument

    def operation(i: int) -> None:
        d = i % run.w.instruments
        elapsed, out = run.operation(d)
        if run.settle(d, out):
            ops.append(elapsed)

    def setup_probe(i: int) -> None:
        seconds = run.setup_probe(i)
        if seconds is not None:
            setup.append(seconds)

    busy = interleave(seconds, TASK_SHARES, {
        "operation": operation,
        "cli": lambda i: cli.append(run.cli_subprocess(i)),
        "setup": setup_probe,
        "simulate": lambda i: simulate.append(run.simulate(i)),
    })
    run.check_reports()
    tail_value, tail_pct, n = measure.tail(ops)
    metrics = {
        "validate_p50_s": median(ops),
        "validate_tail_s": tail_value,
        "surveys_per_s": len(ops) / busy["operation"],
        "cli_validate_s": median(cli),
        # a pass is a sum over instruments, so it scales their mean
        "simulate_s": run.w.instruments * fmean(simulate),
        "setup_s": median(setup),
        "peak_rss_mb": measure.peak_rss_mb(),
    }
    extra = {
        "validate_tail": {"percentile": tail_pct, "samples": n},
        "samples": {"cli": len(cli), "setup": len(setup), "simulate_instruments": len(simulate)},
        "busy_s": busy,
        "op_seconds": [round(x, 5) for x in ops],
    }
    return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, extra


def bench_traced(run: Run, seconds: float) -> tuple[dict, dict]:
    run.warm_up()
    rec = spans.Recorder()
    untraced: list[float] = []
    traced: list[float] = []
    traced_entry: dict[int, int] = {}  # traced op id -> its index in run.ops
    main_s: list[float] = []
    cli: list[float] = []

    def pair(i: int) -> None:
        # the same dataset untraced and traced, alternating which goes first
        d = i % run.w.instruments
        for traced_side in (False, True) if i % 2 == 0 else (True, False):
            if traced_side:
                rec.op = i
                traced_entry[i] = len(run.ops)
                with spans.traced(rec):
                    elapsed, out = run.operation(d)
                run.settle(d, out, "tracing_on_off_same_bytes")
                traced.append(elapsed)
            else:
                elapsed, out = run.operation(d)
                run.settle(d, out)
                untraced.append(elapsed)

    def cli_inprocess(i: int) -> None:
        rec.op = ("cli", i)
        main_s.append(run.cli_inprocess(rec, i))

    def simulate(i: int) -> None:
        rec.op = ("simulate", i)
        with spans.traced(rec):
            run.simulate(i)

    interleave(seconds, TRACED_SHARES, {
        "pair": pair,
        "cli": lambda i: cli.append(run.cli_subprocess(i)),
        "cli_inprocess": cli_inprocess,
        "simulate": simulate,
    })

    ops, instruments = [], []
    for op_id, group in spans.split_by_op(rec.take()).items():
        summary = spans.summarize(group)
        if isinstance(op_id, int):
            ops.append(summary)
            failures = spans.identity_failures(summary)
            if not run.tally.record("call_count_identities", failures, f"traced op {op_id}"):
                entry = traced_entry[op_id]
                run.ops[entry] = (run.ops[entry][0], False)
        elif op_id[0] == "simulate":
            instruments.append(summary)
    run.check_reports()

    metrics = spans.layer_metrics(ops)
    # per simulation pass: the instrument count times the mean instrument
    for name in ("ingest.to_csv", "simulate.generate"):
        per_instrument = fmean(s.self_s.get(name, 0.0) for s in instruments)
        metrics[f"{name}_s"] = run.w.instruments * per_instrument
    metrics["simulate.draws"] = run.inputs.draws
    metrics["cli.main_s"] = median(main_s)
    metrics["cli.startup_s"] = median(cli) - median(main_s)
    metrics["trace.overhead_frac"] = sum(traced) / sum(untraced) - 1.0
    extra = {
        "samples": {"traced_ops": len(ops), "cli": len(cli), "cli_inprocess": len(main_s),
                    "simulate_instruments": len(instruments)},
        "cli_validate_s": median(cli),
    }
    return {k: (v, per_layer_unit(k)) for k, v in metrics.items()}, extra


def run(workload_name: str, seed: int, seconds: float, trace: bool, src: Path, tmp: Path) -> None:
    """Run one workload and print the record line and the result line."""
    w = workloads.WORKLOADS[workload_name]
    r = Run(w, seed, src, tmp)
    metrics, extra = (bench_traced if trace else bench_end_to_end)(r, seconds)
    attempted, failed = r.attempted(), r.failed()
    for message in r.tally.messages:
        print(f"perfbench: check failed: {message}", file=sys.stderr)
    record = {
        "workload": w.name,
        "seed": seed,
        "trace": int(trace),
        "report_sha256": r.digest(),
        "failed_frac": failed / attempted,
        "checks": r.tally.as_dict(),
        "failures": r.tally.messages,
        "environment": measure.environment(),
        **extra,
    }
    print(json.dumps({"perfbench_record": record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
