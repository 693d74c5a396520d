"""Correctness checks on validate reports, computed independently with numpy.

Each check takes the report bytes plus what the benchmark itself knows
(the CSV text it generated and the population model) and returns a list
of failure messages; an empty list means the check passed.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

import numpy as np

from workloads import Workload

EIGEN_TOL = 1e-10
ALPHA_TOL = 1e-12


def parse_table(text: str, missing_token: str = "NA") -> tuple[list[str], np.ndarray]:
    """Item names and a respondents x items float array, NaN where missing."""
    rows = list(csv.reader(io.StringIO(text)))
    items = [h.strip() for h in rows[0][1:]]
    values = np.array(
        [[np.nan if c == missing_token else float(c) for c in r[1:]] for r in rows[1:] if r],
        dtype=float,
    )
    return items, values


def reference_correlation(values: np.ndarray, idx: list[int], policy: str) -> np.ndarray:
    """Pearson R of columns idx: over rows complete on every item, or per pair."""
    if policy != "pairwise":
        return np.corrcoef(values[~np.isnan(values).any(axis=1)][:, idx], rowvar=False)
    values = values[:, idx]
    p = values.shape[1]
    present = ~np.isnan(values)
    R = np.eye(p)
    for i in range(p):
        for j in range(i + 1, p):
            both = present[:, i] & present[:, j]
            R[i, j] = R[j, i] = np.corrcoef(values[both, i], values[both, j])[0, 1]
    return R


def eigen_failures(report: dict, items: list[str], values: np.ndarray, policy: str) -> list[str]:
    retained = report["dataset"]["items_retained"]
    idx = [items.index(it) for it in retained]
    R = reference_correlation(values, idx, policy)
    expected = np.sort(np.linalg.eigh(R)[0])[::-1]
    got = np.array(report["solution"]["eigenvalues"], dtype=float)
    if got.shape != expected.shape:
        return [f"eigenvalues: {got.size} reported, {expected.size} expected"]
    worst = float(np.max(np.abs(got - expected)))
    if not worst <= EIGEN_TOL:
        return [f"eigenvalues differ from numpy.linalg.eigh by {worst:.3e}"]
    return []


def assignment_failures(report: dict, w: Workload) -> list[str]:
    """Signal items sit in the scale of their factor, one scale per factor."""
    factor_of = w.factor_of()
    retained = report["dataset"]["items_retained"]
    scales = report["scales"]
    out: list[str] = []
    scale_of: dict[str, str] = {}
    for s in scales:
        for it in s["items"]:
            if it in scale_of:
                out.append(f"item {it} in scales {scale_of[it]} and {s['name']}")
            scale_of[it] = s["name"]
    for it in retained:
        if factor_of[it] is None and it in scale_of:
            out.append(f"noise item {it} assigned to {scale_of[it]}")
        elif factor_of[it] is not None and it not in scale_of:
            out.append(f"signal item {it} assigned to no scale")
    matched = []
    for s in scales:
        factors = {factor_of[it] for it in s["items"]}
        if len(factors) == 1 and None not in factors:
            matched.extend(factors)
        else:
            out.append(f"scale {s['name']} spans population factors {sorted(map(str, factors))}")
    if sorted(matched) != list(range(w.m)):
        out.append(f"scales match factors {sorted(matched)}, not 0..{w.m - 1} once each")
    return out


def alpha_failures(report: dict, items: list[str], values: np.ndarray) -> list[str]:
    """alpha_raw equals k/(k-1) (1 - trace C / sum C) with C from np.cov."""
    out: list[str] = []
    for s in report["scales"]:
        if len(s["items"]) < 2:
            continue
        block = values[:, [items.index(it) for it in s["items"]]]
        block = block[~np.isnan(block).any(axis=1)]
        cov = np.cov(block, rowvar=False, ddof=1)
        k = cov.shape[0]
        expected = k / (k - 1.0) * (1.0 - np.trace(cov) / cov.sum())
        got = s["alpha_raw"]
        if got is None or not abs(got - expected) <= ALPHA_TOL:
            out.append(f"scale {s['name']} alpha_raw {got} != closed form {expected!r}")
    return out


def report_failures(report_bytes: bytes, text: str, w: Workload) -> dict[str, list[str]]:
    """Failures of the eigenvalue, assignment and alpha checks of one report."""
    try:
        report = json.loads(report_bytes)
    except ValueError as exc:
        return {"report_json": [f"report is not JSON: {exc}"]}
    items, values = parse_table(text)
    return {
        "eigenvalues": eigen_failures(report, items, values, w.pipeline_config().policy),
        "assignment": assignment_failures(report, w),
        "alpha": alpha_failures(report, items, values),
    }


@dataclass
class Tally:
    """How often each check ran and failed, with the first messages."""

    applied: dict[str, int] = field(default_factory=dict)
    failed: dict[str, int] = field(default_factory=dict)
    messages: list[str] = field(default_factory=list)

    def record(self, check: str, failures: list[str], where: str) -> bool:
        self.applied[check] = self.applied.get(check, 0) + 1
        if failures:
            self.failed[check] = self.failed.get(check, 0) + 1
            if len(self.messages) < 20:
                self.messages.extend(f"{check} [{where}]: {m}" for m in failures)
        return not failures

    def as_dict(self) -> dict:
        return {
            name: {"applied": n, "failed": self.failed.get(name, 0)}
            for name, n in self.applied.items()
        }
