"""End-to-end scale validation: adequacy, pruning, factoring, reliability.

run_validation executes the fixed stage sequence (missing-data policy,
correlation, sphericity gate, sampling adequacy, item pruning, retention,
extraction, rotation, canonical form, item assignment, per-factor alpha,
sample-size advice) and returns a ValidationReport that serializes to a
stable JSON schema. Identical inputs and configuration produce identical
report bytes.

This module also owns every output format: render turns a subcommand's
walked record into JSON bytes or into its plain-text sections.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from .adequacy import (
    MSA_THRESHOLD,
    AdequacyReport,
    PruneStep,
    SampleAdequacyAdvice,
    bartlett_sphericity,
    check_alpha,
    check_msa_threshold,
    kmo,
    msa_prune,
    sample_adequacy_advice,
    sphericity_gate,
)
# sym_eigen is unused here but stays bound: perfbench's tracer tests wrap it
from .core_stats import SymMatrix, correlation_matrix, sym_eigen  # noqa: F401
from .efa import ASSIGN_CUTOFF, FactorSolution, assign_items, check_cutoff, check_options, fit_efa
from .errors import AssumptionsNotMet, ConfigError, stage
from .ingest import AnalysisView, ScaleDefinition, SurveyDataset, check_policy, complete_cases
from .reliability import cronbach_alpha

STAGES = (
    "policy",
    "correlation",
    "bartlett",
    "kmo",
    "prune",
    "retention",
    "extraction",
    "rotation",
    "canonicalize",
    "assignment",
    "reliability",
    "advice",
)


@dataclass(frozen=True)
class PipelineConfig:
    """Every analysis choice the pipeline makes, with its default."""

    policy: str = "listwise"
    bartlett_alpha: float = 0.05
    msa_threshold: float = MSA_THRESHOLD
    extraction: str = "paf"
    retention: str = "kaiser"  # "kaiser" | "fixed:<k>"
    rotation: str = "oblimin"
    gamma: float = 0.0
    loading_cutoff: float = ASSIGN_CUTOFF
    force: bool = False

    def __post_init__(self):
        if not isinstance(self.force, bool):
            raise ConfigError(f"force must be True or False, got {self.force!r}")
        check_policy(self.policy)
        check_alpha(self.bartlett_alpha)
        check_msa_threshold(self.msa_threshold)
        check_options(self.extraction, self.retention, self.rotation, self.gamma)
        check_cutoff(self.loading_cutoff)

    def to_dict(self) -> dict:
        return _record(self)


@dataclass(frozen=True)
class FactorScale:
    """Per-factor scale record as it appears in the report."""

    name: str
    items: tuple[str, ...]
    alpha_raw: float | None
    alpha_standardized: float | None
    alpha_if_deleted: dict[str, float | None]


@dataclass(frozen=True, eq=False)
class ValidationReport:
    """Everything one validation run produced, in stage order.

    The fields are the report's top-level keys, in order; only the
    solution is laid out apart from its fields (see solution_to_dict).
    """

    dataset: dict
    adequacy: AdequacyReport
    prune_trail: tuple[PruneStep, ...]
    solution: FactorSolution
    scales: tuple[FactorScale, ...]
    advice: SampleAdequacyAdvice
    warnings: tuple[str, ...]
    config: PipelineConfig
    stages: tuple[str, ...] = STAGES

    def to_dict(self) -> dict:
        return {
            f.name: solution_to_dict(self.solution) if f.name == "solution"
            else _record(getattr(self, f.name))
            for f in fields(self)
        }


def solution_to_dict(sol: FactorSolution) -> dict:
    """The stable JSON form of a factor solution (row-major matrices)."""
    return _record({
        "extraction": sol.extraction,
        "rotation": sol.rotation,
        "m": sol.m,
        "eigenvalues": sol.eigenvalues,
        "loadings": sol.loadings,
        "structure": sol.structure,
        "phi": sol.phi,
        "communalities": dict(zip(sol.items, sol.communalities.tolist())),
        "variance_explained": sol.variance_explained,
    })


_AS_IS = frozenset({str, bool, int, type(None)})


def _record(value):
    """The JSON form of a result, walked once.

    Floats become Python floats, NaN becomes None; None, strings, bools and
    ints stay as they are; arrays, lists and tuples become lists; dicts keep
    their keys; a dataclass becomes its fields in order; numpy integers
    become ints. Floats are tested first because matrices are mostly floats.
    """
    if isinstance(value, float):
        return None if value != value else float(value)
    kind = type(value)
    if kind in _AS_IS:
        return value
    if kind is np.ndarray:
        out = value.tolist()
        # a NaN anywhere makes the sum NaN; only then walk the elements
        return _record(out) if math.isnan(value.sum()) else out
    if isinstance(value, dict):
        return {k: _record(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_record(v) for v in value]
    if is_dataclass(value):
        return {f.name: _record(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, (int, np.integer)):
        return int(value)
    return _record(float(value))


def json_bytes(record) -> bytes:
    """A walked record as indented UTF-8 JSON ending in a newline."""
    return (json.dumps(record, indent=2, allow_nan=False) + "\n").encode("utf-8")


def correlate(ds: SurveyDataset, policy: str) -> tuple[AnalysisView, SymMatrix]:
    """The head of every analysis: the missing-data policy, then R.

    Errors are tagged with the stage that raised them, "policy" or
    "correlation", in run_validation and in the subcommands alike.
    """
    with stage("policy"):
        view = complete_cases(ds, policy)
    with stage("correlation"):
        return view, correlation_matrix(view.data, list(view.items))


def run_validation(
    ds: SurveyDataset,
    config: PipelineConfig | None = None,
    source: str | None = None,
) -> ValidationReport:
    """Run the full validation workflow on one dataset.

    Stage order is fixed (see STAGES). The sphericity gate aborts with
    AssumptionsNotMet unless config.force is set, in which case the run
    continues with a warning. Per-factor alpha is computed from the
    original responses of each factor's assigned items (cross-loaded and
    unassigned items excluded, listed in warnings), listwise within the
    scale.
    """
    cfg = config if config is not None else PipelineConfig()
    warnings: list[str] = []

    view, R = correlate(ds, cfg.policy)
    n_eff = view.effective_n

    with stage("bartlett"):
        chi2, df, pval = bartlett_sphericity(R, n_eff)
        try:
            sphericity_gate(pval, cfg.bartlett_alpha)
        except AssumptionsNotMet as exc:
            if not cfg.force:
                raise
            warnings.append(f"AssumptionsNotMet: {exc}; continuing because force is set")

    with stage("kmo"):
        kmo_overall, msa = kmo(R, list(view.items))
    adequacy = AdequacyReport({"chi2": chi2, "df": df, "p": pval}, kmo_overall, msa)

    with stage("prune"):
        trail = msa_prune(view, cfg.msa_threshold)
        if trail.termination == "min_items_reached":
            warnings.append(
                f"CannotReachThreshold: pruning stopped at "
                f"{len(trail.retained)} items with minimum MSA still below "
                f"{cfg.msa_threshold:g}"
            )
        retained = list(trail.retained)
        if trail.steps:
            idx = [list(view.items).index(it) for it in retained]
            R_work = correlation_matrix(view.data[:, idx], retained)
        else:
            R_work = R

    # tags its own errors: retention, extraction, rotation
    solution = fit_efa(
        R_work, retained, cfg.extraction, cfg.retention, cfg.rotation, cfg.gamma
    )
    if cfg.retention == "kaiser" and not np.any(solution.eigenvalues > 1.0):
        warnings.append("ForcedRetention: no eigenvalue exceeds 1; retaining one factor")
    if solution.heywood:
        warnings.append(
            "HeywoodCase: a communality reached 1 during factoring and was clamped"
        )

    with stage("assignment"):
        assignments = assign_items(solution, cfg.loading_cutoff)
        cross = [a.item for a in assignments.values() if a.status == "cross_loaded"]
        loose = [a.item for a in assignments.values() if a.status == "unassigned"]
        if cross:
            warnings.append("CrossLoading: excluded from reliability: " + ", ".join(cross))
        if loose:
            warnings.append(
                f"Unassigned: no loading reaches {cfg.loading_cutoff:g}: "
                + ", ".join(loose)
            )

    with stage("reliability"):
        scales: list[FactorScale] = []
        for k in range(solution.m):
            name = f"F{k + 1}"
            members = tuple(
                a.item
                for a in assignments.values()
                if a.factor == k and a.status == "assigned"
            )
            if len(members) < 2:
                warnings.append(
                    f"TooFewItems: factor {name} has {len(members)} assigned "
                    f"item(s); alpha not computed"
                )
                scales.append(FactorScale(name, members, None, None, {}))
                continue
            rep = cronbach_alpha(ds, ScaleDefinition(name, members))
            if rep.negative:
                warnings.append(f"NegativeAlpha: {name} alpha_raw = {rep.alpha_raw:.4f}")
            scales.append(
                FactorScale(
                    name, members, rep.alpha_raw, rep.alpha_standardized,
                    rep.alpha_if_deleted,
                )
            )

    with stage("advice"):
        advice = sample_adequacy_advice(solution, n_eff)
        if advice.caution:
            warnings.append("SampleSizeCaution: " + advice.note)

    dataset_summary = {
        "source": source,
        "n": ds.n,
        "p": ds.p,
        "likert_min": ds.likert_min,
        "likert_max": ds.likert_max,
        "effective_n": n_eff,
        "items": list(ds.items),
        "items_retained": list(retained),
    }
    return ValidationReport(
        dataset=dataset_summary,
        adequacy=adequacy,
        prune_trail=trail.steps,
        solution=solution,
        scales=tuple(scales),
        advice=advice,
        warnings=tuple(warnings),
        config=cfg,
    )


def render_report(report: ValidationReport, format: str = "text") -> bytes:
    """Serialize a report to bytes, JSON or aligned plain text."""
    return render("validate", report.to_dict(), format)


def render(command: str, record, format: str) -> bytes:
    """A command's walked record as JSON or as its plain-text sections."""
    if format == "json":
        return json_bytes(record)
    if format == "text":
        return ("\n".join(_TEXT[command](record)) + "\n").encode("utf-8")
    raise ConfigError(f"unknown report format {format!r}")


def _cell(value, spec: str = ".4f") -> str:
    """One record value as text: floats by spec, a missing value as n/a."""
    if value is None:
        return "n/a"
    return format(value, spec) if isinstance(value, float) else str(value)


def _table(header: list[str], rows: list[list[str]]) -> list[str]:
    """Lines of aligned columns, each as wide as its widest cell.

    The first column is left-aligned and the others right-aligned; lines
    are indented, and columns separated, by two spaces.
    """
    widths = [max(map(len, column)) for column in zip(header, *rows)]
    return [
        "  " + "  ".join(
            [row[0].ljust(widths[0])]
            + [cell.rjust(width) for cell, width in zip(row[1:], widths[1:])]
        )
        for row in (header, *rows)
    ]


def _bartlett_text(b: dict) -> list[str]:
    return [f"bartlett: chi2({b['df']}) = {_cell(b['chi2'])}, p = {_cell(b['p'], '.6g')}"]


def _kmo_text(k: dict) -> list[str]:
    rows = [[item, _cell(v)] for item, v in k["msa"].items()]
    return [f"kmo overall: {_cell(k['kmo_overall'])}", *_table(["item", "msa"], rows)]


def _solution_text(sol: dict) -> list[str]:
    names = [f"F{k + 1}" for k in range(sol["m"])]
    title = f"solution: {sol['extraction']}, rotation {sol['rotation']}, m={sol['m']}"
    lines = [title, "-" * len(title)]
    lines.append("eigenvalues: " + " ".join(map(_cell, sol["eigenvalues"])))
    rows = [
        [item, *map(_cell, loadings), _cell(h2)]
        for (item, h2), loadings in zip(sol["communalities"].items(), sol["loadings"])
    ]
    lines += _table(["item", *names, "h2"], rows)
    lines.append(
        "variance explained: "
        + " ".join(f"{n}={_cell(v)}" for n, v in zip(names, sol["variance_explained"]))
    )
    if sol["m"] > 1:
        lines.append("factor correlations (phi):")
        rows = [[n, *map(_cell, row)] for n, row in zip(names, sol["phi"])]
        lines += _table(["", *names], rows)
    return lines


def _validate_text(d: dict) -> list[str]:
    ds, ade = d["dataset"], d["adequacy"]
    lines = [
        "scale validation report",
        "=======================",
        f"dataset: n={ds['n']}, p={ds['p']} items, effective n={ds['effective_n']}, "
        f"likert {ds['likert_min']}..{ds['likert_max']}",
        "config: policy={policy} extraction={extraction} retention={retention} "
        "rotation={rotation} gamma={gamma:g} msa_threshold={msa_threshold:g} "
        "cutoff={loading_cutoff:g} bartlett_alpha={bartlett_alpha:g} "
        "force={force}".format(**d["config"]),
        "",
        "adequacy",
        "--------",
        *_bartlett_text(ade["bartlett"]),
        *_kmo_text(ade),
    ]
    if d["prune_trail"]:
        lines += ["pruned items:", *_records_table(d["prune_trail"])]
    else:
        lines.append("pruned items: none")
    lines += ["", *_solution_text(d["solution"]), "", "scales", "------"]
    lines += _table(
        ["scale", "alpha_raw", "alpha_standardized", "items"],
        [
            [s["name"], _cell(s["alpha_raw"]), _cell(s["alpha_standardized"]),
             ",".join(s["items"]) or "-"]
            for s in d["scales"]
        ],
    )
    lines += ["", f"advice: {d['advice']['note']}"]
    if d["warnings"]:
        lines += ["", "WARNINGS", "--------", *(f"- {w}" for w in d["warnings"])]
    return lines


def _alpha_text(reports: list) -> list[str]:
    lines = []
    for r in reports:
        lines.append(
            f"{r['scale']}: k={r['k']} n={r['n']} alpha_raw={_cell(r['alpha_raw'])} "
            f"alpha_standardized={_cell(r['alpha_standardized'])}"
        )
        lines += _table(
            ["item", "item_total", "alpha_if_deleted"],
            [
                [item, _cell(v), _cell(r["alpha_if_deleted"][item])]
                for item, v in r["item_total_correlations"].items()
            ],
        )
    return lines


def _retest_text(reports: list) -> list[str]:
    lines = []
    for r in reports:
        lines.append(
            f"{r['scale']}: matched_n={r['matched_n']} total_r={_cell(r['total_r'])} "
            f"(dropped {r['dropped_first']}+{r['dropped_second']} incomplete)"
        )
        lines += _table(["item", "r"], [[item, _cell(v)] for item, v in r["item_r"].items()])
    return lines


def _records_table(records: list[dict]) -> list[str]:
    """Records with the same keys as a table headed by those keys."""
    return _table(list(records[0]), [list(map(_cell, r.values())) for r in records])


_TEXT = {
    "validate": _validate_text,
    "efa": _solution_text,
    "kmo": _kmo_text,
    "bartlett": _bartlett_text,
    "alpha": _alpha_text,
    "retest": _retest_text,
    "describe": _records_table,
}
