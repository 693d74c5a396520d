"""End-to-end scale validation: adequacy, pruning, factoring, reliability.

run_validation executes the fixed stage sequence (missing-data policy,
correlation, sphericity gate, sampling adequacy, item pruning, retention,
extraction, rotation, canonical form, item assignment, per-factor alpha,
sample-size advice) and returns a ValidationReport that serializes to a
stable JSON schema. Identical inputs and configuration produce identical
report bytes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

import numpy as np

from .adequacy import (
    AdequacyReport,
    PruneStep,
    SampleAdequacyAdvice,
    bartlett_sphericity,
    kmo,
    msa_prune,
    sample_adequacy_advice,
)
# sym_eigen is unused here but stays bound: perfbench's tracer tests wrap it
from .core_stats import correlation_matrix, sym_eigen  # noqa: F401
from .efa import (
    EXTRACTIONS,
    ROTATIONS,
    FactorSolution,
    assign_items,
    fit_efa,
    fixed_count,
)
from .errors import AssumptionsNotMet, CannotReachThreshold, ConfigError, stage
from .ingest import POLICIES, ScaleDefinition, SurveyDataset, complete_cases
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
    msa_threshold: float = 0.5
    extraction: str = "paf"
    retention: str = "kaiser"  # "kaiser" | "fixed:<k>"
    rotation: str = "oblimin"
    gamma: float = 0.0
    loading_cutoff: float = 0.4
    force: bool = False

    def __post_init__(self):
        if self.policy not in POLICIES:
            raise ConfigError(f"unknown missing-data policy {self.policy!r}")
        if not 0.0 < self.bartlett_alpha < 1.0:
            raise ConfigError("bartlett_alpha must lie in (0, 1)")
        if not 0.0 <= self.msa_threshold < 1.0:
            raise ConfigError("msa_threshold must lie in [0, 1)")
        if self.extraction not in EXTRACTIONS:
            raise ConfigError(f"unknown extraction {self.extraction!r}")
        if self.rotation not in ROTATIONS:
            raise ConfigError(f"unknown rotation {self.rotation!r}")
        if not 0.0 < self.loading_cutoff < 1.0:
            raise ConfigError("loading_cutoff must lie in (0, 1)")
        fixed_count(self.retention)

    def to_dict(self) -> dict:
        return {
            "policy": self.policy,
            "bartlett_alpha": self.bartlett_alpha,
            "msa_threshold": self.msa_threshold,
            "extraction": self.extraction,
            "retention": self.retention,
            "rotation": self.rotation,
            "gamma": self.gamma,
            "loading_cutoff": self.loading_cutoff,
            "force": self.force,
        }


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
    """Everything one validation run produced, in stage order."""

    dataset: dict
    adequacy: AdequacyReport
    prune_steps: tuple[PruneStep, ...]
    solution: FactorSolution
    scales: tuple[FactorScale, ...]
    advice: SampleAdequacyAdvice
    warnings: tuple[str, ...]
    config: PipelineConfig
    stages: tuple[str, ...] = STAGES

    def to_dict(self) -> dict:
        sol = self.solution
        return {
            "dataset": dict(self.dataset),
            "adequacy": {
                "bartlett": {
                    "chi2": _num(self.adequacy.bartlett_chi2),
                    "df": self.adequacy.bartlett_df,
                    "p": _num(self.adequacy.bartlett_p),
                },
                "kmo_overall": _num(self.adequacy.kmo_overall),
                "msa": {k: _num(v) for k, v in self.adequacy.msa_per_item.items()},
            },
            "prune_trail": [_record(s) for s in self.prune_steps],
            "solution": solution_to_dict(sol),
            "scales": [
                {
                    "name": s.name,
                    "items": list(s.items),
                    "alpha_raw": _num(s.alpha_raw),
                    "alpha_standardized": _num(s.alpha_standardized),
                    "alpha_if_deleted": {
                        k: _num(v) for k, v in s.alpha_if_deleted.items()
                    },
                }
                for s in self.scales
            ],
            "advice": _record(self.advice),
            "warnings": list(self.warnings),
            "config": self.config.to_dict(),
            "stages": list(self.stages),
        }

    def __eq__(self, other) -> bool:
        if not isinstance(other, ValidationReport):
            return NotImplemented
        return self.to_dict() == other.to_dict()


def solution_to_dict(sol: FactorSolution) -> dict:
    """The stable JSON form of a factor solution (row-major matrices)."""
    return {
        "extraction": sol.extraction,
        "rotation": sol.rotation,
        "m": sol.m,
        "eigenvalues": [_num(v) for v in sol.eigenvalues],
        "loadings": _matrix(sol.loadings),
        "structure": _matrix(sol.structure),
        "phi": _matrix(sol.phi),
        "communalities": {
            item: _num(v) for item, v in zip(sol.items, sol.communalities)
        },
        "variance_explained": [_num(v) for v in sol.variance_explained],
    }


def _num(value) -> float | int | None:
    """JSON-safe number: numpy scalars to Python, NaN to None."""
    if value is None:
        return None
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    value = float(value)
    return None if math.isnan(value) else value


def _record(obj) -> dict:
    """A dataclass as a JSON object: its fields in order, numbers through _num."""
    out = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, dict):
            value = {k: _num(v) for k, v in value.items()}
        elif not isinstance(value, (str, bool)):
            value = _num(value)
        out[f.name] = value
    return out


def _matrix(a: np.ndarray) -> list[list[float]]:
    return [[_num(v) for v in row] for row in np.atleast_2d(a)]


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

    def warn(message: str) -> None:
        if message not in warnings:
            warnings.append(message)

    with stage("policy"):
        view = complete_cases(ds, cfg.policy)
    n_eff = view.effective_n

    with stage("correlation"):
        R = correlation_matrix(view.data, list(view.items))

    with stage("bartlett"):
        chi2, df, pval = bartlett_sphericity(R, n_eff)
        if pval > cfg.bartlett_alpha:
            message = (
                f"sphericity not significant "
                f"(p = {pval:.6g} > alpha = {cfg.bartlett_alpha:g})"
            )
            if not cfg.force:
                raise AssumptionsNotMet(message)
            warn(f"AssumptionsNotMet: {message}; continuing because force is set")

    with stage("kmo"):
        kmo_overall, msa, _ = kmo(R, list(view.items))
    adequacy = AdequacyReport(
        n=n_eff,
        p=ds.p,
        bartlett_chi2=chi2,
        bartlett_df=df,
        bartlett_p=pval,
        kmo_overall=kmo_overall,
        msa_per_item=msa,
    )

    with stage("prune"):
        try:
            trail = msa_prune(view, cfg.msa_threshold)
        except CannotReachThreshold as exc:
            trail = exc.trail
            warn(
                f"CannotReachThreshold: pruning stopped at "
                f"{len(trail.retained)} items with minimum MSA still below "
                f"{cfg.msa_threshold:g}"
            )
        retained = list(trail.retained)
        if retained == list(view.items):
            R_work = R
        else:
            idx = [list(view.items).index(it) for it in retained]
            R_work = correlation_matrix(view.data[:, idx], retained)

    # tags its own errors: retention, extraction, rotation
    solution = fit_efa(
        R_work, retained, cfg.extraction, cfg.retention, cfg.rotation, cfg.gamma
    )
    if cfg.retention == "kaiser" and not np.any(solution.eigenvalues > 1.0):
        warn("ForcedRetention: no eigenvalue exceeds 1; retaining one factor")
    if solution.heywood:
        warn("HeywoodCase: a communality reached 1 during factoring and was clamped")

    with stage("assignment"):
        assignments = assign_items(solution, cfg.loading_cutoff)
        cross = [a.item for a in assignments.values() if a.status == "cross_loaded"]
        loose = [a.item for a in assignments.values() if a.status == "unassigned"]
        if cross:
            warn("CrossLoading: excluded from reliability: " + ", ".join(cross))
        if loose:
            warn(
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
                warn(
                    f"TooFewItems: factor {name} has {len(members)} assigned "
                    f"item(s); alpha not computed"
                )
                scales.append(FactorScale(name, members, None, None, {}))
                continue
            rep = cronbach_alpha(ds, ScaleDefinition(name, members))
            if rep.negative:
                warn(f"NegativeAlpha: {name} alpha_raw = {rep.alpha_raw:.4f}")
            scales.append(
                FactorScale(
                    name,
                    members,
                    _num(rep.alpha_raw),
                    _num(rep.alpha_standardized),
                    {it: _num(v) for it, v in rep.alpha_if_deleted.items()},
                )
            )

    with stage("advice"):
        advice = sample_adequacy_advice(solution, n_eff)
        if advice.caution:
            warn("SampleSizeCaution: " + advice.note)

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
        prune_steps=trail.steps,
        solution=solution,
        scales=tuple(scales),
        advice=advice,
        warnings=tuple(warnings),
        config=cfg,
    )


def render_report(report: ValidationReport, format: str = "text") -> bytes:
    """Serialize a report to bytes, JSON or aligned plain text."""
    if format == "json":
        return (json.dumps(report.to_dict(), indent=2, allow_nan=False) + "\n").encode(
            "utf-8"
        )
    if format == "text":
        return _render_text(report).encode("utf-8")
    raise ConfigError(f"unknown report format {format!r}")


def report_from_json(payload: str | bytes) -> ValidationReport:
    """Rebuild a ValidationReport from its JSON rendering."""
    d = json.loads(payload)
    sol = d["solution"]
    items = tuple(sol["communalities"].keys())
    solution = FactorSolution(
        items=items,
        extraction=sol["extraction"],
        rotation=sol["rotation"],
        loadings=np.array(sol["loadings"], dtype=float),
        eigenvalues=np.array(sol["eigenvalues"], dtype=float),
        phi=np.array(sol["phi"], dtype=float),
        communalities=np.array(list(sol["communalities"].values()), dtype=float),
    )
    adequacy = AdequacyReport(
        n=d["dataset"]["effective_n"],
        p=d["dataset"]["p"],
        bartlett_chi2=d["adequacy"]["bartlett"]["chi2"],
        bartlett_df=d["adequacy"]["bartlett"]["df"],
        bartlett_p=d["adequacy"]["bartlett"]["p"],
        kmo_overall=d["adequacy"]["kmo_overall"],
        msa_per_item=dict(d["adequacy"]["msa"]),
    )
    return ValidationReport(
        dataset=dict(d["dataset"]),
        adequacy=adequacy,
        prune_steps=tuple(
            PruneStep(s["item"], s["msa"], s["kmo_after"]) for s in d["prune_trail"]
        ),
        solution=solution,
        scales=tuple(
            FactorScale(
                s["name"],
                tuple(s["items"]),
                s["alpha_raw"],
                s["alpha_standardized"],
                dict(s["alpha_if_deleted"]),
            )
            for s in d["scales"]
        ),
        advice=SampleAdequacyAdvice(**d["advice"]),
        warnings=tuple(d["warnings"]),
        config=PipelineConfig(**d["config"]),
        stages=tuple(d["stages"]),
    )


def _render_text(report: ValidationReport) -> str:
    d = report.to_dict()
    sol = d["solution"]
    items = list(sol["communalities"].keys())
    m = sol["m"]
    factor_names = [f"F{k + 1}" for k in range(m)]
    assigned = {s["name"]: set(s["items"]) for s in d["scales"]}

    lines: list[str] = []
    lines.append("scale validation report")
    lines.append("=======================")
    ds = d["dataset"]
    lines.append(
        f"dataset: n={ds['n']}, p={ds['p']} items, "
        f"effective n={ds['effective_n']}, "
        f"likert {ds['likert_min']}..{ds['likert_max']}"
    )
    cfg = d["config"]
    lines.append(
        "config: policy={policy} extraction={extraction} retention={retention} "
        "rotation={rotation} gamma={gamma:g} msa_threshold={msa_threshold:g} "
        "cutoff={loading_cutoff:g} bartlett_alpha={bartlett_alpha:g} "
        "force={force}".format(**cfg)
    )
    lines.append("")

    lines.append("adequacy")
    lines.append("--------")
    bart = d["adequacy"]["bartlett"]
    lines.append(
        f"bartlett: chi2({bart['df']}) = {bart['chi2']:.4f}, p = {bart['p']:.6g}"
    )
    lines.append(f"kmo overall: {d['adequacy']['kmo_overall']:.4f}")
    width = max(len(i) for i in d["adequacy"]["msa"])
    for item, value in d["adequacy"]["msa"].items():
        lines.append(f"  {item:<{width}}  msa = {value:.4f}")
    if d["prune_trail"]:
        lines.append("pruned items:")
        for step in d["prune_trail"]:
            lines.append(
                f"  {step['item']}  (msa {step['msa']:.4f}, "
                f"kmo after {step['kmo_after']:.4f})"
            )
    else:
        lines.append("pruned items: none")
    lines.append("")

    lines.append(f"solution: {sol['extraction']}, rotation {sol['rotation']}, m={m}")
    lines.append("-" * len(lines[-1]))
    lines.append(
        "eigenvalues: " + " ".join(f"{v:.4f}" for v in sol["eigenvalues"])
    )
    width = max(len(i) for i in items)
    header = f"  {'item':<{width}} " + " ".join(f"{n:>8}" for n in factor_names)
    lines.append(header + f" {'h2':>8}  factor")
    for j, item in enumerate(items):
        row = sol["loadings"][j]
        owner = next((n for n in factor_names if item in assigned.get(n, ())), "-")
        cells = " ".join(f"{v:8.4f}" for v in row)
        h2 = sol["communalities"][item]
        lines.append(f"  {item:<{width}} {cells} {h2:8.4f}  {owner}")
    lines.append(
        "variance explained: "
        + " ".join(
            f"{n}={v:.4f}" for n, v in zip(factor_names, sol["variance_explained"])
        )
    )
    if m > 1:
        lines.append("factor correlations (phi):")
        for k, row in enumerate(sol["phi"]):
            cells = " ".join(f"{v:8.4f}" for v in row)
            lines.append(f"  {factor_names[k]:<4} {cells}")
    lines.append("")

    lines.append("scales")
    lines.append("------")
    for s in d["scales"]:
        raw = "n/a" if s["alpha_raw"] is None else f"{s['alpha_raw']:.4f}"
        std = (
            "n/a"
            if s["alpha_standardized"] is None
            else f"{s['alpha_standardized']:.4f}"
        )
        member_list = ", ".join(s["items"]) if s["items"] else "(none)"
        lines.append(
            f"  {s['name']}: items [{member_list}]  alpha_raw = {raw}  "
            f"alpha_standardized = {std}"
        )
    lines.append("")
    lines.append(f"advice: {d['advice']['note']}")

    if d["warnings"]:
        lines.append("")
        lines.append("WARNINGS")
        lines.append("--------")
        for w in d["warnings"]:
            lines.append(f"- {w}")
    lines.append("")
    return "\n".join(lines)
