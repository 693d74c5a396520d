"""Command-line front end for validation, factoring, reliability, simulation.

Results go to stdout (or --out); diagnostics go to stderr. Exit codes:
0 success, 1 anticipated analysis error (the error name is printed on
stderr, never a stack trace), 2 usage error. PSYCHOVAL_SEED provides a
default simulation seed; an explicit --seed wins.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .adequacy import bartlett_sphericity, kmo
from .core_stats import correlation_matrix
from .efa import EXTRACTIONS, ROTATIONS, fit_efa
from .errors import AssumptionsNotMet, ConfigError, PsychovalError
from .ingest import (
    POLICIES,
    ScaleDefinition,
    complete_cases,
    describe,
    load_csv,
    load_scales,
    to_csv,
)
from .pipeline import (
    PipelineConfig,
    _num,
    _record,
    render_report,
    run_validation,
    solution_to_dict,
)
from .reliability import cronbach_alpha, test_retest
from .simulate import generate, load_model

SEED_ENV = "PSYCHOVAL_SEED"


def _likert_bounds(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition(":")
    try:
        if not sep:
            raise ValueError
        bounds = (int(lo), int(hi))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"likert bounds {text!r} must look like 1:7"
        ) from None
    if bounds[0] >= bounds[1]:
        raise argparse.ArgumentTypeError("likert low bound must be below high bound")
    return bounds


def _add_input_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("-i", "--input", required=True, help="survey CSV file")
    p.add_argument(
        "--likert",
        type=_likert_bounds,
        default=(1, 7),
        metavar="A:B",
        help="inclusive Likert bounds (default 1:7)",
    )
    p.add_argument("--missing", default="NA", help="missing-cell token (default NA)")


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "-f", "--format", choices=("text", "json"), default="text",
        help="output format (default text)",
    )
    p.add_argument("-o", "--out", default=None, help="write output to this file")


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--policy", choices=POLICIES, default="listwise")
    p.add_argument(
        "--extraction", choices=EXTRACTIONS, default="paf",
        help="factor extraction method (default paf)",
    )
    p.add_argument(
        "--retention", default="kaiser", metavar="kaiser|fixed:K",
        help="factor retention rule (default kaiser)",
    )
    p.add_argument(
        "--rotation", choices=ROTATIONS, default="oblimin",
        help="rotation method (default oblimin)",
    )
    p.add_argument(
        "--gamma", type=float, default=0.0,
        help="oblimin gamma parameter (default 0 = quartimin)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psychoval",
        description="survey scale validation: adequacy, factoring, reliability",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="run the full validation pipeline")
    _add_input_flags(p)
    _add_model_flags(p)
    p.add_argument("--alpha", type=float, default=0.05,
                   help="bartlett significance level (default 0.05)")
    p.add_argument("--msa-threshold", type=float, default=0.5,
                   help="per-item MSA pruning threshold (default 0.5)")
    p.add_argument("--cutoff", type=float, default=0.4,
                   help="loading cutoff for item assignment (default 0.4)")
    p.add_argument("--force", action="store_true",
                   help="continue past a failed sphericity gate (warned)")
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("efa", help="extraction and rotation only")
    _add_input_flags(p)
    _add_model_flags(p)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_efa)

    p = sub.add_parser("alpha", help="Cronbach's alpha for defined scales")
    _add_input_flags(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--scales", help="scale sidecar file (name: id1,id2,...)")
    group.add_argument("--items", help="comma-separated item ids for one scale")
    p.add_argument("--name", default="scale", help="scale name with --items")
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_alpha)

    p = sub.add_parser("retest", help="test-retest reliability across two files")
    p.add_argument("--t1", required=True, help="first-occasion CSV")
    p.add_argument("--t2", required=True, help="second-occasion CSV")
    p.add_argument("--likert", type=_likert_bounds, default=(1, 7), metavar="A:B")
    p.add_argument("--missing", default="NA")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--scales", help="scale sidecar file")
    group.add_argument("--items", help="comma-separated item ids for one scale")
    p.add_argument("--name", default="scale", help="scale name with --items")
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_retest)

    p = sub.add_parser("kmo", help="sampling adequacy (KMO overall and per-item MSA)")
    _add_input_flags(p)
    p.add_argument("--policy", choices=POLICIES, default="listwise")
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_kmo)

    p = sub.add_parser("bartlett", help="sphericity gate: fails when not significant")
    _add_input_flags(p)
    p.add_argument("--policy", choices=POLICIES, default="listwise")
    p.add_argument("--alpha", type=float, default=0.05,
                   help="significance level (default 0.05)")
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_bartlett)

    p = sub.add_parser("simulate", help="generate Likert data from a factor model")
    p.add_argument("--spec", required=True, help="model file (key: value + blocks)")
    p.add_argument("-n", "--n", type=int, default=None, help="respondent count")
    p.add_argument("-s", "--seed", type=int, default=None,
                   help=f"simulation seed (default: ${SEED_ENV} or the model file)")
    p.add_argument("-o", "--out", default=None, help="write CSV to this file")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("describe", help="per-item summary statistics")
    _add_input_flags(p)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_describe)

    return parser


def _load(args):
    lo, hi = args.likert
    return load_csv(args.input, lo, hi, missing_token=args.missing)


def _view_matrix(args, ds):
    view = complete_cases(ds, args.policy)
    return view, correlation_matrix(view.data, list(view.items))


def _scale_definitions(args) -> list[ScaleDefinition]:
    if args.scales:
        return load_scales(args.scales)
    items = tuple(tok.strip() for tok in args.items.split(",") if tok.strip())
    return [ScaleDefinition(args.name, items)]


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, indent=2, allow_nan=False) + "\n").encode("utf-8")


def _cmd_validate(args) -> bytes:
    ds = _load(args)
    cfg = PipelineConfig(
        policy=args.policy,
        bartlett_alpha=args.alpha,
        msa_threshold=args.msa_threshold,
        extraction=args.extraction,
        retention=args.retention,
        rotation=args.rotation,
        gamma=args.gamma,
        loading_cutoff=args.cutoff,
        force=args.force,
    )
    report = run_validation(ds, cfg, source=args.input)
    return render_report(report, args.format)


def _cmd_efa(args) -> bytes:
    ds = _load(args)
    view, R = _view_matrix(args, ds)
    solution = fit_efa(
        R, view.items, args.extraction, args.retention, args.rotation, args.gamma
    )
    d = solution_to_dict(solution)
    if args.format == "json":
        return _json_bytes(d)
    lines = [f"extraction={d['extraction']} rotation={d['rotation']} m={d['m']}"]
    lines.append("eigenvalues: " + " ".join(f"{v:.4f}" for v in d["eigenvalues"]))
    width = max(len(i) for i in solution.items)
    for j, item in enumerate(solution.items):
        cells = " ".join(f"{v:8.4f}" for v in d["loadings"][j])
        lines.append(f"  {item:<{width}} {cells}  h2={d['communalities'][item]:.4f}")
    if d["m"] > 1:
        lines.append("phi:")
        for row in d["phi"]:
            lines.append("  " + " ".join(f"{v:8.4f}" for v in row))
    return ("\n".join(lines) + "\n").encode("utf-8")


def _cmd_alpha(args) -> bytes:
    ds = _load(args)
    reports = [cronbach_alpha(ds, sd) for sd in _scale_definitions(args)]
    if args.format == "json":
        return _json_bytes([_record(r) for r in reports])
    lines = []
    for r in reports:
        lines.append(
            f"{r.scale}: k={r.k} n={r.n} alpha_raw={r.alpha_raw:.4f} "
            f"alpha_standardized={r.alpha_standardized:.4f}"
        )
        for item in r.item_total_correlations:
            deleted = r.alpha_if_deleted[item]
            deleted_text = "n/a" if deleted != deleted else f"{deleted:.4f}"
            lines.append(
                f"  {item}: item_total={r.item_total_correlations[item]:.4f} "
                f"alpha_if_deleted={deleted_text}"
            )
    return ("\n".join(lines) + "\n").encode("utf-8")


def _cmd_retest(args) -> bytes:
    lo, hi = args.likert
    ds1 = load_csv(args.t1, lo, hi, missing_token=args.missing)
    ds2 = load_csv(args.t2, lo, hi, missing_token=args.missing)
    reports = [test_retest(ds1, ds2, sd) for sd in _scale_definitions(args)]
    if args.format == "json":
        return _json_bytes([_record(r) for r in reports])
    lines = []
    for r in reports:
        lines.append(
            f"{r.scale}: matched_n={r.matched_n} total_r={r.total_r:.4f} "
            f"(dropped {r.dropped_first}+{r.dropped_second} incomplete)"
        )
        for item, value in r.item_r.items():
            lines.append(f"  {item}: r={value:.4f}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def _cmd_kmo(args) -> bytes:
    ds = _load(args)
    view, R = _view_matrix(args, ds)
    overall, msa, _ = kmo(R, list(view.items))
    if args.format == "json":
        return _json_bytes(
            {"kmo_overall": _num(overall), "msa": {k: _num(v) for k, v in msa.items()}}
        )
    lines = [f"kmo overall: {overall:.4f}"]
    width = max(len(i) for i in msa)
    for item, value in msa.items():
        lines.append(f"  {item:<{width}}  msa={value:.4f}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def _cmd_bartlett(args) -> bytes:
    if not 0.0 < args.alpha < 1.0:
        raise ConfigError(f"alpha {args.alpha:g} must lie in (0, 1)")
    ds = _load(args)
    view, R = _view_matrix(args, ds)
    chi2, df, p = bartlett_sphericity(R, view.effective_n)
    if p > args.alpha:
        raise AssumptionsNotMet(
            f"sphericity not significant (p = {p:.6g} > alpha = {args.alpha:g})"
        )
    if args.format == "json":
        return _json_bytes({"chi2": _num(chi2), "df": df, "p": _num(p)})
    return f"bartlett: chi2({df}) = {chi2:.4f}, p = {p:.6g}\n".encode("utf-8")


def _cmd_simulate(args) -> bytes:
    seed = args.seed
    if seed is None and os.environ.get(SEED_ENV):
        raw = os.environ[SEED_ENV]
        try:
            seed = int(raw)
        except ValueError:
            raise ConfigError(f"{SEED_ENV}={raw!r} is not an integer") from None
    spec = load_model(args.spec, n=args.n, seed=seed)
    return to_csv(generate(spec)).encode("utf-8")


def _cmd_describe(args) -> bytes:
    ds = _load(args)
    summaries = describe(ds)
    if args.format == "json":
        return _json_bytes(
            [
                {
                    "item": s.item,
                    "n": s.n,
                    "missing": s.missing,
                    "mean": _num(s.mean),
                    "sd": _num(s.sd),
                    "min": _num(s.min),
                    "max": _num(s.max),
                }
                for s in summaries
            ]
        )
    width = max(len(s.item) for s in summaries)
    lines = [f"  {'item':<{width}} {'n':>6} {'miss':>5} {'mean':>8} {'sd':>8} "
             f"{'min':>5} {'max':>5}"]
    for s in summaries:
        mean = "n/a" if s.mean != s.mean else f"{s.mean:8.4f}"
        sd = "n/a" if s.sd != s.sd else f"{s.sd:8.4f}"
        lines.append(
            f"  {s.item:<{width}} {s.n:>6} {s.missing:>5} {mean:>8} {sd:>8} "
            f"{s.min:>5.0f} {s.max:>5.0f}"
        )
    return ("\n".join(lines) + "\n").encode("utf-8")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        payload = args.handler(args)
    except PsychovalError as exc:
        stage = getattr(exc, "stage", None)
        suffix = f" [stage: {stage}]" if stage else ""
        print(f"{exc.name}: {exc}{suffix}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    out = getattr(args, "out", None)
    if out:
        Path(out).write_bytes(payload)
    else:
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()
    return 0


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
