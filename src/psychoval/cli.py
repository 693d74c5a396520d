"""Command-line front end for validation, factoring, reliability, simulation.

Results go to stdout (or --out); diagnostics go to stderr. Exit codes:
0 success, 1 anticipated analysis error (the error name is printed on
stderr, never a stack trace), 2 usage error. PSYCHOVAL_SEED provides a
default simulation seed; an explicit --seed wins.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .adequacy import bartlett_sphericity, check_alpha, kmo, sphericity_gate
from .efa import EXTRACTIONS, ROTATIONS, fit_efa
from .errors import ConfigError, PsychovalError, stage
from .ingest import POLICIES, ScaleDefinition, describe, load_csv, load_scales, to_csv
from .pipeline import (
    PipelineConfig, _record, correlate, render, run_validation, solution_to_dict,
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


def _scale_definitions(args) -> list[ScaleDefinition]:
    if args.scales:
        return load_scales(args.scales)
    items = tuple(tok.strip() for tok in args.items.split(",") if tok.strip())
    return [ScaleDefinition(args.name, items)]


def _cmd_validate(args) -> dict:
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
    return run_validation(ds, cfg, source=args.input).to_dict()


def _cmd_efa(args) -> dict:
    view, R = correlate(_load(args), args.policy)
    solution = fit_efa(
        R, view.items, args.extraction, args.retention, args.rotation, args.gamma
    )
    return solution_to_dict(solution)


def _cmd_alpha(args) -> list:
    ds = _load(args)
    return _record([cronbach_alpha(ds, sd) for sd in _scale_definitions(args)])


def _cmd_retest(args) -> list:
    lo, hi = args.likert
    ds1 = load_csv(args.t1, lo, hi, missing_token=args.missing)
    ds2 = load_csv(args.t2, lo, hi, missing_token=args.missing)
    return _record([test_retest(ds1, ds2, sd) for sd in _scale_definitions(args)])


def _cmd_kmo(args) -> dict:
    view, R = correlate(_load(args), args.policy)
    with stage("kmo"):
        overall, msa, _ = kmo(R, list(view.items))
    return _record({"kmo_overall": overall, "msa": msa})


def _cmd_bartlett(args) -> dict:
    check_alpha(args.alpha)
    view, R = correlate(_load(args), args.policy)
    with stage("bartlett"):
        chi2, df, p = bartlett_sphericity(R, view.effective_n)
        sphericity_gate(p, args.alpha)
    return _record({"chi2": chi2, "df": df, "p": p})


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


def _cmd_describe(args) -> list:
    return _record(describe(_load(args)))


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        payload = args.handler(args)
        if not isinstance(payload, bytes):  # a walked record, rendered as asked
            payload = render(args.command, payload, args.format)
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
