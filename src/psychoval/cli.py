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
from dataclasses import fields
from pathlib import Path

from .adequacy import bartlett_sphericity, check_alpha, kmo, sphericity_gate
from .efa import EXTRACTIONS, ROTATIONS, fit_efa
from .errors import ConfigError, PsychovalError, stage
from .ingest import (
    DEFAULT_LIKERT, MISSING_TOKEN, POLICIES, ScaleDefinition, describe, load_csv,
    load_scales, parse_likert, split_items, to_csv,
)
from .pipeline import (
    PipelineConfig, _record, correlate, render, run_validation, solution_to_dict,
)
from .reliability import cronbach_alpha, test_retest
from .simulate import generate, load_model

SEED_ENV = "PSYCHOVAL_SEED"


def _likert_bounds(text: str) -> tuple[int, int]:
    try:
        return parse_likert(text)
    except ConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_input_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("-i", "--input", required=True, help="survey CSV file")
    _add_reading_flags(p)


def _add_reading_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--likert",
        type=_likert_bounds,
        default=DEFAULT_LIKERT,
        metavar="A:B",
        help="inclusive Likert bounds (default %s:%s)" % DEFAULT_LIKERT,
    )
    p.add_argument("--missing", default=MISSING_TOKEN,
                   help="missing-cell token (default %(default)s)")


def _add_scale_flags(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--scales", help="scale sidecar file (name: id1,id2,...)")
    group.add_argument("--items", help="comma-separated item ids for one scale")
    p.add_argument("--name", default="scale", help="scale name with --items")


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "-f", "--format", choices=("text", "json"), default="text",
        help="output format (default text)",
    )
    p.add_argument("-o", "--out", default=None, help="write output to this file")


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--policy", choices=POLICIES)
    p.add_argument(
        "--extraction", choices=EXTRACTIONS,
        help="factor extraction method (default %(default)s)",
    )
    p.add_argument(
        "--retention", metavar="kaiser|fixed:K",
        help="factor retention rule (default %(default)s)",
    )
    p.add_argument(
        "--rotation", choices=ROTATIONS,
        help="rotation method (default %(default)s)",
    )
    p.add_argument(
        "--gamma", type=float,
        help="oblimin gamma parameter (default %(default)g = quartimin)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psychoval",
        description="survey scale validation: adequacy, factoring, reliability",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # analysis flags take PipelineConfig's field names as dests, and its defaults
    defaults = PipelineConfig().to_dict()

    p = sub.add_parser("validate", help="run the full validation pipeline")
    _add_input_flags(p)
    _add_model_flags(p)
    p.add_argument("--alpha", dest="bartlett_alpha", type=float, metavar="ALPHA",
                   help="bartlett significance level (default %(default)g)")
    p.add_argument("--msa-threshold", type=float,
                   help="per-item MSA pruning threshold (default %(default)g)")
    p.add_argument("--cutoff", dest="loading_cutoff", type=float, metavar="CUTOFF",
                   help="loading cutoff for item assignment (default %(default)g)")
    p.add_argument("--force", action="store_true",
                   help="continue past a failed sphericity gate (warned)")
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_validate, **defaults)

    p = sub.add_parser("efa", help="extraction and rotation only")
    _add_input_flags(p)
    _add_model_flags(p)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_efa, **defaults)

    p = sub.add_parser("alpha", help="Cronbach's alpha for defined scales")
    _add_input_flags(p)
    _add_scale_flags(p)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_alpha)

    p = sub.add_parser("retest", help="test-retest reliability across two files")
    p.add_argument("--t1", required=True, help="first-occasion CSV")
    p.add_argument("--t2", required=True, help="second-occasion CSV")
    _add_reading_flags(p)
    _add_scale_flags(p)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_retest)

    p = sub.add_parser("kmo", help="sampling adequacy (KMO overall and per-item MSA)")
    _add_input_flags(p)
    p.add_argument("--policy", choices=POLICIES)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_kmo, **defaults)

    p = sub.add_parser("bartlett", help="sphericity gate: fails when not significant")
    _add_input_flags(p)
    p.add_argument("--policy", choices=POLICIES)
    p.add_argument("--alpha", dest="bartlett_alpha", type=float, metavar="ALPHA",
                   help="significance level (default %(default)g)")
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_bartlett, **defaults)

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


def _load(args, path: str):
    return load_csv(path, *args.likert, missing_token=args.missing)


def _scale_definitions(args) -> list[ScaleDefinition]:
    if args.scales:
        return load_scales(args.scales)
    return [ScaleDefinition(args.name, split_items(args.items))]


def _cmd_validate(args) -> dict:
    ds = _load(args, args.input)
    cfg = PipelineConfig(**{f.name: getattr(args, f.name) for f in fields(PipelineConfig)})
    return run_validation(ds, cfg, source=args.input).to_dict()


def _cmd_efa(args) -> dict:
    view, R = correlate(_load(args, args.input), args.policy)
    solution = fit_efa(
        R, view.items, args.extraction, args.retention, args.rotation, args.gamma
    )
    return solution_to_dict(solution)


def _cmd_alpha(args) -> list:
    ds = _load(args, args.input)
    return _record([cronbach_alpha(ds, sd) for sd in _scale_definitions(args)])


def _cmd_retest(args) -> list:
    ds1, ds2 = _load(args, args.t1), _load(args, args.t2)
    return _record([test_retest(ds1, ds2, sd) for sd in _scale_definitions(args)])


def _cmd_kmo(args) -> dict:
    view, R = correlate(_load(args, args.input), args.policy)
    with stage("kmo"):
        overall, msa = kmo(R, list(view.items))
    return _record({"kmo_overall": overall, "msa": msa})


def _cmd_bartlett(args) -> dict:
    check_alpha(args.bartlett_alpha)
    view, R = correlate(_load(args, args.input), args.policy)
    with stage("bartlett"):
        chi2, df, p = bartlett_sphericity(R, view.effective_n)
        sphericity_gate(p, args.bartlett_alpha)
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
    return _record(describe(_load(args, args.input)))


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
    except (PsychovalError, OSError) as exc:
        stage = getattr(exc, "stage", None)
        suffix = f" [stage: {stage}]" if stage else ""
        print(f"{type(exc).__name__}: {exc}{suffix}", file=sys.stderr)
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
