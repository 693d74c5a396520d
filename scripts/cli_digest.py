"""Digest of the CLI's output over a fixed list of invocations on data/.

Runs every invocation in INVOCATIONS in-process through psychoval.cli.main
and prints one line per run:

    <exit code> <sha256(stdout)[:16]> <last stderr line> | <argv>

A run whose main raises instead of returning prints ``raise`` as its exit
code and the exception as its stderr line. Output is byte-stable, so a
before/after check of a change to the CLI or the report encoders is the
diff of two runs:

    python3 scripts/cli_digest.py > after.txt

Run it from any directory; paths are relative to the repository root.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

DEMO = "data/demo_survey.csv"
NOISE = "data/noise_survey.csv"
ONE = "data/one_item_survey.csv"
GAP = "data/gap_survey.csv"
WIDE = "data/wide_survey.csv"
WIDE_NOISE = "data/wide_noise_survey.csv"
PAIR = "data/anticorrelated_pair_survey.csv"
UNCORRELATED = "data/uncorrelated_item_survey.csv"
LATIN1 = "data/latin1_survey.csv"
SCALES = "data/demo_scales.txt"
POLICIES = ("listwise", "pairwise", "strict")

# model flag sets run through both validate and efa, in text and JSON
MODEL_FLAGS = (
    (),
    ("--rotation", "varimax"),
    ("--rotation", "none"),
    ("--gamma", "0.5"),
    ("--extraction", "pca"),
    ("--extraction", "pca", "--rotation", "varimax"),
    ("--extraction", "pca", "--rotation", "none"),
    ("--retention", "fixed:1"),
    ("--retention", "fixed:3"),
    ("--retention", "fixed:3", "--gamma", "0.5"),
    ("--policy", "pairwise"),
    ("--policy", "pairwise", "--rotation", "varimax", "--retention", "fixed:2"),
)

# inputs every subcommand must refuse with one line (or a usage error)
BAD_MODEL_FLAGS = (
    ("--retention", "bogus"),
    ("--retention", "fixed:0"),
    ("--retention", "fixed:9"),
    ("--retention", "fixed:x"),
    ("--retention", "fixed:2_0"),
    ("--retention", "fixed:+2"),
    ("--gamma", "nan"),
    ("--gamma", "inf"),
    ("--gamma=-inf",),
    ("--gamma", "nan", "--rotation", "varimax"),
)


def _invocations() -> list[tuple[str, ...]]:
    runs: list[tuple[str, ...]] = []
    for command in ("validate", "efa"):
        for flags in MODEL_FLAGS:
            for fmt in ("text", "json"):
                runs.append((command, "-i", DEMO, *flags, "-f", fmt))
        for flags in BAD_MODEL_FLAGS:
            for fmt in ("text", "json"):
                runs.append((command, "-i", DEMO, *flags, "-f", fmt))
        for fmt in ("text", "json"):
            runs.append((command, "-i", ONE, "-f", fmt))
    for flags in (
        (),
        ("--force",),
        ("--force", "--rotation", "varimax"),
        ("--force", "--extraction", "pca"),
        ("--force", "--msa-threshold", "0", "--retention", "fixed:1"),
    ):
        for fmt in ("text", "json"):
            runs.append(("validate", "-i", NOISE, *flags, "-f", fmt))
    for fmt in ("text", "json"):
        runs.append(("efa", "-i", NOISE, "-f", fmt))
        runs.append(("alpha", "-i", DEMO, "--scales", SCALES, "-f", fmt))
        runs.append(("alpha", "-i", DEMO, "--items", "A,B", "--name", "pair",
                     "-f", fmt))
        runs.append(("retest", "--t1", DEMO, "--t2", DEMO, "--scales", SCALES,
                     "-f", fmt))
        runs.append(("retest", "--t1", DEMO, "--t2", NOISE, "--items", "A,B,C",
                     "-f", fmt))
        for path in (DEMO, NOISE, ONE):
            runs.append(("kmo", "-i", path, "-f", fmt))
            runs.append(("bartlett", "-i", path, "-f", fmt))
            runs.append(("describe", "-i", path, "-f", fmt))
        runs.append(("describe", "-i", GAP, "-f", fmt))
        runs.append(("kmo", "-i", NOISE, "--policy", "pairwise", "-f", fmt))
        runs.append(("bartlett", "-i", DEMO, "--alpha", "5", "-f", fmt))
    # every policy fails on the gap file, at the policy or correlation stage
    for command in ("validate", "efa", "kmo", "bartlett"):
        for policy in POLICIES:
            runs.append((command, "-i", GAP, "--policy", policy))
    runs += [
        ("alpha", "-i", DEMO, "--items", "A,Z"),
        ("alpha", "-i", ONE, "--items", "A"),
        ("describe", "-i", "data/no_such_file.csv"),
        # a header byte that is not UTF-8, and -o targets that cannot be written
        ("describe", "-i", LATIN1),
        ("validate", "-i", DEMO, "-o", "data"),
        ("validate", "-i", DEMO, "-o", "data/no_such_dir/x.json"),
        ("validate", "-i", DEMO, "--likert", "1:3"),
        ("validate", "-i", DEMO, "--likert", "17"),
        ("validate", "-i", DEMO, "--likert", "0:100000000000000000000"),
        ("validate", "-i", DEMO, "--alpha", "2"),
        ("bartlett", "-i", DEMO, "--alpha", "2"),
        ("validate", "-i", DEMO, "--cutoff", "nan"),
        ("validate", "-i", DEMO, "--msa-threshold", "1"),
        # a threshold no item set reaches: pruning stops at the minimum item count
        ("validate", "-i", DEMO, "--msa-threshold", "0.99", "-f", "json"),
        ("validate", "-i", DEMO, "--msa-threshold", "0.99", "--policy", "pairwise",
         "--rotation", "varimax", "-f", "json"),
        ("efa", "-i", DEMO, "--rotation", "promax"),
        ("simulate", "--spec", "data/demo_model.txt", "-n", "50", "-s", "3"),
        ("simulate", "--spec", "data/noise_model.txt", "-n", "20"),
        # large and odd-length streams that cross the simulator's block boundaries
        ("simulate", "--spec", "data/noise_model.txt", "-n", "4001", "-s", "9"),
        ("simulate", "--spec", "data/demo_model.txt", "-n", "5000", "-s", "7"),
        # correlated factors and a cross-loading: a full Cholesky factor of phi
        ("simulate", "--spec", "data/oblique_model.txt"),
        ("frobnicate",),
        (),
    ]
    # twenty items and four factors: PAF on its subspace path
    for command in ("validate", "efa"):
        runs.append((command, "-i", WIDE, "--retention", "fixed:4", "-f", "json"))
    # Kaiser keeps four factors in validate and six in efa, whose
    # over-extracted run gives the subspace path up; validate --retention
    # fixed:6 (18 items after pruning) takes the full path, with Newton
    # passes, and its text report shows the unassigned items
    for retention in ("kaiser", "fixed:6"):
        for command in ("validate", "efa"):
            runs.append((command, "-i", WIDE, "--retention", retention, "-f", "json"))
    runs.append(("validate", "-i", WIDE, "--retention", "fixed:6", "-f", "text"))
    # twenty independent items: Bartlett's p at df = 190 is mid-range, where
    # the JSON carries every digit of the chi-square tail
    runs.append(("validate", "-i", WIDE_NOISE, "--force", "--extraction", "pca",
                 "--rotation", "none", "-f", "json"))
    runs.append(("bartlett", "-i", WIDE_NOISE))
    # y = 8 - 2x: the standardized total score has zero variance
    runs.append(("alpha", "-i", PAIR, "--items", "x,y"))
    # item c has r = 0 to a and b, so its MSA would be 0/0
    for command in ("kmo", "validate"):
        runs.append((command, "-i", UNCORRELATED, "-f", "json"))
    # ten items: alpha-if-deleted on remainders of nine
    for fmt in ("text", "json"):
        runs.append(("alpha", "-i", WIDE, "--items", ",".join(f"W{j:02d}" for j in range(1, 11)),
                     "-f", fmt))
    return runs


INVOCATIONS = _invocations()


def run(argv) -> tuple[int | str, bytes, str]:
    """One in-process CLI run: (exit code or "raise", stdout bytes, stderr)."""
    from psychoval.cli import main

    out = io.BytesIO()
    err = io.StringIO()
    stdout = io.TextIOWrapper(out, encoding="utf-8")
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
        try:
            code: int | str = main(list(argv))
        except Exception as exc:  # the digest records what escapes main
            code = "raise"
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        stdout.flush()
    return code, out.getvalue(), err.getvalue()


def digest_line(argv) -> str:
    code, out, err = run(argv)
    lines = err.splitlines()
    last = lines[-1] if lines else "-"
    return f"{code} {hashlib.sha256(out).hexdigest()[:16]} {last} | {' '.join(argv)}"


def _show_warning(message, category, *_args, **_kwargs) -> None:
    # one line without the source path, so digests from two checkouts diff
    print(f"{category.__name__}: {message}", file=sys.stderr)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    os.environ.pop("PSYCHOVAL_SEED", None)
    with warnings.catch_warnings():
        warnings.simplefilter("always")  # every run reports its own warnings
        warnings.showwarning = _show_warning
        for argv in INVOCATIONS:
            print(digest_line(argv))
    return 0


if __name__ == "__main__":
    sys.exit(main())
