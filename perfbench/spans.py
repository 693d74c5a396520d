"""Spans around psychoval's public functions, recorded from outside the program.

``traced(recorder)`` replaces each function in TARGETS, at every psychoval
module that binds it, with a wrapper that records a span, and puts every
original back on exit. Spans nest through a stack, so each span knows its
parent; every span of one operation carries that operation's id. Self time
is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import hashlib
import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable


def _eigen_input(args, outcome):
    """Digest of the decomposed matrix, to count distinct inputs."""
    return hashlib.blake2b(args[0].values.tobytes(), digest_size=16).digest()


def _paf_iterations(args, outcome):
    return outcome.convergence.get("iterations", 0) if _returned(outcome) else None


def _rotation_iterations(args, outcome):
    if not _returned(outcome) or outcome.rotation == "none":
        return 0
    conv = outcome.convergence
    return conv.get("iterations", conv.get("sweeps", 0))


def _prune_steps(args, outcome):
    # CannotReachThreshold carries the partial trail
    trail = getattr(outcome, "trail", outcome)
    return len(trail.steps) if hasattr(trail, "steps") else None


def _returned(outcome) -> bool:
    return not isinstance(outcome, BaseException)


# (defining module, function, note taken from the call's arguments and outcome)
TARGETS: tuple[tuple[str, str, Callable | None], ...] = (
    ("core_stats", "sym_eigen", _eigen_input),
    ("core_stats", "correlation_matrix", None),
    ("core_stats", "inverse", None),
    ("core_stats", "log_determinant", None),
    ("core_stats", "chi_square_sf", None),
    ("adequacy", "bartlett_sphericity", None),
    ("adequacy", "kmo", None),
    ("adequacy", "msa_prune", _prune_steps),
    ("efa", "extract_paf", _paf_iterations),
    ("efa", "extract_pca", None),
    ("efa", "rotate_varimax", _rotation_iterations),
    ("efa", "rotate_oblimin", _rotation_iterations),
    ("efa", "sort_and_sign", None),
    ("efa", "assign_items", None),
    ("reliability", "cronbach_alpha", None),
    ("ingest", "loads_csv", None),
    ("ingest", "complete_cases", None),
    ("ingest", "to_csv", None),
    ("pipeline", "run_validation", None),
    ("pipeline", "render_report", None),
    ("simulate", "generate", None),
    ("cli", "main", None),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in the same list
    op: object  # identifier shared by the spans of one operation
    note: object = None


class Recorder:
    """In-memory span list; ``op`` tags every span begun while it is set."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: object = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, note: Callable | None) -> Callable:
        spans, stack = self.spans, self._stack

        def traced_call(*args, **kwargs):
            index = len(spans)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else None, self.op)
            spans.append(span)
            stack.append(index)
            outcome = None
            span.start = time.perf_counter()
            try:
                outcome = fn(*args, **kwargs)
                return outcome
            except BaseException as exc:
                outcome = exc
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if note is not None:
                    span.note = note(args, outcome)

        traced_call.__wrapped__ = fn
        traced_call.__name__ = getattr(fn, "__name__", name)
        return traced_call

    def take(self) -> list[Span]:
        """Return the spans recorded so far and start a new list."""
        out = list(self.spans)
        self.spans.clear()
        return out


def _psychoval_modules() -> list:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "psychoval" or name.startswith("psychoval."))
    ]


@contextmanager
def traced(recorder: Recorder):
    """Route every binding of each TARGETS function through ``recorder``."""
    patches: list[tuple[object, str, Callable]] = []
    originals = [
        (f"{mod}.{fn}", getattr(importlib.import_module(f"psychoval.{mod}"), fn), note)
        for mod, fn, note in TARGETS
    ]
    try:
        modules = _psychoval_modules()
        for name, original, note in originals:
            wrapper = recorder.wrap(name, original, note)
            for mod in modules:
                for attr in [a for a, v in vars(mod).items() if v is original]:
                    patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
        yield recorder
    finally:
        for mod, attr, original in reversed(patches):
            setattr(mod, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - child[i] for i, s in enumerate(spans)]


@dataclass
class OpSummary:
    """Per-function totals of one operation's spans."""

    calls: dict[str, int]
    self_s: dict[str, float]
    total_s: dict[str, float]
    notes: dict[str, list]

    def count(self, name: str) -> int:
        return self.calls.get(name, 0)

    def note_sum(self, name: str) -> int:
        return sum(v for v in self.notes.get(name, ()) if v is not None)


def summarize(spans: list[Span]) -> OpSummary:
    out = OpSummary({}, {}, {}, {})
    for s, own in zip(spans, self_times(spans)):
        out.calls[s.name] = out.calls.get(s.name, 0) + 1
        out.self_s[s.name] = out.self_s.get(s.name, 0.0) + own
        out.total_s[s.name] = out.total_s.get(s.name, 0.0) + (s.end - s.start)
        out.notes.setdefault(s.name, []).append(s.note)
    return out


def split_by_op(spans: list[Span]) -> dict[object, list[Span]]:
    """Group spans by operation id; parent indices are rebased per group."""
    groups: dict[object, list[Span]] = {}
    index_in_group: list[int] = []
    for s in spans:
        group = groups.setdefault(s.op, [])
        parent = None if s.parent is None else index_in_group[s.parent]
        index_in_group.append(len(group))
        group.append(Span(s.name, s.start, s.end, parent, s.op, s.note))
    return groups


def identity_failures(op: OpSummary) -> list[str]:
    """Call-count identities of the validate pipeline under PAF extraction.

    sym_eigen runs once each for Bartlett, KMO, the first MSA pass,
    retention, the PAF spectrum and the PAF initial inverse (6), once per
    PAF iteration, and twice per prune step. correlation_matrix runs twice
    without pruning, and 3 + 2 per step with it.
    """
    steps = op.note_sum("adequacy.msa_prune")
    paf = op.note_sum("efa.extract_paf")
    eigen = op.count("core_stats.sym_eigen")
    corr = op.count("core_stats.correlation_matrix")
    out = []
    if eigen != 6 + 2 * steps + paf:
        out.append(
            f"sym_eigen calls {eigen} != 6 + 2*{steps} prune steps + {paf} PAF iterations"
        )
    expected = 3 + 2 * steps if steps else 2
    if corr != expected:
        out.append(f"correlation_matrix calls {corr} != {expected} ({steps} prune steps)")
    return out


def layer_metrics(ops: list[OpSummary]) -> dict[str, float]:
    """Per-operation means of the per-layer metrics taken inside operations."""
    n = len(ops)

    def self_s(*names: str) -> float:
        return sum(op.self_s.get(name, 0.0) for op in ops for name in names) / n

    def calls(name: str) -> float:
        return sum(op.count(name) for op in ops) / n

    def notes(*names: str) -> float:
        return sum(op.note_sum(name) for op in ops for name in names) / n

    eigen_calls = sum(op.count("core_stats.sym_eigen") for op in ops)
    distinct = sum(
        len(set(op.notes.get("core_stats.sym_eigen", ()))) for op in ops
    )
    return {
        "core_stats.sym_eigen_s": self_s("core_stats.sym_eigen"),
        "core_stats.sym_eigen_calls": calls("core_stats.sym_eigen"),
        "core_stats.sym_eigen_distinct_ratio": distinct / eigen_calls if eigen_calls else 0.0,
        "core_stats.correlation_matrix_s": self_s("core_stats.correlation_matrix"),
        "core_stats.correlation_matrix_calls": calls("core_stats.correlation_matrix"),
        "core_stats.inverse_calls": calls("core_stats.inverse"),
        "core_stats.log_determinant_calls": calls("core_stats.log_determinant"),
        "core_stats.chi_square_sf_s": self_s("core_stats.chi_square_sf"),
        "adequacy.bartlett_sphericity_s": self_s("adequacy.bartlett_sphericity"),
        "adequacy.kmo_s": self_s("adequacy.kmo"),
        "adequacy.kmo_calls": calls("adequacy.kmo"),
        "adequacy.msa_prune_s": self_s("adequacy.msa_prune"),
        "adequacy.prune_steps": notes("adequacy.msa_prune"),
        "efa.extract_s": self_s("efa.extract_paf", "efa.extract_pca"),
        "efa.paf_iterations": notes("efa.extract_paf"),
        "efa.rotate_s": self_s("efa.rotate_varimax", "efa.rotate_oblimin"),
        "efa.rotation_iterations": notes("efa.rotate_varimax", "efa.rotate_oblimin"),
        "efa.sort_and_sign_calls": calls("efa.sort_and_sign"),
        "efa.assign_items_s": self_s("efa.assign_items"),
        "reliability.cronbach_alpha_s": self_s("reliability.cronbach_alpha"),
        "reliability.cronbach_alpha_calls": calls("reliability.cronbach_alpha"),
        "ingest.loads_csv_s": self_s("ingest.loads_csv"),
        "ingest.complete_cases_s": self_s("ingest.complete_cases"),
        "pipeline.run_validation_s": sum(
            op.total_s.get("pipeline.run_validation", 0.0) for op in ops
        ) / n,
        "pipeline.self_s": self_s("pipeline.run_validation"),
        "pipeline.render_report_s": self_s("pipeline.render_report"),
    }
