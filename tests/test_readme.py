"""The README's Python examples run as written, and its constants table and warning kinds are the code's."""

from __future__ import annotations

import importlib
import itertools
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLOCK = re.compile(r"^```python\n(.*?)^```", re.DOTALL | re.MULTILINE)


def test_python_blocks_run_in_order(monkeypatch, capsys):
    blocks = BLOCK.findall((ROOT / "README.md").read_text(encoding="utf-8"))
    assert len(blocks) >= 2
    monkeypatch.chdir(ROOT)  # the examples read data/ by relative path
    namespace: dict = {}
    for k, code in enumerate(blocks):
        exec(compile(code, f"README.md python block {k + 1}", "exec"), namespace)
    assert "msa" in namespace and "solution" in namespace


def test_constants_table_matches_the_modules():
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index("| setting | value | on a breach |") + 2  # past the rule
    rows = list(itertools.takewhile(lambda line: line.startswith("|"), lines[start:]))
    assert len(rows) >= 10
    for row in rows:
        match = re.match(r"\| `(\w+)\.([A-Z_]+)` \| ([^|]+) \|", row)
        assert match, row
        module, name, text = match.group(1), match.group(2), match.group(3).strip()
        base, caret, power = text.partition("^")
        value = int(base) ** int(power) if caret else float(text)
        assert getattr(importlib.import_module(f"psychoval.{module}"), name) == value, row


def test_warning_kinds_match_the_pipeline():
    row = next(line for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
               if line.startswith("| `warnings` |"))
    source = (ROOT / "src" / "psychoval" / "pipeline.py").read_text(encoding="utf-8")
    # the Kind of each "Kind: detail" string run_validation appends, in source order
    kinds = re.findall(r'warnings\.append\(\s*f?"(\w+): ', source)
    assert len(kinds) == source.count("warnings.append(")
    assert re.findall(r"`(\w+)`", row.partition(" | ")[2]) == kinds
