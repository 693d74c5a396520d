"""The README's Python examples run as written."""

from __future__ import annotations

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
