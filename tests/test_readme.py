"""The ``python`` examples of README.md run as written.

The blocks run in order in one namespace, as a reader pasting them into one
session would, so a later block may use the names an earlier one defined.
"""
from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCK = re.compile(r"^```python\n(.*?)^```$", re.M | re.S)


def test_readme_python_blocks_run_in_order():
    blocks = BLOCK.findall(README.read_text(encoding="utf-8"))
    assert len(blocks) >= 3
    namespace: dict = {"__name__": "readme"}
    for number, source in enumerate(blocks, start=1):
        exec(compile(source, f"README.md python block {number}", "exec"), namespace)
