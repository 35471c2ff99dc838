"""The ``python`` examples of README.md run as written.

The blocks run in order in one namespace, as a reader pasting them into one
session would, so a later block may use the names an earlier one defined.
"""
from __future__ import annotations

import re
from pathlib import Path

from jetstress.multiindex import _BUDGETS

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCK = re.compile(r"^```python\n(.*?)^```$", re.M | re.S)


def test_readme_python_blocks_run_in_order():
    blocks = BLOCK.findall(README.read_text(encoding="utf-8"))
    assert len(blocks) >= 3
    namespace: dict = {"__name__": "readme"}
    for number, source in enumerate(blocks, start=1):
        exec(compile(source, f"README.md python block {number}", "exec"), namespace)


def test_readme_states_every_budget_of_the_table():
    # Each row reads "<limit with thousands commas> <unit>" in README's budget section, and each
    # quoted "exceeds its budget of N U" names a row; the exponent's error line names no unit.
    text = README.read_text(encoding="utf-8")
    section = text.split("Every request whose size", 1)[1].split("An exact result", 1)[0]
    section = " ".join(section.split())
    for unit, limit in _BUDGETS.items():
        assert f"{limit:,} {unit}" in section, unit
    quoted = re.findall(r"exceeds its budget of (\d+)((?: [a-z]+)*)", text)
    assert len(quoted) >= 2
    for limit, unit in quoted:
        assert _BUDGETS[unit.strip() or "in exponent"] == int(limit), (limit, unit)
