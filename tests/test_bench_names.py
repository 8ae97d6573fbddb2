"""The names the benchmark calls still resolve in bellsim.

bench/layers.py imports library functions to time them, and bench/spans.py
wraps the functions listed in its TRACED table. A name that goes from the
library breaks `bench/run.py --trace 1` only when that runs, so this test
reads both files (without importing them) and resolves every such name. A
change that retires one of these names updates bench/ in the same change.
"""

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _tree(name: str) -> ast.Module:
    return ast.parse((BENCH / name).read_text(encoding="utf-8"))


def _imported_names() -> list[tuple[str, str]]:
    """(module, name) for each `from bellsim... import name` in layers.py and spans.py."""
    found = []
    for file in ("layers.py", "spans.py"):
        for node in ast.walk(_tree(file)):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("bellsim"):
                found += [(node.module, alias.name) for alias in node.names]
    return found


def _traced() -> list[tuple[str, str]]:
    """(bellsim.module, attr) for each entry of spans.TRACED."""
    for node in ast.walk(_tree("spans.py")):
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "TRACED":
            return [
                (f"bellsim.{entry.elts[0].value}", entry.elts[1].value)
                for entry in node.value.elts
            ]
    raise AssertionError("bench/spans.py defines no TRACED table")


IMPORTED = _imported_names()
TRACED = _traced()


def test_both_lists_are_found():
    assert len(IMPORTED) >= 10
    assert len(TRACED) >= 10


@pytest.mark.parametrize(
    "module,name", [pytest.param(m, n, id=f"{m}.{n}") for m, n in sorted({*IMPORTED, *TRACED})]
)
def test_benchmark_name_resolves(module, name):
    assert hasattr(importlib.import_module(module), name)
