"""Only ``poly.split_squares`` splits a quartic F around its squares.

Its ``radial_shift`` of F - S is the one split that the Muenzner proof and
the expansion at a focal frame both read.  Anywhere else in ``octoverify``,
a read of the name ``radial_shift`` (a call, or the function handed on)
fails here, except in ``mirror.verify_ot_equations``, which shifts the
quartic G of the closed second form, a sum of squares that no Clifford
system builds.  Only the standard library's ``ast`` is used."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import octoverify

PACKAGE = Path(octoverify.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))
ALLOWED = {("poly.py", "split_squares"), ("mirror.py", "verify_ot_equations")}


def shift_readers(source: str, module: str) -> list[str]:
    """'function:line' of each read of ``radial_shift`` in ``source`` outside
    the allowed functions (``<module>`` for top-level code)."""
    found = []

    def visit(node: ast.AST, func: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
        if name == "radial_shift" and isinstance(node.ctx, ast.Load) and (module, func) not in ALLOWED:
            found.append(f"{func}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(source), "<module>")
    return found


def test_the_checker_finds_a_second_split():
    source = (
        "from .poly import radial_shift\n"
        "from . import poly\n"
        "def split_squares(f, s):\n"
        "    return radial_shift(f - s)\n"
        "def extract(f, s):\n"
        "    c, e = radial_shift(f - s)\n"
        "    return poly.radial_shift(f)\n"
        "shift = radial_shift\n"
        "def verify_ot_equations(g):\n"
        "    return radial_shift(g)\n"
    )
    assert shift_readers(source, "poly.py") == ["extract:6", "extract:7", "<module>:8", "verify_ot_equations:10"]
    assert shift_readers(source, "mirror.py") == ["split_squares:4", "extract:6", "extract:7", "<module>:8"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_split_shifts_f(path):
    assert shift_readers(path.read_text(encoding="utf-8"), path.name) == []
