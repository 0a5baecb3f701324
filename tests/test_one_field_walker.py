"""Only ``poly.monomial_exponents`` steps through the exponent fields of a
packed monomial key.

Anywhere else in ``octoverify``, an augmented ``>>= BITS`` (a loop that
shifts a key one field at a time) or a read of ``_EXP_MASK`` (a field
masked out) fails here; ``_high_bits`` may read the mask, since it builds
one mask over every field and decodes none.  Every other reader of a key
iterates over ``monomial_exponents``.  Only the standard library's ``ast``
is used."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import octoverify

PACKAGE = Path(octoverify.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))
WALKER = "monomial_exponents"
MASK_READERS = {WALKER, "_high_bits"}


def _named(node: ast.AST, name: str) -> bool:
    """Whether node is the name, or an attribute ``x.name``, ``name``."""
    return (isinstance(node, ast.Name) and node.id == name) or (isinstance(node, ast.Attribute) and node.attr == name)


def field_readers(source: str) -> list[str]:
    """'function:line' of each field-by-field step through a packed key in
    ``source`` outside the walker (``<module>`` for top-level code)."""
    found = []

    def visit(node: ast.AST, func: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.RShift) and _named(node.value, "BITS"):
            if func != WALKER:
                found.append(f"{func}:{node.lineno}")
        elif _named(node, "_EXP_MASK") and isinstance(node.ctx, ast.Load) and func not in MASK_READERS:
            found.append(f"{func}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(source), "<module>")
    return found


def test_the_checker_finds_a_field_loop():
    source = (
        "from . import poly\n"
        "_EXP_MASK = 31\n"
        "def degree(k):\n"
        "    d = 0\n"
        "    while k:\n"
        "        d += k & _EXP_MASK\n"
        "        k >>= BITS\n"
        "    return d\n"
        "def top(k, n):\n"
        "    return (k >> (poly.BITS * n)) & poly._EXP_MASK\n"
        "def monomial_exponents(k):\n"
        "    k >>= BITS\n"
        "    return k & _EXP_MASK\n"
        "def _high_bits(n):\n"
        "    return _EXP_MASK - 1\n"
        "def halve(n):\n"
        "    n >>= 1\n"
        "    return n\n"
    )
    assert field_readers(source) == ["degree:6", "degree:7", "top:10"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_walker_reads_packed_fields(path):
    assert field_readers(path.read_text(encoding="utf-8")) == []
