"""Every field a class of ``octoverify`` declares is read somewhere in it.

A field is an annotated name in a class body or a method decorated with
``property`` or ``cached_property``; it is read when some module of the
package loads an attribute of that name (``obj.name``).  A field that no
code reads is dead weight and fails here.  Only the standard library's
``ast`` is used."""

from __future__ import annotations

import ast
from pathlib import Path

import octoverify

PACKAGE = Path(octoverify.__file__).resolve().parent
PROPERTY_DECORATORS = {"property", "cached_property"}


def declared_fields(tree: ast.AST) -> list[str]:
    """``Class.field`` for each annotated class field and property of ``tree``."""
    fields = []
    for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
        for node in cls.body:
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                fields.append(f"{cls.name}.{node.target.id}")
            elif isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef):
                names = {d.attr if isinstance(d, ast.Attribute) else getattr(d, "id", None) for d in node.decorator_list}
                if names & PROPERTY_DECORATORS:
                    fields.append(f"{cls.name}.{node.name}")
    return fields


def attribute_reads(tree: ast.AST) -> set[str]:
    """The attribute names ``tree`` loads."""
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def unread_fields(sources: list[str]) -> list[str]:
    """The fields declared in ``sources`` whose name none of them reads."""
    trees = [ast.parse(source) for source in sources]
    read = set().union(*map(attribute_reads, trees))
    return [field for tree in trees for field in declared_fields(tree) if field.rpartition(".")[2] not in read]


def test_the_checker_finds_an_unread_field():
    source = (
        "from dataclasses import dataclass\nfrom functools import cached_property\n\n"
        "@dataclass\nclass A:\n    kept: int\n    dropped: int\n    count = 0\n\n"
        "    @property\n    def shown(self):\n        return self.kept\n\n"
        "    @cached_property\n    def hidden(self):\n        return 1\n\n"
        "    def method(self):\n        return 2\n\n"
        "print(A(1, 2).shown)\nA(1, 2).dropped = 3\n"
    )
    assert unread_fields([source]) == ["A.dropped", "A.hidden"]


def test_every_field_is_read():
    assert unread_fields([p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))]) == []
