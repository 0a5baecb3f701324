"""Every name a module of ``octoverify`` imports is used in that module.

A deletion that leaves an import behind fails here.  ``__init__.py`` is
exempt: its imports are the package's re-exports.  Only the standard
library's ``ast`` is used."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import octoverify

PACKAGE = Path(octoverify.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names bound by the imports of ``source`` that no expression of
    it reads, in the order they are imported."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_the_checker_finds_an_unused_import():
    source = "from fractions import Fraction\nimport math\nimport os.path\n\nprint(math.pi, os.sep)\n"
    assert unused_imports(source) == ["Fraction"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
