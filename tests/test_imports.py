"""Every module-level import in the package modules and the tests is used.

An import is used when its bound name is loaded anywhere in the file, in
code or inside a quoted annotation.  ``from __future__`` imports are not
names, and ``__init__.py`` imports to re-export.
"""

import ast
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
FILES = sorted(p for p in (REPO / "src" / "magicforge").glob("*.py") if p.name != "__init__.py") \
    + sorted((REPO / "tests").glob("*.py"))


def module_imports(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of each import at module level, also inside a
    module-level ``if`` or ``try`` (as under ``TYPE_CHECKING``)."""
    bound: dict[str, int] = {}
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, (ast.If, ast.Try)):
            stack += [*node.body, *node.orelse, *getattr(node, "finalbody", [])]
            stack += [stmt for handler in getattr(node, "handlers", []) for stmt in handler.body]
    return bound


def loaded_names(tree: ast.Module) -> set[str]:
    """Names loaded in code, plus those in string annotations."""
    names = {node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    annotations = [node.returns for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    annotations += [node.annotation for node in ast.walk(tree)
                    if isinstance(node, (ast.arg, ast.AnnAssign))]
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= loaded_names(ast.parse(node.value, mode="eval"))
    return names


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = loaded_names(tree)
    return sorted(f"{name} (line {line})" for name, line in module_imports(tree).items()
                  if name not in used)


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_catches_unused_and_reads_quoted_annotations():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import TYPE_CHECKING\n"
        "from math import pi as PI, tau\n"
        "if TYPE_CHECKING:\n"
        "    from fractions import Fraction\n"
        "    from decimal import Decimal\n"
        "def f(x: 'list[Fraction]') -> int:\n"
        "    return tau\n"
    )
    assert unused_imports(source) == ["Decimal (line 7)", "PI (line 4)", "os (line 2)"]
