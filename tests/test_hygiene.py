"""Source hygiene that no linter checks here: every import a module makes is used."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import treeshift as ts

MODULES = sorted(p for p in Path(ts.__file__).resolve().parent.glob("*.py")
                 if p.name != "__init__.py")


def _imported_names(tree: ast.Module, lines: list[str]) -> dict[str, int]:
    """Name bound by each import -> its line; imports marked `noqa` are left out."""
    out: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("noqa" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            out[alias.asname or alias.name.split(".")[0]] = node.lineno
    return out


def _used_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, string annotations included."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        notes = [getattr(node, "annotation", None), getattr(node, "returns", None)]
        for note in notes:
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                used |= _used_names(ast.parse(note.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    unused = {name: line for name, line in _imported_names(tree, source.splitlines()).items()
              if name not in _used_names(tree)}
    assert not unused, f"{path.name} imports names it never uses: {unused}"
