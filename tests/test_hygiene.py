"""Source hygiene that no linter checks here: every import a module makes is used
and sits in the module body, and every module-level private name is referenced
somewhere in the package."""

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


def nested_imports(tree: ast.Module) -> list[int]:
    """Line of each import that is not a statement of the module body."""
    top = {id(stmt) for stmt in tree.body}
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top]


@pytest.mark.parametrize("path", sorted(Path(ts.__file__).resolve().parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_imports_sit_in_the_module_body(path):
    lines = nested_imports(ast.parse(path.read_text(encoding="utf-8")))
    assert not lines, f"{path.name} imports inside a function or block at lines {lines}"


def test_nested_import_is_caught():
    source = "import math\n\ndef f():\n    from os import path\n    return path\n"
    assert nested_imports(ast.parse(source)) == [4]


def _private_definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """Module-level private name -> the statement that binds it (def, class or assignment)."""
    out: dict[str, ast.stmt] = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            names = []
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                out[name] = stmt
    return out


def _references(node: ast.AST) -> set[str]:
    """Names node reads: loaded names, attribute names and imported names."""
    refs = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            refs.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            refs.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            refs |= {alias.name for alias in sub.names}
    return refs


def unreferenced_private_names(package: Path) -> list[str]:
    """`module.name` for each module-level private name of the package that no
    statement reads except the one defining it."""
    modules = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(package.glob("*.py"))}
    reads = [(stmt, _references(stmt)) for tree in modules.values() for stmt in tree.body]
    unused = []
    for mod_name, tree in modules.items():
        for name, own in _private_definitions(tree).items():
            if not any(name in refs for stmt, refs in reads if stmt is not own):
                unused.append(f"{mod_name}.{name}")
    return unused


def test_every_private_name_is_referenced():
    package = Path(ts.__file__).resolve().parent
    assert _private_definitions(ast.parse((package / "multiplier.py").read_text(encoding="utf-8")))
    unused = unreferenced_private_names(package)
    assert not unused, f"private names nothing in the package reads: {unused}"


def test_unreferenced_private_name_is_caught(tmp_path):
    (tmp_path / "a.py").write_text(
        "_LIMIT = 3\n\ndef _used():\n    return _LIMIT\n\n"
        "def _orphan(x):\n    return _orphan(x - 1) if x else _used()\n")
    (tmp_path / "b.py").write_text("from .a import _used\n\nVALUE = _used()\n")
    assert unreferenced_private_names(tmp_path) == ["a._orphan"]


# What builds a tree, its shift or its basis.  cli._battery builds every tree
# the suites run on, so no `_suite_*` function calls one of these.
TREE_BUILDERS = {"ShiftOperator", "separated_kernel_basis", "generate_example",
                 "balanced_double_ray", "build_tree", "load_tree_spec", "_example_tree"}


def suite_tree_builds(tree: ast.Module) -> list[str]:
    """`suite: builder` for each call a module-level `_suite_*` function makes
    to one of TREE_BUILDERS, by plain or attribute name."""
    out = []
    for stmt in tree.body:
        if not (isinstance(stmt, ast.FunctionDef) and stmt.name.startswith("_suite_")):
            continue
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in TREE_BUILDERS:
                    out.append(f"{stmt.name}: {name}")
    return out


def test_suites_build_no_trees():
    path = Path(ts.__file__).resolve().parent / "cli.py"
    builds = suite_tree_builds(ast.parse(path.read_text(encoding="utf-8")))
    assert not builds, f"suites that build their own trees instead of reading the battery: {builds}"


def test_suite_tree_build_is_caught():
    source = ("def _battery(config):\n    return tr.build_tree(config)\n\n"
              "def _suite_a(config, trees, records):\n"
              "    S = sh.ShiftOperator(*tr.balanced_double_ray(3, [1.0] * 3))\n"
              "    return sh.separated_kernel_basis(S)\n\n"
              "def _suite_b(config, trees, records):\n    return _example_tree('T2', 3, 0.5)\n")
    assert sorted(suite_tree_builds(ast.parse(source))) == [
        "_suite_a: ShiftOperator", "_suite_a: balanced_double_ray",
        "_suite_a: separated_kernel_basis", "_suite_b: _example_tree"]
