"""Every name a package module imports is read in that module, and every
dataclass field is read somewhere.

No linter ships with the test dependencies, so this is the unused-import
check: ``__init__.py`` re-exports by importing and is left out, and so are
``from __future__`` imports.

The field check works by name: a field counts as read when any ``.name``
load of the same name appears in ``src/groupact`` or ``perfbench``.  So it
cannot see a field that is unread on its own class but shares its name with
a read field of another class: a ``person`` field would pass unread beside
the read ``MbbSample.person``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "groupact"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never loaded, in source order."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in read]


def test_unused_imports_finds_only_unread_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from .taxonomy import SINGLE, Taxonomy\n"
        "def f(t: Taxonomy) -> float:\n"
        "    return np.pi\n"
    )
    assert unused_imports(source) == ["line 2: os", "line 4: SINGLE"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _is_dataclass(decorator: ast.expr) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return isinstance(target, ast.Name) and target.id == "dataclass"


def unread_fields(sources: list[str]) -> list[str]:
    """``Class.field`` for each annotated dataclass field with no ``.field`` load in any source."""
    trees = [ast.parse(s) for s in sources]
    read = {n.attr for tree in trees for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    return sorted(
        f"{node.name}.{stmt.target.id}"
        for tree in trees for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and any(map(_is_dataclass, node.decorator_list))
        for stmt in node.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
        and stmt.target.id not in read
    )


def test_unread_fields_finds_only_unread_dataclass_fields():
    source = (
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class A:\n"
        "    x: int\n"
        "    y: int = 0\n"
        "@dataclass\n"
        "class B:\n"
        "    z: int\n"
        "class C:\n"
        "    w: int\n"
        "def f(a: A, b: B) -> int:\n"
        "    b.z = 1\n"
        "    return a.x\n"
    )
    assert unread_fields([source]) == ["A.y", "B.z"]


def test_every_dataclass_field_is_read():
    paths = sorted(SRC.glob("*.py")) + sorted(PERFBENCH.glob("*.py"))
    assert unread_fields([p.read_text(encoding="utf-8") for p in paths]) == []
