"""Every name a package module imports is read in that module, every
dataclass field is read somewhere, and every function and method is
referenced somewhere outside its own definition.

No linter ships with the test dependencies, so this is the unused-import
check: ``__init__.py`` re-exports by importing and is left out, and so are
``from __future__`` imports.

The field check works by name, narrowed by annotations: a ``b.name`` load
counts for the class ``B`` alone where the enclosing function annotates
``b`` as ``B`` (or ``B | None``), and for every class with a ``name`` field
otherwise.  So it still cannot see a field that is unread on its own class
but shares its name with a field read through an unannotated variable.

The function check is by name too: a function or method counts as used
when its name is loaded, read as an attribute or imported anywhere in
``src/groupact`` or ``perfbench`` outside its own body.  Dunder methods are
left out, since Python calls them.

The default check keeps each run setting's default in one place: over
function parameters, dataclass fields and argparse ``default=``, a setting
may have a default in at most one of them.  A ``None`` default means "not
given" and is not counted.
"""

import ast
from collections import Counter
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


def _owner(annotation: ast.expr | None) -> str | None:
    """The one class an annotation names, ``None`` and quotes aside; else None."""
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        annotation = ast.parse(annotation.value, mode="eval").body
    names = {n.id for n in ast.walk(annotation) if isinstance(n, ast.Name)} if annotation else set()
    return names.pop() if len(names) == 1 else None


def _field_reads(node: ast.AST, owners: dict[str, str | None], reads: set) -> None:
    """Add ``(class or None, attr)`` for every attribute load under ``node``,
    with the class an enclosing function's annotation gives the variable."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
        owners = {**owners, **{a.arg: _owner(a.annotation) for a in params if a is not None}}
        owners.update((n.target.id, _owner(n.annotation)) for n in ast.walk(node)
                      if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name))
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        on = owners.get(node.value.id) if isinstance(node.value, ast.Name) else None
        reads.add((on, node.attr))
    for child in ast.iter_child_nodes(node):
        _field_reads(child, owners, reads)


def unread_fields(sources: list[str]) -> list[str]:
    """``Class.field`` for each annotated dataclass field with no ``.field`` load,
    in any source, on a variable that is unannotated or annotated with that class."""
    trees = [ast.parse(s) for s in sources]
    reads: set = set()
    for tree in trees:
        _field_reads(tree, {}, reads)
    return sorted(
        f"{node.name}.{stmt.target.id}"
        for tree in trees for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and any(map(_is_dataclass, node.decorator_list))
        for stmt in node.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
        and not {(None, stmt.target.id), (node.name, stmt.target.id)} & reads
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


def test_unread_fields_follows_annotated_owners():
    source = (
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class A:\n"
        "    person: int\n"
        "    frame: int\n"
        "    size: int\n"
        "@dataclass\n"
        "class B:\n"
        "    person: int\n"
        "    frame: int\n"
        "def f(b: B, c: 'A | None', d) -> int:\n"
        "    e: B = d\n"
        "    size = lambda b: b.size\n"
        "    return b.person + c.frame + e.frame + size(d)\n"
    )
    assert unread_fields([source]) == ["A.person"]


def _referenced_name(node: ast.AST) -> str | None:
    """The name that a loaded name or attribute, or an import, refers to; else None."""
    if isinstance(node, ast.alias):
        return node.name
    if isinstance(getattr(node, "ctx", None), ast.Load):
        return getattr(node, "id", None) or getattr(node, "attr", None)
    return None


def unreferenced_functions(package: dict[str, str], users: list[str]) -> list[str]:
    """``module.function`` or ``module.Class.method`` for each function of the
    ``package`` sources (module name to source) whose name no package or
    ``users`` source loads, reads as an attribute or imports outside its body."""
    trees = {name: ast.parse(s) for name, s in package.items()}

    def refs(tree: ast.AST) -> Counter:
        return Counter(filter(None, map(_referenced_name, ast.walk(tree))))

    total = sum((refs(t) for t in [*trees.values(), *map(ast.parse, users)]), Counter())
    out = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            name = getattr(child, "name", None)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                dunder = name.startswith("__") and name.endswith("__")
                if not dunder and total[name] == refs(child)[name]:
                    out.append(f"{prefix}.{name}")
            visit(child, f"{prefix}.{name}" if isinstance(child, ast.ClassDef) else prefix)

    for module, tree in trees.items():
        visit(tree, module)
    return sorted(out)


def test_unreferenced_functions_finds_only_unused_definitions():
    package = {
        "m": (
            "from .n import g\n"
            "def f(x):\n"
            "    return f(x - 1) if x else 0\n"
            "def h():\n"
            "    return g()\n"
            "class K:\n"
            "    def __init__(self):\n"
            "        self.spare = None\n"
            "    def run(self):\n"
            "        return self.step()\n"
            "    def step(self):\n"
            "        return 0\n"
            "    def spare(self):\n"
            "        return 0\n"
        ),
        "n": "def g():\n    return 0\n",
    }
    assert unreferenced_functions(package, ["from m import K, h\nK().run()\n"]) == ["m.K.spare", "m.f"]


def test_every_function_is_referenced():
    package = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    users = [p.read_text(encoding="utf-8") for p in sorted(PERFBENCH.glob("*.py"))]
    assert unreferenced_functions(package, users) == []


SETTINGS = ("window", "dt", "tc", "to", "tr", "gr", "variant", "seed", "max_iters", "max_segments")


def defaults(sources: dict[str, str]) -> dict[str, list[str]]:
    """``module:line`` of each default that is not None, by parameter, field or
    option name (``--max-iters`` as ``max_iters``), in source order."""
    out: dict[str, list[str]] = {}

    def add(name: str, module: str, value: ast.expr) -> None:
        if not (isinstance(value, ast.Constant) and value.value is None):
            out.setdefault(name, []).append(f"{module}:{value.lineno}")

    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                positional = [*args.posonlyargs, *args.args]
                pairs = [*zip(positional[len(positional) - len(args.defaults):], args.defaults),
                         *zip(args.kwonlyargs, args.kw_defaults)]
                for arg, value in pairs:
                    if value is not None:  # a keyword-only parameter without a default
                        add(arg.arg, module, value)
            elif isinstance(node, ast.ClassDef) and any(map(_is_dataclass, node.decorator_list)):
                for stmt in node.body:
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name) and stmt.value:
                        add(stmt.target.id, module, stmt.value)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "add_argument"):
                flags = [a.value for a in node.args if isinstance(a, ast.Constant)]
                for kw in node.keywords:
                    if kw.arg == "default" and flags:
                        add(flags[-1].lstrip("-").replace("-", "_"), module, kw.value)
    return out


def test_defaults_finds_every_place_of_a_default():
    source = (
        "from dataclasses import dataclass, field\n"
        "@dataclass(kw_only=True)\n"
        "class A:\n"
        "    window: int = 25\n"
        "    dt: int\n"
        "    seed: int | None = None\n"
        "    extra: list = field(default_factory=list)\n"
        "class B:\n"
        "    window: int = 8\n"
        "def f(a, window=12, /, *, dt, max_iters=40, tc=None):\n"
        "    return lambda gr='sv': gr\n"
        "def build(parser):\n"
        "    parser.add_argument('-m', '--max-iters', type=int, default=40)\n"
        "    parser.add_argument('--max-segments', type=int)\n"
        "    parser.add_argument('--dt', default=None)\n"
    )
    assert defaults({"m": source}) == {
        "window": ["m:4", "m:10"], "extra": ["m:7"], "max_iters": ["m:10", "m:13"], "gr": ["m:11"],
    }


def test_each_run_setting_has_at_most_one_default():
    found = defaults({p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))})
    assert {s: found[s] for s in SETTINGS if len(found.get(s, ())) > 1} == {}
