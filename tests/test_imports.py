"""Every name a package module imports is used in that module, and every
module-level private name is used somewhere in the package."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qompress"

MODULES = sorted(PACKAGE.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Imported names the source never reads. `from m import X as X` is the
    explicit re-export idiom: X is imported for the module's importers."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.asname != alias.name:
                    imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_finds_an_unused_import():
    assert unused_imports("import os\nfrom math import pi, tau\nprint(os.sep, tau)\n") == [
        "line 2: pi"
    ]
    # a re-export must say so; a plain rename is still an import to use
    assert unused_imports("from math import e as e, pi as p, tau as tau\n") == ["line 1: p"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def private_definitions(source: str) -> dict[str, int]:
    """Module-level names with one leading underscore, with their lines."""
    defined = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined[name] = node.lineno
    return defined


def references(source: str) -> set[str]:
    """Every name read, attribute taken or name imported in the source."""
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    return used


def unused_private_names(sources: dict[str, str]) -> list[str]:
    used = set().union(*(references(text) for text in sources.values()))
    return [
        f"{module} line {line}: {name}"
        for module, text in sources.items()
        for name, line in private_definitions(text).items()
        if name not in used
    ]


def test_finds_an_unused_private_name():
    sources = {
        "a.py": "_TOL = 1e-9\n_kept = 1\ndef _split(x):\n    return x\n_split(_kept)\n",
        "b.py": "from a import _kept\nprint(_kept)\n",
    }
    assert unused_private_names(sources) == ["a.py line 1: _TOL"]


def test_no_unused_private_names():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert unused_private_names(sources) == []


ROOT = PACKAGE.parent.parent
CALLERS = [p for d in ("src", "tests", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]


def defaulted_parameters(source: str) -> list[tuple[str, str, int | None]]:
    """(function, parameter, position) for every parameter with a default
    of every function and method. The position counts from the first
    argument a caller writes, so past self/cls; a keyword-only parameter
    has none."""
    found = []

    def visit(node: ast.AST, in_class: bool):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, True)
            elif isinstance(child, ast.FunctionDef):
                args = child.args
                positional = args.posonlyargs + args.args
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in child.decorator_list)
                bound = int(in_class and not static and bool(positional))
                first = len(positional) - len(args.defaults)
                for i, arg in enumerate(positional[first:], first):
                    found.append((child.name, arg.arg, i - bound))
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        found.append((child.name, arg.arg, None))
                visit(child, False)

    visit(ast.parse(source), False)
    return found


def passed_arguments(sources: list[str]) -> set[tuple[str, str | int]]:
    """(callee, keyword or position) for every argument of every call, by
    the callee's bare name; a call that unpacks *args or **kwargs counts as
    passing everything."""
    passed: set[tuple[str, str | int]] = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name is None:
                continue
            if any(isinstance(a, ast.Starred) for a in node.args) or any(
                k.arg is None for k in node.keywords
            ):
                passed.add((name, "*"))
            passed.update((name, i) for i in range(len(node.args)))
            passed.update((name, k.arg) for k in node.keywords if k.arg is not None)
    return passed


def never_passed_defaults(package: dict[str, str], callers: list[str]) -> list[str]:
    passed = passed_arguments(callers)
    return [
        f"{module}: {func}({param})"
        for module, text in package.items()
        for func, param, position in defaulted_parameters(text)
        if not {(func, param), (func, position), (func, "*")} & passed
    ]


def test_finds_a_default_no_caller_passes():
    package = {
        "a.py": (
            "def f(x, y=1, *, z=2):\n    return x\n"
            "class C:\n"
            "    def m(self, a=0, b=0):\n        return a\n"
            "    @classmethod\n    def make(cls, k=None):\n        return cls()\n"
            "    @staticmethod\n    def s(q=0):\n        return q\n"
        )
    }
    callers = ["f(1, 2)\nC().m(5)\nC.make()\nC.s(z=3)\nf(0, z=4)\n"]
    assert never_passed_defaults(package, callers) == [
        "a.py: m(b)", "a.py: make(k)", "a.py: s(q)"
    ]


def test_every_default_is_passed_somewhere():
    """A default no caller in the package, its tests or its benchmark ever
    overrides is a constant in disguise; name it instead."""
    package = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    callers = [p.read_text(encoding="utf-8") for p in CALLERS]
    assert never_passed_defaults(package, callers) == []
