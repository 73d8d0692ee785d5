"""Source-level guards: the library computes in exact arithmetic only, it
and its tests import nothing they do not use, the library defines nothing
that only its unit tests read, and no library module reaches into
another's private names."""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / "cecalc").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
BENCHMARK = sorted((ROOT / "perfbench").glob("*.py"))
# Where a library name may be read: the library, its tests and the benchmark.
READERS = SOURCES + TESTS + BENCHMARK
# Where a library name must be read to stay in the library: the library, the
# acceptance criteria and the benchmark, but no unit test.
SURFACE_READERS = SOURCES + [ROOT / "tests" / "test_acceptance.py"] + BENCHMARK


def inexact_nodes(tree):
    """Float or complex literals, and calls to float() or complex()."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            yield node
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("float", "complex")
        ):
            yield node


MODULES = {
    "__init__.py",
    "__main__.py",
    "bundles.py",
    "cli.py",
    "cli_hurwitz.py",
    "cli_plmin.py",
    "cli_splitting.py",
    "gring.py",
    "hurwitz.py",
    "plmin.py",
    "splitting.py",
}


def test_sources_are_found():
    assert MODULES <= {p.name for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_float_in_the_library(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [f"{path.name}:{node.lineno}" for node in inexact_nodes(tree)]
    assert not found, f"inexact arithmetic at {', '.join(found)}"


def test_the_guard_sees_floats():
    code = "x = 1.5\ny = float(2)\nz = 3\nw = 2j\n"
    assert [node.lineno for node in inexact_nodes(ast.parse(code))] == [1, 2, 4]


def unused_imports(tree):
    """(line, name) for each name an import binds (``__future__`` aside) that
    the module never reads."""
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    yield node.lineno, name


@pytest.mark.parametrize("path", SOURCES + TESTS, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [f"{path.name}:{line} {name}" for line, name in unused_imports(tree)]
    assert not found, f"unused imports: {', '.join(found)}"


def test_the_guard_sees_unused_imports():
    assert list(unused_imports(ast.parse("import os\nx = 1\n"))) == [(1, "os")]
    code = "from __future__ import annotations\nimport os.path\nfrom a import b as c\nc(os)\n"
    assert list(unused_imports(ast.parse(code))) == []


def reads(tree):
    """Every name the tree reads: loaded names, loaded attributes and string
    constants (the benchmark tracer patches functions by string)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def dead_names(tree, readers):
    """(line, name) for each def and class in ``tree`` (dunders aside) that no
    tree in ``readers`` reads outside the definition itself."""
    total = Counter()
    for reader in readers:
        total.update(reads(reader))
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if total[name] == Counter(reads(node))[name]:
                yield node.lineno, name


def dead_library_names(paths):
    """``module:line name`` for each library def and class that no file in
    ``paths`` (the library among them) reads."""
    trees = [ast.parse(p.read_text(), filename=str(p)) for p in paths]
    return [
        f"{path.name}:{line} {name}"
        for path, tree in zip(paths, trees)
        if path in SOURCES
        for line, name in dead_names(tree, trees)
    ]


def test_every_definition_is_read():
    found = dead_library_names(READERS)
    assert not found, f"defined but never read: {', '.join(found)}"


def test_no_definition_is_read_only_by_unit_tests():
    found = dead_library_names(SURFACE_READERS)
    assert not found, f"read only by unit tests: {', '.join(found)}"


def test_the_guard_sees_dead_names():
    tree = ast.parse("def unused(): pass\n")
    assert list(dead_names(tree, [tree])) == [(1, "unused")]
    code = "def loop(): loop()\nclass Used: pass\ndef patched(): pass\nUsed()\nx = 'patched'\n"
    tree = ast.parse(code)
    assert list(dead_names(tree, [tree])) == [(1, "loop")]


def private_imports(tree):
    """(line, name) for each private (single-underscore) name the module
    takes from another cecalc module: imported from it, or read as an
    attribute of a cecalc module it imports."""
    def private(name):
        return name.startswith("_") and not name.endswith("__")

    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == "cecalc"
        ):
            for alias in node.names:
                if private(alias.name):
                    found.append((node.lineno, alias.name))
                elif node.module in (None, "cecalc"):
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and private(node.attr)
        ):
            found.append((node.lineno, node.attr))
    return sorted(found)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_imports_another_modules_private_names(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [f"{path.name}:{line} {name}" for line, name in private_imports(tree)]
    assert not found, f"private names taken from another module: {', '.join(found)}"


def test_the_guard_sees_private_imports():
    code = (
        "from .gring import GradedPoly, _trusted\n"
        "from cecalc.plmin import _extend as ext\n"
        "from . import hurwitz, __version__\n"
        "hurwitz._bundles(3)\n"
        "hurwitz.kappa\n"
        "from os import _exit\n"
        "import random\n"
        "random._inst\n"
    )
    assert private_imports(ast.parse(code)) == [(1, "_trusted"), (2, "_extend"), (4, "_bundles")]


def lower_bound_texts(tree):
    """Lines of the string constants, f-string pieces among them, that
    spell out a lower bound ("must be >="), as ``cecalc.integer`` does."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and "must be >=" in node.value
    ]


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_every_lower_bound_is_checked_by_integer(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [f"{path.name}:{line}" for line in lower_bound_texts(tree)]
    assert not found, f"lower bounds checked by hand, not by integer(): {', '.join(found)}"


def test_the_guard_sees_lower_bounds():
    code = 'def f(g):\n    if g < 2:\n        raise ValueError(f"genus must be >= 2, got {g}")\n'
    assert lower_bound_texts(ast.parse(code)) == [3]
    root = ROOT / "src" / "cecalc" / "__init__.py"
    assert lower_bound_texts(ast.parse(root.read_text()))
