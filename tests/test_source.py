"""Source-level guards: the library computes in exact arithmetic only, and
imports nothing it does not use."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "cecalc").glob("*.py"))


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


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [f"{path.name}:{line} {name}" for line, name in unused_imports(tree)]
    assert not found, f"unused imports: {', '.join(found)}"


def test_the_guard_sees_unused_imports():
    assert list(unused_imports(ast.parse("import os\nx = 1\n"))) == [(1, "os")]
    code = "from __future__ import annotations\nimport os.path\nfrom a import b as c\nc(os)\n"
    assert list(unused_imports(ast.parse(code))) == []
