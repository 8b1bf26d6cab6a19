"""The package itself: the core stays stdlib-only and draws nothing at random."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "trusskit").glob("*.py"))


def absolute_imports(path):
    """(line, top-level module) for each absolute import in the file."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        yield from ((node.lineno, name.split(".")[0]) for name in names)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_stdlib_or_trusskit(path):
    # numpy and others may be installed where the tests run, so an
    # accidental import would not fail there; read the imports instead
    allowed = sys.stdlib_module_names | {"trusskit"}
    for line, name in absolute_imports(path):
        assert name in allowed, f"{path.name}:{line} imports {name}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_imports_random(path):
    # every verdict is exact, so none may depend on a draw
    for line, name in absolute_imports(path):
        assert name != "random", f"{path.name}:{line} imports random"
