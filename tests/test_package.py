"""The package itself: the core stays stdlib-only."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "trusskit").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_stdlib_or_trusskit(path):
    # numpy and others may be installed where the tests run, so an
    # accidental import would not fail there; read the imports instead
    allowed = sys.stdlib_module_names | {"trusskit"}
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            assert name.split(".")[0] in allowed, f"{path.name}:{node.lineno} imports {name}"
