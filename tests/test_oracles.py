"""The reference implementations stay independent of the code they check."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def imported_modules(path):
    """Every module a file imports, anywhere in it; relative imports as '.'."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "." * node.level + (node.module or "")


@pytest.mark.parametrize("name", ["tests/oracles.py", "perfbench/reference.py"])
def test_oracles_do_not_import_verisel(name):
    modules = list(imported_modules(ROOT / name))
    assert modules  # the walk found the file's imports
    assert not [m for m in modules
                if m.split(".")[0] == "verisel" or m.startswith(".")]
