"""The runtime stays standard-library only: every ``ftsim`` module imports,
and imports nothing but the standard library and ``ftsim`` itself."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

import ftsim

MODULES = ["ftsim"] + sorted(
    f"ftsim.{f.stem}" for f in Path(ftsim.__file__).parent.glob("*.py") if f.stem != "__init__"
)


def imported_roots(path: Path) -> set[str]:
    """Top-level packages named by the absolute imports anywhere in a file."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_only_the_standard_library(name):
    module = importlib.import_module(name)
    outside = imported_roots(Path(module.__file__)) - set(sys.stdlib_module_names) - {"ftsim"}
    assert not outside, f"{name} imports {sorted(outside)}"


def test_every_exported_name_resolves():
    missing = [name for name in ftsim.__all__ if not hasattr(ftsim, name)]
    assert not missing, f"ftsim.__all__ lists {missing}"
