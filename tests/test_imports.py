"""The runtime stays standard-library only: every ``ftsim`` module imports,
and imports nothing but the standard library and ``ftsim`` itself."""

import ast
import contextlib
import importlib
import inspect
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


BENCHMARK = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def benchmark_hooks() -> list[tuple[str, object, str]]:
    """(where, owner, attribute) for every ``ftsim`` name the benchmark
    imports, and every attribute it patches with ``Tracer.patch`` or reads
    off an imported ``ftsim`` name (``cli.simulate_detailed``,
    ``self.cli.main``)."""
    tree = ast.parse(BENCHMARK.read_text(), str(BENCHMARK))
    bound: dict[str, object] = {}
    hooks = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "ftsim":
            module = importlib.import_module(node.module)
            for alias in node.names:
                with contextlib.suppress(ModuleNotFoundError):  # a module, as ``cli``
                    importlib.import_module(f"{node.module}.{alias.name}")
                hooks.append((f"line {node.lineno}", module, alias.name))
                bound[alias.asname or alias.name] = getattr(module, alias.name, None)
    for node in ast.walk(tree):
        where = f"line {getattr(node, 'lineno', '?')}"
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "patch"
            and isinstance(node.args[0], ast.Name)
        ):
            hooks.append((where, bound[node.args[0].id], node.args[1].value))
        elif isinstance(node, ast.Attribute):
            owner = node.value
            name = owner.id if isinstance(owner, ast.Name) else getattr(owner, "attr", None)
            if name in bound:
                hooks.append((where, bound[name], node.attr))
    return hooks


def test_benchmark_hooks_resolve():
    hooks = benchmark_hooks()
    assert {attr for _, _, attr in hooks} >= {"matching_op", "estimate_block_times", "main"}
    missing = [(where, attr) for where, owner, attr in hooks if not hasattr(owner, attr)]
    assert not missing, f"perfbench/run.py uses names ftsim lacks: {missing}"


def test_benchmark_calls_the_analysis_with_its_positional_parameters():
    from ftsim.simulate import estimate_block_times

    params = list(inspect.signature(estimate_block_times).parameters)
    assert params[:4] == ["pattern", "failed", "fail_time", "depth"]


def test_a_run_calls_the_kernel_methods_the_benchmark_counts(monkeypatch, tmp_path):
    """The benchmark reads ``kernel.events``, ``kernel.scheduled`` and
    ``kernel.cancelled`` off wrappers on these three methods: a run that
    stopped calling one would read 0 there and still pass its gates."""
    from ftsim import cli
    from ftsim.kernel import EventQueue

    calls = dict.fromkeys(["schedule", "advance", "cancel"], 0)
    for name in calls:
        method = getattr(EventQueue, name)

        def counted(queue, *args, name=name, method=method, **kwargs):
            calls[name] += 1
            return method(queue, *args, **kwargs)

        monkeypatch.setattr(EventQueue, name, counted)
    scenario = BENCHMARK.parent.parent / "scenarios" / "scenario1_long.scn"
    out = ["--report", str(tmp_path / "r.csv"), "--trace", str(tmp_path / "t")]
    assert cli.main(["run", str(scenario), *out]) == 0
    assert all(calls.values()), calls
