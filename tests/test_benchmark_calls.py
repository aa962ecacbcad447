"""The benchmark's uses of the program still fit the program's API.

``benchmarks/*.py`` import from ``schema_linker`` and call what they
import. Each imported name must exist, each attribute read off an imported
module must exist, and each call of either must bind to the callee's
current signature. A renamed or dropped function, parameter or default
then fails here in well under a second, not only in the benchmark's own
smoke run. The files are parsed, never imported or run.
"""

import ast
import importlib
import inspect
from pathlib import Path
from types import ModuleType

import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
MISSING = object()


def api_problems(source: str) -> list[str]:
    """Every program use in ``source`` that the current API does not support."""
    tree = ast.parse(source)
    bound: dict[str, object] = {}  # local name -> the program object it names
    problems = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("schema_linker"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                found = getattr(module, alias.name, MISSING)
                if found is MISSING:
                    problems.append(f"line {node.lineno}: {node.module} has no {alias.name}")
                else:
                    bound[alias.asname or alias.name] = found

    def resolve(expr) -> object:
        """The program object that a name or ``module.attr`` denotes, else MISSING."""
        if isinstance(expr, ast.Attribute):
            owner = bound.get(getattr(expr.value, "id", None))
            return getattr(owner, expr.attr, MISSING) if isinstance(owner, ModuleType) else MISSING
        return bound.get(getattr(expr, "id", None), MISSING)

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            owner = bound.get(getattr(node.value, "id", None))
            if isinstance(owner, ModuleType) and not hasattr(owner, node.attr):
                problems.append(f"line {node.lineno}: {node.value.id} has no {node.attr}")
        if not isinstance(node, ast.Call) or not callable(callee := resolve(node.func)):
            continue
        args = [None for arg in node.args if not isinstance(arg, ast.Starred)]
        kwargs = {keyword.arg: None for keyword in node.keywords if keyword.arg}
        unpacked = len(args) < len(node.args) or len(kwargs) < len(node.keywords)
        signature = inspect.signature(callee)
        try:
            # What *args or **kwargs pass is unknown, so only a partial bind holds.
            (signature.bind_partial if unpacked else signature.bind)(*args, **kwargs)
        except TypeError as exc:
            problems.append(f"line {node.lineno}: {ast.unparse(node.func)}: {exc}")
    return problems


@pytest.mark.parametrize(
    "path", sorted(BENCHMARKS.glob("*.py")), ids=lambda path: path.name
)
def test_benchmark_uses_the_current_api(path):
    assert api_problems(path.read_text(encoding="utf-8")) == []


def test_a_stale_use_is_caught():
    source = """
from schema_linker import harness, llm
from schema_linker.pathfinder import MODE_PRESETS, UnionMode
harness.run_linking([], None, None, "out", clients=None)
llm.render_path_select_prompt("q", [])
llm.DEFAULT_MODEL
harness.RunConfig(mode="mode1", **{})
"""
    problems = api_problems(source)
    assert [problem.split(":")[0] for problem in problems] == [f"line {n}" for n in (3, 4, 5, 6)]
    assert "no UnionMode" in problems[0] and "clients" in problems[1]
    assert "model_name" in problems[2] and "no DEFAULT_MODEL" in problems[3]
