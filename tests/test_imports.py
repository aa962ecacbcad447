"""Every name a package module imports is used in it or listed in its ``__all__``.

No linter ships with the project, so this guard parses each module with
``ast``: a name bound by an import must be read somewhere in the module,
annotations and quoted annotations included, or be re-exported by
``__all__``. ``from __future__`` imports and star imports are exempt.
Each module must also parse under the oldest grammar the package supports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "schema_linker"


def unused_imports(source: str) -> list[str]:
    """The names source imports but never uses or re-exports, in import order."""
    tree = ast.parse(source)
    imported: list[str] = []
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names if alias.name != "*"]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:  # a quoted annotation such as "JsonlAppender"
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(name.id for name in ast.walk(quoted) if isinstance(name, ast.Name))
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [name for name in dict.fromkeys(imported) if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_guard_flags_what_a_module_leaves_behind():
    source = (
        "from __future__ import annotations\n"
        "import json, os.path\n"
        "from contextlib import ExitStack, nullcontext\n"
        "from typing import Iterator, TypeVar\n"
        "from .errors import LinkerError\n"
        "__all__ = ['LinkerError']\n"
        "def read(path) -> 'Iterator[dict]':\n"
        "    with ExitStack():\n"
        "        return json.loads(path)\n"
    )
    assert unused_imports(source) == ["os", "nullcontext", "TypeVar"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_parses_as_python_3_10(path):
    # pyproject.toml declares requires-python >= 3.10; newer syntax fails this.
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_grammar_guard_flags_newer_syntax():
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    ast.parse(source, feature_version=(3, 11))
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=(3, 10))
