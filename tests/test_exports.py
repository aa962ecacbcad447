"""The package root exports exactly the API that README documents."""

import re
from pathlib import Path

import schema_linker

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves():
    for name in schema_linker.__all__:
        assert hasattr(schema_linker, name), name


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from schema_linker import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(schema_linker.__all__)


def test_every_exported_name_is_in_readme():
    text = README.read_text(encoding="utf-8")
    missing = [
        name for name in schema_linker.__all__ if not re.search(rf"\b{re.escape(name)}\b", text)
    ]
    assert missing == []
