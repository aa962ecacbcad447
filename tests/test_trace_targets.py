"""The benchmark's traced run wraps program functions by module attribute.

``benchmarks/tracing.py`` replaces each ``(owner, attr)`` in its TARGETS
list while a traced pass runs. A refactor that drops or renames one of
those attributes breaks the traced benchmark, so this guards them here.
"""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def test_every_trace_target_is_callable(monkeypatch):
    spec = importlib.util.spec_from_file_location("_benchmark_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    missing = [
        name
        for name, owner, attr in tracing.TARGETS
        if not callable(getattr(owner, attr, None))
    ]
    assert missing == []
