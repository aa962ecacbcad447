"""The benchmark's traced run wraps program functions by module attribute.

``benchmarks/tracing.py`` replaces each ``(owner, attr)`` in its TARGETS
list while a traced pass runs. A refactor that drops or renames one of
those attributes, or that routes work around the wrapped ones, breaks the
traced benchmark, so this guards them here.
"""

import importlib.util
import sys
from collections import Counter
from pathlib import Path

from schema_linker import CachingClient, RunConfig, SchemaRepository, TranscriptCache, harness
from schema_linker.pathfinder import MODE_PRESETS, EndpointKeep

from conftest import read_rows
from toy_corpus import ScriptedBackend

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("_benchmark_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_trace_target_is_callable(monkeypatch):
    tracing = load_tracing(monkeypatch)
    assert tracing.TARGETS
    missing = [
        name
        for name, owner, attr in tracing.TARGETS
        if not callable(getattr(owner, attr, None))
    ]
    assert missing == []


def test_sweep_work_runs_inside_traced_spans(monkeypatch, questions, schema_root, tmp_path):
    tracing = load_tracing(monkeypatch)
    cache_path = tmp_path / "cache.jsonl"
    recorder = CachingClient(TranscriptCache(cache_path), backend=ScriptedBackend(), mode="record")
    recording = RunConfig(cache_path=cache_path, cache_mode="record", workers=1)
    harness.run_sweep(
        questions, recording, SchemaRepository(schema_root), tmp_path / "recorded", client=recorder
    )

    tracer = tracing.Tracer(
        {question.text: question.question_id for question in questions},
        {question.gold_sql: question.question_id for question in questions},
    )
    config = RunConfig(cache_path=cache_path)
    with tracer.installed(), tracer.stage_run("sweep", len(questions)):
        harness.run_sweep(questions, config, SchemaRepository(schema_root), tmp_path / "sweep")
    spans = Counter(span.name for span in tracer.spans)
    modes = len(MODE_PRESETS)
    assert spans["harness.run_sweep"] == 1
    assert spans["harness.run_evaluation"] == modes
    # One link per question; one merge per distinct kept (sources, destinations).
    assert spans["pathfinder.link"] == len(questions)
    assert spans["pathfinder.build_candidates"] == sum(
        len({kept_endpoints(row, config) for config in MODE_PRESETS.values()})
        for row in read_rows(tmp_path / "recorded" / "link_mode4.jsonl")
    )


def kept_endpoints(row: dict, config) -> tuple:
    """The sources and destinations of a link row that config keeps."""

    def kept(names, keep):
        return tuple(names[:1] if keep is EndpointKeep.ONE else names)

    return (
        kept(row["sources"], config.keep_sources),
        kept(row["destinations"], config.keep_destinations),
    )
