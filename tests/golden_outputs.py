"""The SHA-256 of every replayed output of the pipeline on two fixed corpora.

``compute_manifest`` records each corpus once into an empty transcript
cache with a scripted backend, then replays every stage from that cache:

- link rows for all seven modes;
- linked and baseline generation;
- evaluation with execution checking of both generation outputs;
- a sweep over all seven modes: its link rows, grid files and reports;
- the sorted request digests of the recorded cache.

The corpora:

- ``toy``: the six-table retail corpus. Question 3's endpoint replies are
  unusable, so its extraction degrades, and question 5's generation reply
  holds no SQL.
- ``sweep-small``: the smoke corpus of the benchmark's ``sweep-small``
  workload at seed 9001, which scripts degraded and out-of-range replies.
  ``benchmarks/corpus.py``, ``backend.py`` and ``workloads.py`` are loaded
  by path.

``tests/golden/manifest.json`` holds the expected digests, and
``python tests/golden/regenerate.py`` rewrites it.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
from dataclasses import replace
from pathlib import Path

from schema_linker import (
    CachingClient,
    RunConfig,
    SchemaRepository,
    TranscriptCache,
    ingest_dataset,
    run_evaluation,
    run_generation,
    run_linking,
    run_sweep,
)
from schema_linker.errors import CacheMissError
from schema_linker.jsonl import read_jsonl
from schema_linker.pathfinder import MODE_PRESETS

from toy_corpus import ScriptedBackend, write_corpus

MANIFEST = Path(__file__).resolve().parent / "golden" / "manifest.json"
BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
SWEEP_SMALL_SEED = 9001


def _load_benchmark_modules() -> dict:
    """corpus, backend and workloads from benchmarks/, without keeping them importable."""
    names = ("corpus", "backend", "workloads")
    saved = {name: sys.modules.get(name) for name in names}
    loaded = {}
    try:
        for name in names:  # each imports the ones before it by bare name
            spec = importlib.util.spec_from_file_location(name, BENCHMARKS / f"{name}.py")
            module = importlib.util.module_from_spec(spec)
            sys.modules[name] = module
            spec.loader.exec_module(module)
            loaded[name] = module
    finally:
        for name, module in saved.items():
            if module is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = module
    return loaded


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _replayed_outputs(dataset: Path, schema_root: Path, backend, work: Path) -> dict[str, str]:
    """Record every request of the corpus once, replay each stage, hash the outputs."""
    questions, _ = ingest_dataset(dataset, schema_root, require_gold_sql=True)
    cache_path = work / "cache.jsonl"
    recording = RunConfig(cache_path=cache_path, cache_mode="record", workers=1)
    recorder = CachingClient(TranscriptCache(cache_path), backend=backend, mode="record")
    repo = SchemaRepository(schema_root)
    recorded = work / "recorded"
    run_sweep(questions, recording, repo, recorded, client=recorder)
    link_path = recorded / "link_mode7.jsonl"
    run_generation(link_path, recording, recorder, recorded / "generate.jsonl")
    run_generation(
        link_path,
        replace(recording, baseline=True),
        recorder,
        recorded / "generate_baseline.jsonl",
        repo=repo,
    )

    out = work / "replayed"
    replay = RunConfig(cache_path=cache_path)
    client = CachingClient(TranscriptCache(cache_path))
    repo = SchemaRepository(schema_root)
    for mode in MODE_PRESETS:
        rows_path = out / "link" / f"{mode}.jsonl"
        run_linking(questions, replace(replay, mode=mode), repo, rows_path, client)
    linked = run_generation(
        out / "link" / "mode7.jsonl", replay, client, out / "generate.jsonl"
    ).path
    baseline = run_generation(
        out / "link" / "mode7.jsonl",
        replace(replay, baseline=True),
        client,
        out / "generate_baseline.jsonl",
        repo=repo,
    ).path
    for path, name in ((linked, "evaluate"), (baseline, "evaluate_baseline")):
        run_evaluation(path, questions, repo, check_execution=True, report_dir=out / name)
    run_sweep(questions, replay, repo, out / "sweep", client=client)

    hashes = {
        path.relative_to(out).as_posix(): _digest(path.read_bytes())
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }
    records = read_jsonl(cache_path, CacheMissError, "cache line")
    digests = sorted(record["digest"] for record in records)
    hashes["cache_digests"] = _digest("\n".join(digests).encode("ascii"))
    return hashes


def compute_manifest(work: Path) -> dict[str, str]:
    """Every golden entry, keyed ``<corpus>/<output>``, computed under ``work``."""
    toy_dataset, toy_schemas = write_corpus(work / "toy-corpus")
    toy_backend = ScriptedBackend(
        sql_overrides={5: "I could not write a query for this question."},
        endpoint_overrides={3: "The question names no tables I recognise."},
    )
    benchmark = _load_benchmark_modules()
    spec = benchmark["workloads"].WORKLOADS["sweep-small"].smoke_corpus
    small_dataset, small_schemas, scripts = benchmark["corpus"].generate(
        spec, SWEEP_SMALL_SEED, work / "sweep-small-corpus"
    )
    small_backend = benchmark["backend"].ScriptedBackend(scripts)
    corpora = {
        "toy": (toy_dataset, toy_schemas, toy_backend),
        "sweep-small": (small_dataset, small_schemas, small_backend),
    }
    manifest = {}
    for corpus, (dataset, schema_root, backend) in corpora.items():
        outputs = _replayed_outputs(dataset, schema_root, backend, work / corpus)
        manifest.update({f"{corpus}/{name}": digest for name, digest in outputs.items()})
    return manifest


def moved_entries(expected: dict[str, str], actual: dict[str, str]) -> list[str]:
    """Entry names whose digest differs, or that only one side has, sorted."""
    return sorted(
        name for name in expected.keys() | actual.keys() if expected.get(name) != actual.get(name)
    )


def write_manifest(manifest: dict[str, str]) -> None:
    MANIFEST.parent.mkdir(parents=True, exist_ok=True)
    MANIFEST.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
