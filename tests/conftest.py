from __future__ import annotations

import hashlib
import json
import sqlite3
from pathlib import Path
from types import SimpleNamespace

import pytest

from schema_linker import (
    CachingClient,
    RunConfig,
    SchemaRepository,
    TranscriptCache,
    ingest_dataset,
    run_generation,
    run_linking,
)
from schema_linker.errors import ParseError
from schema_linker.jsonl import read_jsonl
from schema_linker.llm import CompletionRequest

from toy_corpus import ScriptedBackend, write_corpus

ALL_MODES = ["mode1", "mode2", "mode3", "mode4", "mode5", "mode6", "mode7"]


def read_rows(path: Path) -> list[dict]:
    """Every row of a run output, in file order."""
    return list(read_jsonl(path, ParseError, "run output"))


def reference_digest(request: CompletionRequest) -> str:
    """The transcript cache digest, computed in one pass over the whole blob."""

    def normalize(text: str) -> str:
        return text.replace("\r\n", "\n").replace("\r", "\n")

    payload = {
        "model": request.model_name,
        "system": normalize(request.system_text),
        "user": normalize(request.user_text),
        "temperature": round(float(request.temperature), 6),
    }
    blob = json.dumps(payload, sort_keys=True, ensure_ascii=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@pytest.fixture(scope="session")
def corpus_dir(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("corpus")
    write_corpus(root)
    return root


@pytest.fixture(scope="session")
def dataset_path(corpus_dir: Path) -> Path:
    return corpus_dir / "dataset.json"


@pytest.fixture(scope="session")
def schema_root(corpus_dir: Path) -> Path:
    return corpus_dir / "schemas"


@pytest.fixture(scope="session")
def repo(schema_root: Path) -> SchemaRepository:
    return SchemaRepository(schema_root)


@pytest.fixture(scope="session")
def retail_schema(repo: SchemaRepository):
    return repo.schema("retail")


@pytest.fixture(scope="session")
def retail_graph(repo: SchemaRepository):
    return repo.graph("retail")


@pytest.fixture(scope="session")
def questions(dataset_path: Path, schema_root: Path):
    loaded, diagnostics = ingest_dataset(dataset_path, schema_root)
    assert not diagnostics
    return loaded


@pytest.fixture(scope="session")
def mode_runs(tmp_path_factory, questions, repo):
    """Memoized record-mode linking run per mode over the toy corpus.

    workers=1 keeps the scripted backend's request log in question order so
    tests can assert on prompt contents deterministically.
    """
    base = tmp_path_factory.mktemp("mode_runs")
    built: dict[str, SimpleNamespace] = {}

    def get(mode: str) -> SimpleNamespace:
        if mode not in built:
            cache_path = base / f"cache_{mode}.jsonl"
            out_path = base / f"link_{mode}.jsonl"
            backend = ScriptedBackend()
            client = CachingClient(
                TranscriptCache(cache_path), backend=backend, mode="record"
            )
            config = RunConfig(
                mode=mode, cache_path=cache_path, cache_mode="record", workers=1
            )
            outcome = run_linking(questions, config, repo, out_path, client=client)
            built[mode] = SimpleNamespace(
                mode=mode,
                cache_path=cache_path,
                link_path=out_path,
                outcome=outcome,
                backend=backend,
                client=client,
                rows={row["question_id"]: row for row in read_rows(out_path)},
            )
        return built[mode]

    return get


@pytest.fixture(scope="session")
def golden_pipeline(tmp_path_factory, questions, repo):
    """Full link + generate run (mode7, scripted replies) with its own cache."""
    base = tmp_path_factory.mktemp("golden")
    cache_path = base / "cache.jsonl"
    backend = ScriptedBackend()
    client = CachingClient(TranscriptCache(cache_path), backend=backend, mode="record")
    config = RunConfig(
        mode="mode7", cache_path=cache_path, cache_mode="record", workers=1
    )
    link_path = base / "link.jsonl"
    link_outcome = run_linking(questions, config, repo, link_path, client=client)
    gen_outcome = run_generation(link_path, config, client=client)
    return SimpleNamespace(
        dir=base,
        config=config,
        client=client,
        backend=backend,
        cache_path=cache_path,
        link_path=link_path,
        gen_path=gen_outcome.path,
        link_outcome=link_outcome,
        gen_outcome=gen_outcome,
    )


@pytest.fixture
def sqlite_connections(monkeypatch):
    """Log every sqlite3.connect to a database file and how many are open.

    ``opened`` lists each target in connect order; ``peak`` is the most
    connections that were open at once, and ``open`` the number still open.
    In-memory databases, such as each schema's compile database, are not
    logged.
    """
    log = SimpleNamespace(opened=[], open=0, peak=0)
    real_connect = sqlite3.connect

    class Tracked(sqlite3.Connection):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self._tracked_open = True
            log.opened.append(str(args[0]))
            log.open += 1
            log.peak = max(log.peak, log.open)

        def close(self):
            if self._tracked_open:
                self._tracked_open = False
                log.open -= 1
            super().close()

    def connect(*args, **kwargs):
        if args[0] == ":memory:":
            return real_connect(*args, **kwargs)
        return real_connect(*args, factory=Tracked, **kwargs)

    monkeypatch.setattr(sqlite3, "connect", connect)
    return log
