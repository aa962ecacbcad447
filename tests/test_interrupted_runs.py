"""Record runs killed at any write resume to the reports of an unbroken run.

A kill is simulated by raising a ``BaseException`` subclass from
``JsonlAppender.write``, once before the line is written and once after
half of its bytes are: the per-row handlers record a plain ``Exception`` as
a row error, but let this one through, as a dying process would stop. Each
killed run is resumed with a fresh client on the same transcript cache. Its
reports must match the unbroken run's byte for byte, and its backend must be
asked for exactly the requests whose replies the killed run left out of the
cache file. Every file the two runs wrote must then read back whole.

The backend's first reply is slow, as a real endpoint's is, so the sweep's
two workers start after its first question, and some of its kills land on
writes made by pool threads.
"""

from __future__ import annotations

import itertools
import json
import threading
from pathlib import Path

import pytest

from schema_linker import CachingClient, RunConfig, TranscriptCache, harness
from schema_linker.errors import CacheMissError
from schema_linker.jsonl import JsonlAppender, read_jsonl
from schema_linker.llm import request_digest

from toy_corpus import ScriptedBackend, SlowStartBackend

REPORTS = ("summary.json", "per_question.csv", "grid.csv", "grid.json")


class Killed(BaseException):
    """Stands in for the process dying during a write."""


def sweep(questions, repo, work: Path, client: CachingClient) -> Path:
    """A record-mode sweep of every mode on two workers; returns its report root."""
    config = RunConfig(cache_path=work / "cache.jsonl", cache_mode="record", workers=2)
    harness.run_sweep(questions, config, repo, work / "sweep", client=client)
    return work / "sweep"


def link_and_generate(questions, repo, work: Path, client: CachingClient) -> Path:
    """Record-mode linking, then generation, on one worker; returns the report directory."""
    config = RunConfig(cache_path=work / "cache.jsonl", cache_mode="record", workers=1)
    harness.run_linking(questions, config, repo, work / "link.jsonl", client=client)
    generated = harness.run_generation(
        work / "link.jsonl", config, client=client, out_path=work / "generate.jsonl"
    )
    report_dir = work / "report"
    harness.run_evaluation(
        generated.path, questions, repo, check_execution=True, report_dir=report_dir
    )
    return report_dir


def recorded(work: Path, run) -> tuple[ScriptedBackend, CachingClient]:
    """A record client on work's cache; the sweep's backend starts slow, so its pool starts."""
    backend = SlowStartBackend() if run is sweep else ScriptedBackend()
    cache = TranscriptCache(work / "cache.jsonl")
    return backend, CachingClient(cache, backend=backend, mode="record")


def reports(root: Path) -> dict[str, bytes]:
    return {
        str(path.relative_to(root)): path.read_bytes()
        for name in REPORTS
        for path in root.rglob(name)
    }


def cached_digests(work: Path) -> set[str]:
    """The digests of the cache file's readable lines; a torn last line is skipped."""
    lines = read_jsonl(work / "cache.jsonl", CacheMissError, "cache line", ("digest",))
    return {record["digest"] for record in lines}


def killing_write(kill_at: int, torn: bool, killers: set[int]):
    """A ``JsonlAppender.write`` that raises Killed from its ``kill_at``-th call (from 0) on.

    Later calls write nothing either: the other worker thread of a dead
    process never reaches the disk. The ident of the thread making the
    ``kill_at``-th call goes into ``killers``.
    """
    real_write = JsonlAppender.write
    calls = itertools.count()

    def write(self: JsonlAppender, record: dict) -> None:
        call = next(calls)
        if call < kill_at:
            return real_write(self, record)
        if call == kill_at:
            killers.add(threading.get_ident())
        if torn and call == kill_at:
            line = (json.dumps(record, ensure_ascii=True, sort_keys=True) + "\n").encode("ascii")
            self._sink.write(line[: len(line) // 2])
            self._sink.flush()
        raise Killed

    return write


@pytest.mark.parametrize("torn", [False, True], ids=["before_write", "half_written"])
@pytest.mark.parametrize("run", [sweep, link_and_generate], ids=lambda run: run.__name__)
def test_a_run_killed_at_any_write_resumes_to_the_same_reports(
    run, torn, questions, repo, tmp_path, monkeypatch
):
    unbroken = tmp_path / "unbroken"
    writes = itertools.count()
    real_write = JsonlAppender.write

    def counting_write(self: JsonlAppender, record: dict) -> None:
        next(writes)
        real_write(self, record)

    with monkeypatch.context() as patch:
        patch.setattr(JsonlAppender, "write", counting_write)
        expected = reports(run(questions, repo, unbroken, recorded(unbroken, run)[1]))
    total = next(writes)
    every_request = cached_digests(unbroken)
    assert total > len(every_request) > len(questions)
    assert {Path(name).name for name in expected} >= set(
        REPORTS if run is sweep else REPORTS[:2]
    )

    killers: set[int] = set()
    for kill_at in range(total):
        work = tmp_path / str(kill_at)
        with monkeypatch.context() as patch:
            patch.setattr(JsonlAppender, "write", killing_write(kill_at, torn, killers))
            with pytest.raises(Killed):
                run(questions, repo, work, recorded(work, run)[1])
        missing = every_request - cached_digests(work)
        backend, client = recorded(work, run)
        assert reports(run(questions, repo, work, client)) == expected, kill_at
        asked = [request_digest(request) for request in backend.requests]
        assert sorted(asked) == sorted(missing), kill_at
        assert cached_digests(work) == every_request, kill_at
        for path in work.rglob("*.jsonl"):  # no torn line is left inside, or at the end
            text = path.read_bytes()
            assert text.endswith(b"\n") and all(map(json.loads, text.splitlines())), path
    pool_kills = killers - {threading.get_ident()}
    assert bool(pool_kills) is (run is sweep)
