"""Workload definitions, transcript recording and the timed pipeline stages.

Every workload runs the four batch stages, each through the public entry
point of ``schema_linker.harness`` and with two worker threads: ``link``,
``generate``, ``evaluate`` (with execution checking) and ``sweep`` (all
seven modes). Set-up is ``ingest_dataset``, ``SchemaRepository.graph`` for
every database, and loading the workload's transcript cache.

Each timed call is followed, outside the timed region, by correctness
checks; a failed check raises ``CheckFailed``.

Calls are timed on two clocks. Wall time is what a user waits for. Process
CPU time (all threads) is what the metrics build on: the pipeline is bound
by the interpreter lock, so on an idle machine the two agree closely, but
on a shared virtual machine wall time also counts the spells in which the
host runs other guests, and those come and go within minutes.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter, process_time

from schema_linker import harness, llm
from schema_linker.pathfinder import MODE_PRESETS

from backend import ScriptedBackend
from corpus import CorpusSpec, QuestionScript

WORKERS = 2

STAGES = ("link", "generate", "evaluate", "sweep")


class Stopwatch:
    """Wall and process CPU seconds spent inside a ``with`` block."""

    def __enter__(self) -> "Stopwatch":
        self.wall, self.cpu = perf_counter(), process_time()
        return self

    def __exit__(self, *exc) -> None:
        self.wall, self.cpu = perf_counter() - self.wall, process_time() - self.cpu


class CheckFailed(Exception):
    """A correctness check on the program's outputs failed."""


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: CorpusSpec
    smoke_corpus: CorpusSpec
    link_mode: str
    cache_mode: str  # "replay": transcripts recorded beforehand; "record": cold cache
    sweep_questions: int  # the sweep stage runs the first N questions
    # Questions per timed call of each stage, sized so that one call takes
    # about 0.1 s: a short call mostly falls within one state of the host,
    # which the reference passes around it then measure.
    batch: dict[str, int]


_SMALL = CorpusSpec(
    databases=60,
    min_tables=6,
    max_tables=14,
    chords_per_table=0.5,
    rows=8,
    questions=480,
    max_endpoints=3,
    sparse_every=5,
    degraded_frac=0.03,
    out_of_range_frac=0.03,
)
_SMALL_SMOKE = replace(_SMALL, databases=5, questions=10, degraded_frac=0.1, out_of_range_frac=0.1)

WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="wide-replay",
            corpus=CorpusSpec(
                databases=1,
                min_tables=100,
                max_tables=100,
                chords_per_table=2.0,
                rows=20,
                questions=48,
                max_endpoints=2,
            ),
            smoke_corpus=CorpusSpec(
                databases=1,
                min_tables=20,
                max_tables=20,
                chords_per_table=2.0,
                rows=4,
                questions=4,
                max_endpoints=2,
            ),
            link_mode="mode7",
            cache_mode="replay",
            sweep_questions=24,
            batch={"link": 6, "generate": 48, "evaluate": 48, "sweep": 1},
        ),
        Workload(
            name="sweep-small",
            corpus=_SMALL,
            smoke_corpus=_SMALL_SMOKE,
            link_mode="mode7",
            cache_mode="replay",
            sweep_questions=240,
            batch={"link": 120, "generate": 480, "evaluate": 120, "sweep": 12},
        ),
        Workload(
            name="record-cold",
            corpus=_SMALL,
            smoke_corpus=_SMALL_SMOKE,
            link_mode="mode4",
            cache_mode="record",
            sweep_questions=240,
            batch={"link": 48, "generate": 160, "evaluate": 120, "sweep": 12},
        ),
    ]
}


def _requests(client: llm.CachingClient) -> int:
    return client.cache_hits + client.backend_calls


def record_transcripts(
    workload: Workload, work: Path, scripts: list[QuestionScript]
) -> dict[str, int]:
    """Record every replayed request once; return the request count of each call.

    The calls are the measured process's: the same stages over the same
    batches, all into the one transcript file that replay reads.
    """
    runner = Runner(workload, work, scripts, expected_requests={}, recording=True)
    runner.setup()
    for stage in ("link", "generate", "sweep"):
        for index in range(runner.calls(stage)):
            runner.run(stage, index)
    shutil.rmtree(runner.out)
    shutil.rmtree(runner.inputs)
    return runner.expected_requests


class Runner:
    """State of one measured process: set-up results plus stage inputs.

    Each stage runs as calls over batches of questions (``Workload.batch``).
    The first call of each batch keeps its output rows; the next stage's
    batches read their input from those rows. With ``recording`` set, every
    call records into the workload's one transcript file, and the request
    count of each call becomes the count that replay must match.
    """

    def __init__(
        self,
        workload: Workload,
        work: Path,
        scripts: list[QuestionScript],
        expected_requests: dict[str, int],
        recording: bool = False,
    ):
        self.workload = workload
        self.work = work
        self.scripts = scripts
        self.expected_requests = expected_requests
        self.recording = recording
        cache_mode = "record" if recording else workload.cache_mode
        self.config = harness.RunConfig(
            mode=workload.link_mode, cache_mode=cache_mode, workers=WORKERS
        )
        self.out = work / ("recording" if recording else "out")
        self.inputs = self.out.with_name(self.out.name + "-inputs")
        for path in (self.out, self.inputs):
            path.mkdir(parents=True, exist_ok=True)
        self._serial = 0
        self.rows: dict[str, dict[str, str]] = {"link": {}, "generate": {}}
        self.report_bytes: dict[int, tuple[bytes, bytes]] = {}
        self.record_requests: dict[str, int] = {}
        self.attempted = 0
        self.last_client: llm.CachingClient | None = None

    # -- set-up -----------------------------------------------------------

    def setup(self) -> Stopwatch:
        with Stopwatch() as clock:
            questions, _ = harness.ingest_dataset(
                self.work / "dataset.json", self.work / "databases", require_gold_sql=True
            )
            repo = harness.SchemaRepository(self.work / "databases")
            for db_id in sorted({q.db_id for q in questions}):
                repo.graph(db_id)
            cache = llm.TranscriptCache(self.work / "transcripts.jsonl")
        self.questions, self.repo, self.cache = questions, repo, cache
        sweep_set = questions[: self.workload.sweep_questions]
        self.batches = {
            stage: _batches(sweep_set if stage == "sweep" else questions, size)
            for stage, size in self.workload.batch.items()
        }
        return clock

    def calls(self, stage: str) -> int:
        """Number of batches, so of calls, that one pass over ``stage`` makes."""
        return len(self.batches[stage])

    def items(self, stage: str, index: int) -> int:
        """Items that batch ``index`` of ``stage`` handles; a sweep item is a question-mode pair."""
        items = len(self.batches[stage][index])
        return items * len(MODE_PRESETS) if stage == "sweep" else items

    def row_bytes(self, stage: str) -> float:
        """Mean size in bytes of a kept output row of ``stage``."""
        rows = self.rows[stage]
        return sum(len(row.encode("utf-8")) for row in rows.values()) / len(rows)

    # -- helpers ----------------------------------------------------------

    def _fresh(self, name: str) -> Path:
        self._serial += 1
        return self.out / f"{self._serial:04d}-{name}"

    def _client(self) -> tuple[llm.CachingClient, ScriptedBackend | None]:
        if self.recording:
            backend = ScriptedBackend(self.scripts)
            return llm.CachingClient(self.cache, backend=backend, mode="record"), None
        if self.workload.cache_mode == "replay":
            return llm.CachingClient(self.cache, mode="replay"), None
        backend = ScriptedBackend(self.scripts)
        cache = llm.TranscriptCache(self._fresh("transcripts.jsonl"))
        return llm.CachingClient(cache, backend=backend, mode="record"), backend

    def _check(self, ok: bool, message: str) -> None:
        if not ok:
            raise CheckFailed(message)

    def _check_client(
        self, call: str, client: llm.CachingClient, backend: ScriptedBackend | None
    ) -> None:
        requests = _requests(client)
        self.last_client = client
        if self.recording:
            self.expected_requests[call] = requests
            return
        if backend is None:
            self._check(client.backend_calls == 0, f"{call}: replay reached the backend")
            self._check(
                requests == self.expected_requests[call],
                f"{call}: {requests} cache hits, expected {self.expected_requests[call]}",
            )
            return
        with client.cache.path.open(encoding="utf-8") as lines:
            written = sum(1 for _ in lines)
        self._check(
            backend.calls == client.backend_calls == written == len(client.cache),
            f"{call}: backend calls, cache writes and cache entries disagree",
        )
        expected = self.record_requests.setdefault(call, requests)
        self._check(requests == expected, f"{call}: request count changed between calls")

    def _check_rows(self, path: Path, field: str, call: str) -> dict[str, str]:
        """Check that no row of ``path`` sets ``field``; return the rows by question id."""
        rows = {}
        with path.open(encoding="utf-8") as lines:
            for line in lines:
                row = json.loads(line)
                self._check(not row.get(field), f"{call}: a row with {field} in {path.name}")
                rows[row["question_id"]] = line
        return rows

    def _input(self, source: str, index: int, batch: list) -> Path:
        """The kept ``source`` rows of ``batch``, as one JSON-lines file."""
        path = self.inputs / f"{source}-{index:03d}.jsonl"
        if not path.exists():
            kept = self.rows[source]
            path.write_text("".join(kept[q.question_id] for q in batch), encoding="utf-8")
        return path

    # -- stages: each call returns (items processed, clock of the harness call)

    def run(self, stage: str, index: int) -> tuple[int, Stopwatch]:
        """Run batch ``index`` of ``stage`` once and check its outputs."""
        batch = self.batches[stage][index]
        items, clock = getattr(self, f"_{stage}")(index, batch, f"{stage}:{index}")
        self.attempted += items
        return items, clock

    def _link(self, index: int, batch: list, call: str) -> tuple[int, Stopwatch]:
        out = self._fresh("link.jsonl")
        client, backend = self._client()
        with Stopwatch() as clock:
            outcome = harness.run_linking(batch, self.config, self.repo, out, client=client)
        self._check(
            outcome.failed == 0 and outcome.completed == len(batch),
            f"{call}: {outcome.failed} failed, {outcome.completed} completed",
        )
        rows = self._check_rows(out, "error", call)
        self._check(len(rows) == len(batch), f"{call}: {len(rows)} rows for {len(batch)}")
        self._check_client(call, client, backend)
        for question_id, row in rows.items():
            self.rows["link"].setdefault(question_id, row)
        return len(batch), clock

    def _generate(self, index: int, batch: list, call: str) -> tuple[int, Stopwatch]:
        source = self._input("link", index, batch)
        out = self._fresh("generated.jsonl")
        client, backend = self._client()
        with Stopwatch() as clock:
            outcome = harness.run_generation(source, self.config, client=client, out_path=out)
        self._check(
            outcome.failed == 0 and outcome.completed == len(batch),
            f"{call}: {outcome.failed} failed, {outcome.completed} completed",
        )
        rows = self._check_rows(out, "generation_error", call)
        self._check(len(rows) == len(batch), f"{call}: {len(rows)} rows for {len(batch)}")
        self._check_client(call, client, backend)
        for question_id, row in rows.items():
            self.rows["generate"].setdefault(question_id, row)
        return len(batch), clock

    def _evaluate(self, index: int, batch: list, call: str) -> tuple[int, Stopwatch]:
        source = self._input("generate", index, batch)
        report_dir = self._fresh("report")
        with Stopwatch() as clock:
            report = harness.run_evaluation(
                source, batch, self.repo, check_execution=True, report_dir=report_dir
            )
        overall = report.summary["overall"]
        n = len(batch)
        self._check(report.summary["rows_evaluated"] == n, f"{call}: rows missing from the report")
        self._check(
            overall.get("execution_count") == n and overall.get("execution_accuracy") == 1.0,
            f"{call}: execution accuracy {overall.get('execution_accuracy')}",
        )
        if self.workload.link_mode == "mode7":
            self._check(overall["recall"] == 1.0, f"{call}: mode7 recall {overall['recall']}")
        produced = (report.summary_path.read_bytes(), report.per_question_path.read_bytes())
        first = self.report_bytes.setdefault(index, produced)
        self._check(produced == first, f"{call}: reports differ between evaluations")
        return n, clock

    def _sweep(self, index: int, batch: list, call: str) -> tuple[int, Stopwatch]:
        out_dir = self._fresh("sweep")
        client, backend = self._client()
        with Stopwatch() as clock:
            result = harness.run_sweep(batch, self.config, self.repo, out_dir, client=client)
        for row in result["rows"]:
            self._check(
                row["count"] == len(batch), f"{call}: {row['mode']} scored {row['count']} rows"
            )
            if row["mode"] == "mode7":
                self._check(row["recall"] == 1.0, f"{call}: mode7 recall {row['recall']}")
        for mode in MODE_PRESETS:
            self._check_rows(out_dir / f"link_{mode}.jsonl", "error", call)
        self._check_client(call, client, backend)
        return self.items("sweep", index), clock

    def discard(self) -> None:
        """Delete the stage outputs written so far, to bound disk use."""
        shutil.rmtree(self.out)
        self.out.mkdir()


def _batches(questions: list, size: int) -> list[list]:
    return [questions[i : i + size] for i in range(0, len(questions), size)]
