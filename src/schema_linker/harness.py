"""Batch orchestration: dataset ingestion, linking and generation runs,
evaluation reports, and the mode sweep.

Run outputs are append-only JSON-lines files keyed by question_id, so an
interrupted run resumes by skipping questions whose row succeeded; failed
rows are retried, and the last row for a question_id is the one that
counts. A torn last line left by a killed run is skipped on read and cut
off before the next append. Reports are regenerated deterministically from
run outputs: rows are sorted, floats are formatted, and no timestamps are
written.
"""

from __future__ import annotations

import csv
import json
import logging
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence, TypeVar

from .errors import EmptyInputError, GoldExecutionError, NoSchemasFoundError, ParseError
from .jsonl import JsonlAppender, read_jsonl
from .llm import (
    CacheMode,
    CachingClient,
    HttpCompletionClient,
    LlmEndpointOracle,
    LlmPathOracle,
    TranscriptCache,
    render_sql_gen_prompt,
)
from .metrics import (
    EvalRecord,
    ReadOnlyConnections,
    aggregate,
    execution_match,
    make_eval_record,
)
from .pathfinder import (
    MODE_LABELS,
    MODE_PRESETS,
    canonical_mode_name,
    link,
    preset,
)
from .schema_model import (
    Schema,
    SchemaGraph,
    augment_sparse_graph,
    build_graph,
    ingest_schema_document,
    ingest_sqlite,
)
from .sql_analysis import (
    extract_tables,
    render_filtered_schema,
    render_join_path,
    render_schema,
)

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Question:
    question_id: str
    db_id: str
    text: str
    evidence: str | None = None
    gold_sql: str = ""
    difficulty: str = "unknown"


@dataclass(frozen=True)
class RunConfig:
    mode: str = "mode7"
    model: str = "google/gemini-2.5-flash-preview"
    link_temperature: float = 0.2  # endpoint and path-selection requests
    generate_temperature: float = 0.3  # linked and baseline SQL generation
    cache_path: Path | None = None
    cache_mode: str = "replay"
    baseline: bool = False
    # Record mode's threads, started once a question waits on the endpoint;
    # replay always runs on the calling thread.
    workers: int = 4

    def build_client(self) -> CachingClient:
        if self.cache_path is None:
            raise ValueError("cache_path is required to build a client")
        cache = TranscriptCache(self.cache_path)
        backend = None
        if CacheMode(self.cache_mode) is CacheMode.RECORD:
            backend = HttpCompletionClient()
        return CachingClient(cache, backend=backend, mode=self.cache_mode)


class SchemaRepository:
    """Loads and caches schemas, their augmented graphs and gold table sets.

    A database directory supplies either ``<db_id>.sqlite`` or, failing
    that, ``schema.json``; the SQLite file wins when both exist. Everything
    is kept for the repository's lifetime, including the shortest paths
    that linking enumerates on each graph (``SchemaGraph.path_cache``). A
    degraded question adds none there, and a pair of a capped candidate
    set (see ``pathfinder.build_candidates``) stores no paths.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self._lock = threading.Lock()
        self._schemas: dict[str, Schema] = {}
        self._graphs: dict[str, SchemaGraph] = {}
        self._gold: dict[tuple[str, str], frozenset[str]] = {}

    def database_path(self, db_id: str) -> Path | None:
        path = self.root / db_id / f"{db_id}.sqlite"
        return path if path.is_file() else None

    def document_path(self, db_id: str) -> Path | None:
        path = self.root / db_id / "schema.json"
        return path if path.is_file() else None

    def has(self, db_id: str) -> bool:
        return self.database_path(db_id) is not None or self.document_path(db_id) is not None

    def schema(self, db_id: str) -> Schema:
        with self._lock:
            cached = self._schemas.get(db_id)
        if cached is not None:
            return cached
        database = self.database_path(db_id)
        if database is not None:
            loaded = ingest_sqlite(database)
        else:
            document = self.document_path(db_id)
            if document is None:
                raise FileNotFoundError(
                    f"no schema source for database {db_id!r} under {self.root}"
                )
            loaded = ingest_schema_document(document)
        with self._lock:
            self._schemas.setdefault(db_id, loaded)
            return self._schemas[db_id]

    def graph(self, db_id: str) -> SchemaGraph:
        with self._lock:
            cached = self._graphs.get(db_id)
        if cached is not None:
            return cached
        schema = self.schema(db_id)
        built = augment_sparse_graph(build_graph(schema), schema)
        with self._lock:
            self._graphs.setdefault(db_id, built)
            return self._graphs[db_id]

    def gold_tables(self, question: Question) -> frozenset[str]:
        """The tables that ``question``'s gold SQL reads, extracted once per query.

        Gold SQL that cannot be parsed, names an unknown table or reads no
        schema table raises ParseError on every call.
        """
        key = (question.db_id, question.gold_sql)
        found = self._gold.get(key)
        if found is None:
            refs = extract_tables(question.gold_sql, self.schema(question.db_id))
            if refs.unresolved:
                raise ParseError(f"gold SQL names unknown tables: {', '.join(refs.unresolved)}")
            if not refs.tables:
                raise ParseError("gold SQL reads no schema table")
            found = self._gold.setdefault(key, refs.tables)
        return found


def ingest_dataset(
    path: str | Path,
    schema_root: str | Path,
    *,
    require_gold_sql: bool = False,
) -> tuple[list[Question], list[str]]:
    """Load a dataset JSON array, skipping rows whose database is missing.

    Returns the questions plus a diagnostic line per skipped row. Rows with
    malformed or missing required fields fail the whole ingest; a dataset
    whose databases are all missing is a NO_SCHEMAS_FOUND error.
    """
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"no such dataset file: {path}")
    try:
        rows = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(rows, list):
        raise ParseError(f"{path}: dataset must be a JSON array of question rows")

    repo = SchemaRepository(schema_root)
    questions: list[Question] = []
    diagnostics: list[str] = []
    first_seen: dict[str, int] = {}
    found_any_schema = False
    for i, row in enumerate(rows):
        where = f"{path.name}[{i}]"
        if not isinstance(row, dict):
            raise ParseError(f"{where}: row must be a JSON object")
        for field_name in ("question_id", "db_id", "question"):
            if field_name not in row:
                raise ParseError(f"{where}: missing field {field_name!r}")
        question_id = str(row["question_id"])
        if question_id in first_seen:
            raise ParseError(
                f"{where}: duplicate question_id {question_id!r}, "
                f"first seen at {path.name}[{first_seen[question_id]}]"
            )
        first_seen[question_id] = i
        db_id = str(row["db_id"])
        gold_sql = row.get("SQL") or ""
        if require_gold_sql and not gold_sql:
            raise ParseError(f"{where} (question_id={question_id}): missing field 'SQL'")
        if not repo.has(db_id):
            diagnostics.append(f"{where}: skipped; no schema source for database {db_id!r}")
            continue
        found_any_schema = True
        evidence = row.get("evidence")
        questions.append(
            Question(
                question_id=question_id,
                db_id=db_id,
                text=str(row["question"]),
                evidence=str(evidence) if evidence else None,
                gold_sql=str(gold_sql),
                difficulty=str(row.get("difficulty") or "unknown"),
            )
        )
    if rows and not found_any_schema:
        raise NoSchemasFoundError(
            f"no schemas found under {schema_root} for any dataset row"
        )
    for message in diagnostics:
        log.warning("%s", message)
    return questions, diagnostics


def _latest_rows(path: Path) -> dict[str, dict]:
    """The last row per question_id in a run output, in first-seen order."""
    rows = read_jsonl(path, ParseError, "run output", ("question_id",))
    return {row["question_id"]: row for row in rows}


@dataclass(frozen=True)
class RunOutcome:
    path: Path
    completed: int
    skipped: int
    failed: int


def _error_payload(exc: Exception) -> dict:
    return {"code": getattr(exc, "code", "ERROR"), "message": str(exc)}


def _with_usage(row: dict, client: CachingClient, field: str) -> dict:
    """Store the token usage of the calling thread's requests in row[field].

    Usage is counted per thread, and a row's requests all run on the
    thread that builds the row. Nothing is stored when the backend
    reported none, as in replay.
    """
    usage = client.pop_usage()
    if usage:
        row[field] = usage
    return row


Item = TypeVar("Item")

# An item whose wall time exceeds its CPU time by this much waited on the
# endpoint; the rest of the run then goes to ``RunConfig.workers`` threads.
POOL_AFTER_WAIT_S = 0.010


def _run_rows(
    items: dict[str, Item],
    out_paths: Sequence[Path],
    work: Callable[[Item, list[int]], list[dict]],
    error_field: str,
    client: CachingClient,
    config: RunConfig,
) -> tuple[list[RunOutcome], list[dict[str, dict]]]:
    """Append each item's rows, keyed by question_id, to the out_paths it is pending in.

    An item is done in a file when its latest row there has ``error_field``
    None. ``work(item, pending)`` returns, failures included, a row for each
    index into out_paths in ``pending``; rows are written in item order, each
    as it comes. Items run one at a time on the calling thread, each timed.
    Threads only pay off by overlapping waits on the endpoint: the work is
    Python computation under the interpreter lock, and handing that lock
    between threads on every request costs CPU that one thread does not
    pay. So replay never starts threads. Record mode starts
    ``config.workers`` of them for the items left once an item has waited
    ``POOL_AFTER_WAIT_S`` (its wall time less the thread's CPU time); a run
    whose replies are all cached, or come from an in-process backend, stays
    on one thread. The client's cache file is closed on return. Returns
    each file's outcome and its latest rows, read and written, as
    ``_latest_rows`` would read them back.
    """
    latest = [_latest_rows(path) for path in out_paths]
    done = [{key for key, row in rows.items() if row.get(error_field) is None} for rows in latest]
    todo = [(item, [i for i, d in enumerate(done) if key not in d]) for key, item in items.items()]
    todo = [(item, pending) for item, pending in todo if pending]
    workers = 1 if client.mode is CacheMode.REPLAY else config.workers
    written: list[list[dict]] = [[] for _ in out_paths]

    def run(job: tuple[Item, list[int]]) -> list[tuple[int, dict]]:
        return list(zip(job[1], work(*job)))

    with ExitStack() as stack:  # unwinds the pool, then the sinks, then the cache
        stack.callback(client.cache.close)
        sinks = [stack.enter_context(JsonlAppender(path)) for path in out_paths]

        def keep(pairs: list[tuple[int, dict]]) -> None:
            for i, row in pairs:
                sinks[i].write(row)
                written[i].append(row)

        jobs = iter(todo)
        for job in jobs:
            wall, cpu = time.perf_counter(), time.thread_time()
            pairs = run(job)
            waited = time.perf_counter() - wall - (time.thread_time() - cpu)
            keep(pairs)
            if workers > 1 and waited >= POOL_AFTER_WAIT_S:
                pool = stack.enter_context(ThreadPoolExecutor(workers))
                for pairs in pool.map(run, jobs):  # submits every job left
                    keep(pairs)
                break
    outcomes = []
    for path, rows, new in zip(out_paths, latest, written):
        failed = sum(row.get(error_field) is not None for row in new)
        outcomes.append(RunOutcome(path, len(new) - failed, len(items) - len(new), failed))
        rows.update((row["question_id"], row) for row in new)
    return outcomes, latest


def run_linking(
    questions: Sequence[Question],
    config: RunConfig,
    repo: SchemaRepository,
    out_path: str | Path,
    client: CachingClient | None = None,
) -> RunOutcome:
    """Link every question, appending one JSON row each to out_path.

    Questions whose latest row in out_path succeeded are skipped, which
    makes an interrupted run resumable. Per-question failures are recorded
    inline, do not stop the run, and are retried by the next run. A row
    carries the backend token usage its own requests reported.
    """
    client = client if client is not None else config.build_client()
    mode_name = canonical_mode_name(config.mode)
    return _link_questions(questions, [mode_name], config, repo, [Path(out_path)], client)[0][0]


def _link_questions(
    questions: Sequence[Question],
    mode_names: Sequence[str],
    config: RunConfig,
    repo: SchemaRepository,
    out_paths: Sequence[Path],
    client: CachingClient,
) -> tuple[list[RunOutcome], list[dict[str, dict]]]:
    """Link each question once, writing its mode_names[i] row to out_paths[i].

    One ``link`` call serves every pending mode of a question, and a result
    that modes share is rendered once. Each mode runs in its own try, and
    its row carries the usage popped after it, so the first pending mode's
    row holds the endpoint request. Returns what ``_run_rows`` returns.
    """
    endpoints = LlmEndpointOracle(client, config.model, config.link_temperature)
    path_oracle = LlmPathOracle(client, config.model, config.link_temperature)
    modes = [preset(name) for name in mode_names]

    def work(question: Question, pending: list[int]) -> list[dict]:
        client.pop_usage()  # drop what anything before this question left behind
        linker = None
        rendered: dict[int, dict] = {}  # by id() of a result; the linker keeps each alive
        rows = []
        for i in pending:
            row = {
                "question_id": question.question_id,
                "db_id": question.db_id,
                "question": question.text,
                "evidence": question.evidence,
                "difficulty": question.difficulty,
                "mode": mode_names[i],
                "error": None,
            }
            try:
                if linker is None:
                    schema, graph = repo.schema(question.db_id), repo.graph(question.db_id)
                    linker = link(
                        question.text, schema, graph, endpoints, path_oracle, question.evidence
                    )
                result = linker(modes[i])
                fields = rendered.get(id(result))
                if fields is None:
                    fields = rendered[id(result)] = {
                        "sources": list(result.sources),
                        "destinations": list(result.destinations),
                        "paths": [list(path.tables) for path in result.candidates.paths],
                        "union_tables": sorted(result.candidates.union_tables, key=str.casefold),
                        "chosen_tables": sorted(result.chosen_tables, key=str.casefold),
                        "chosen_path_id": result.chosen_path_id,
                        "selection_rule": result.selection_rule,
                        "degraded": result.degraded,
                        "warnings": list(result.warnings),
                        "filtered_schema": render_filtered_schema(schema, result.chosen_tables),
                        "join_path": render_join_path(
                            schema, graph, result.chosen_tables, result.chosen_path()
                        ),
                    }
                row.update(fields)
            except Exception as exc:  # recorded inline; the other modes and the run continue
                log.warning("%s: question %s failed: %s", mode_names[i], question.question_id, exc)
                row["error"] = _error_payload(exc)
            rows.append(_with_usage(row, client, "token_usage"))
        return rows

    items = {question.question_id: question for question in questions}
    return _run_rows(items, out_paths, work, "error", client, config)


# Drops the language tag on the opening fence line, and the tag of an inline
# ```sql ...``` or ```sqlite ...```.
_SQL_FENCE_RE = re.compile(
    r"```(?:[\w.+-]*[ \t\r]*\n|sql(?:ite)?\b)?(.*?)```", re.DOTALL | re.IGNORECASE
)
_SQL_STATEMENT_RE = re.compile(r"\b(?:SELECT|WITH)\b.*?(?=;|\Z)", re.DOTALL | re.IGNORECASE)


def extract_sql_reply(reply: str) -> str | None:
    """Pull the query out of a generation reply.

    The first non-empty fenced code block wins; otherwise the longest
    SELECT- or WITH-prefixed statement is taken.
    """
    for match in _SQL_FENCE_RE.finditer(reply):
        block = match.group(1).strip()
        if block:
            return block
    statements = [match.group().strip() for match in _SQL_STATEMENT_RE.finditer(reply)]
    statements = [s for s in statements if s]
    if not statements:
        return None
    return max(statements, key=len)


_LINKED_FIELDS = ("question", "db_id", "filtered_schema", "join_path")
# The link fields a generated row keeps; the link file holds the rest under
# the same question_id.
_CARRIED_FIELDS = ("question_id", "db_id", "mode", "error", "chosen_tables")


def run_generation(
    link_output: str | Path,
    config: RunConfig,
    client: CachingClient | None = None,
    out_path: str | Path | None = None,
    *,
    repo: SchemaRepository | None = None,
) -> RunOutcome:
    """Generate SQL for every linked row.

    Renders the join-path prompt from the row's filtered schema, or, when
    config.baseline is set, the baseline prompt from the full schema of the
    row's database in repo. The last link row per question_id is used; one
    without an error that lacks a linked field raises ParseError. Output
    rows that already hold generated SQL are skipped. A generated row keeps
    only the link fields in ``_CARRIED_FIELDS`` that the link row has, and
    adds predicted_sql, generation_error, prompt_kind ("linked" or
    "baseline"), model and, when the backend reported any, the generation
    request's own tokens as generation_token_usage.
    """
    if config.baseline and repo is None:
        raise ValueError("baseline generation needs repo= to render the full schema")
    link_output = Path(link_output)
    rows = _latest_rows(link_output)
    if not rows:
        raise EmptyInputError(f"no rows in {link_output}")
    for question_id, row in rows.items():
        missing = [key for key in _LINKED_FIELDS if key not in row]
        if missing and not row.get("error"):
            raise ParseError(f"{link_output}: row {question_id!r} lacks {', '.join(missing)}")
    if out_path is None:
        out_path = link_output.with_name(link_output.stem + "_generated.jsonl")
    client = client if client is not None else config.build_client()
    kind = "baseline" if config.baseline else "linked"

    def work(row: dict, pending: list[int]) -> list[dict]:
        client.pop_usage()  # drop what anything before this row left behind
        sql, problem = None, "linking failed upstream"
        try:
            if not row.get("error"):
                if config.baseline:
                    schema_text = render_schema(repo.schema(row["db_id"]))
                else:
                    schema_text = row["filtered_schema"]
                request = render_sql_gen_prompt(
                    row["question"],
                    schema_text,
                    join_path_text=None if config.baseline else row["join_path"],
                    evidence=row.get("evidence"),
                    baseline=config.baseline,
                    model_name=config.model,
                    temperature=config.generate_temperature,
                )
                sql = extract_sql_reply(client.complete(request))
                problem = "no SQL found in reply"
            failure = None if sql else {"code": "GENERATION_FAILED", "message": problem}
        except Exception as exc:  # recorded inline; the run continues
            log.warning("generation for %s failed: %s", row["question_id"], exc)
            failure = _error_payload(exc)
        out = {key: row[key] for key in _CARRIED_FIELDS if key in row}
        out.update(
            predicted_sql=sql, generation_error=failure, prompt_kind=kind, model=config.model
        )
        return [_with_usage(out, client, "generation_token_usage")]

    return _run_rows(rows, [Path(out_path)], work, "generation_error", client, config)[0][0]


@dataclass(frozen=True)
class EvaluationReport:
    summary_path: Path
    per_question_path: Path
    summary: dict


def _question_sort_key(question_id: str) -> tuple:
    return (0, int(question_id)) if question_id.isdecimal() else (1, question_id)


def _format_float(value: float) -> str:
    return f"{value:.6f}"


def _set_cell(names) -> str:
    return "|".join(sorted(names, key=str.casefold))


CSV_COLUMNS = [
    "question_id",
    "db_id",
    "difficulty",
    "gold_tables",
    "predicted_tables",
    "precision",
    "recall",
    "f1",
    "f6",
    "exact_match",
    "exec_match",
]


def run_evaluation(
    run_output: str | Path | dict[str, dict],
    questions: Sequence[Question],
    repo: SchemaRepository,
    *,
    check_execution: bool = False,
    report_dir: str | Path,
) -> EvaluationReport:
    """Score a run against gold SQL and write summary.json + per_question.csv.

    ``run_output`` is a run output file or its latest rows by question_id.
    Gold table sets come from extracting table references out of each gold
    query. Questions whose gold SQL cannot be parsed or names a table the
    schema lacks are excluded from the schema aggregates and reported
    separately, as are gold queries that fail to execute when execution
    checking is on. A generated row without SQL is an execution miss.
    Report output is byte-stable for a given run output. Gold table sets
    are kept by ``repo``.
    """
    report_dir = Path(report_dir)
    report_dir.mkdir(parents=True, exist_ok=True)
    rows = run_output if isinstance(run_output, dict) else _latest_rows(Path(run_output))

    extraction_failures: list[dict] = []
    missing_rows: list[str] = []
    scored: list[tuple[Question, frozenset[str], dict]] = []
    for question in sorted(questions, key=lambda q: _question_sort_key(q.question_id)):
        row = rows.get(question.question_id)
        if row is None:
            missing_rows.append(question.question_id)
            continue
        try:
            gold = repo.gold_tables(question)
        except ParseError as exc:
            extraction_failures.append(
                {"question_id": question.question_id, "reason": str(exc)}
            )
            continue
        scored.append((question, gold, row))

    exec_flags: dict[int, bool] = {}
    exec_failures: dict[int, str] = {}
    if check_execution:
        # Grouped by database, so consecutive checks share one connection.
        by_database = sorted(range(len(scored)), key=lambda i: scored[i][0].db_id)
        with ReadOnlyConnections() as connections:
            for i in by_database:
                question, _, row = scored[i]
                if "predicted_sql" not in row:
                    continue  # a link-only output has nothing to execute
                database = repo.database_path(question.db_id)
                if database is None:
                    exec_failures[i] = f"no SQLite database for {question.db_id!r}"
                    continue
                try:
                    exec_flags[i] = execution_match(
                        row["predicted_sql"], question.gold_sql, database, connections=connections
                    )
                except GoldExecutionError as exc:
                    exec_failures[i] = str(exc)
    gold_execution_failures = [
        {"question_id": scored[i][0].question_id, "reason": exec_failures[i]}
        for i in sorted(exec_failures)
    ]
    records: list[EvalRecord] = [
        make_eval_record(
            question.question_id,
            gold_tables,
            row.get("chosen_tables") or [],
            difficulty=question.difficulty,
            db_id=question.db_id,
            exec_match=exec_flags.get(i),
        )
        for i, (question, gold_tables, row) in enumerate(scored)
    ]

    if not records:
        raise EmptyInputError("no evaluable rows; nothing to report")
    summary = aggregate(records)
    summary["rows_evaluated"] = len(records)
    summary["extraction_failures"] = {
        "count": len(extraction_failures),
        "rows": extraction_failures,
    }
    summary["gold_execution_failures"] = {
        "count": len(gold_execution_failures),
        "rows": gold_execution_failures,
    }
    summary["missing_rows"] = {"count": len(missing_rows), "question_ids": missing_rows}

    summary_path = report_dir / "summary.json"
    summary_path.write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    per_question_path = report_dir / "per_question.csv"
    with per_question_path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for record in records:
            writer.writerow(
                [
                    record.question_id,
                    record.db_id,
                    record.difficulty,
                    _set_cell(record.gold_tables),
                    _set_cell(record.predicted_tables),
                    _format_float(record.metrics.precision),
                    _format_float(record.metrics.recall),
                    _format_float(record.metrics.f1),
                    _format_float(record.metrics.f6),
                    "true" if record.metrics.exact_match else "false",
                    "" if record.exec_match is None else str(record.exec_match).lower(),
                ]
            )
    return EvaluationReport(
        summary_path=summary_path, per_question_path=per_question_path, summary=summary
    )


GRID_COLUMNS = ["mode", "label", "count", "exact_match_rate", "precision", "recall", "f1", "f6"]


def run_sweep(
    questions: Sequence[Question],
    base_config: RunConfig,
    repo: SchemaRepository,
    out_dir: str | Path,
    modes: Sequence[str] | None = None,
    client: CachingClient | None = None,
) -> dict:
    """Run linking plus schema-level evaluation for each mode.

    Writes per-mode link outputs and reports under out_dir, then a
    grid.csv/grid.json comparing schema metrics across modes. ``modes``
    defaults to all seven; a mode named twice, aliases included, runs once
    at its first place, and an empty list is a ValueError. Linking makes
    one pass over the questions: the first mode where a question is
    pending makes its source/destination request, and modes keeping the
    same endpoints share its candidate set. Each mode's link file fails,
    resumes and carries token usage on its own, so a mode whose file is
    complete asks nothing. Each mode is scored from the rows in hand, not
    from its link file read back. Shortest paths and gold table sets are kept
    by ``repo``. The result holds each mode's linking RunOutcome under "outcomes".
    """
    names = MODE_PRESETS if modes is None else modes
    mode_names = list(dict.fromkeys(canonical_mode_name(m) for m in names))
    if not mode_names:
        raise ValueError("no modes given")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    client = client if client is not None else base_config.build_client()
    link_paths = [out_dir / f"link_{mode_name}.jsonl" for mode_name in mode_names]
    outcomes, latest = _link_questions(questions, mode_names, base_config, repo, link_paths, client)

    grid_rows = []
    for mode_name, rows in zip(mode_names, latest):
        report = run_evaluation(rows, questions, repo, report_dir=out_dir / mode_name)
        overall = report.summary["overall"]
        scores = {column: overall[column] for column in GRID_COLUMNS[2:]}
        grid_rows.append({"mode": mode_name, "label": MODE_LABELS[mode_name], **scores})

    grid_json = out_dir / "grid.json"
    grid_json.write_text(
        json.dumps(grid_rows, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    grid_csv = out_dir / "grid.csv"
    with grid_csv.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(GRID_COLUMNS)
        for row in grid_rows:
            rates = [_format_float(row[column]) for column in GRID_COLUMNS[3:]]
            writer.writerow([row["mode"], row["label"], row["count"], *rates])
    return {
        "grid_csv": grid_csv,
        "grid_json": grid_json,
        "rows": grid_rows,
        "outcomes": dict(zip(mode_names, outcomes)),
    }
