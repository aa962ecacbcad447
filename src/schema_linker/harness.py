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
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Sequence, TypeVar

from .errors import EmptyInputError, GoldExecutionError, NoSchemasFoundError, ParseError
from .jsonl import append_rows, read_jsonl
from .llm import (
    DEFAULT_MODEL,
    DEFAULT_TEMPERATURES,
    CacheMode,
    CachingClient,
    EndpointExtraction,
    HttpCompletionClient,
    LlmEndpointOracle,
    LlmPathOracle,
    PromptId,
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
    EndpointOracle,
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
    linker_model: str = DEFAULT_MODEL
    generator_model: str | None = None
    link_temperature: float = DEFAULT_TEMPERATURES[PromptId.SRC_DST]
    generate_temperature: float = DEFAULT_TEMPERATURES[PromptId.SQL_GEN_LINKED]
    cache_path: Path | None = None
    cache_mode: str = "replay"
    baseline: bool = False
    workers: int = 4  # threads for record mode; replay runs on the calling thread

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
    that linking searches on each graph (``SchemaGraph.path_cache``).
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

        A gold query that cannot be parsed raises ParseError on every call.
        """
        key = (question.db_id, question.gold_sql)
        found = self._gold.get(key)
        if found is None:
            tables = extract_tables(question.gold_sql, self.schema(question.db_id)).tables
            found = self._gold.setdefault(key, tables)
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


def _run_rows(
    items: dict[str, Item],
    out_path: Path,
    work: Callable[[Item], dict],
    on_error: Callable[[Item, Exception], dict],
    error_field: str,
    client: CachingClient,
    config: RunConfig,
) -> RunOutcome:
    """Append a row for each item, keyed by question_id, not yet done in out_path.

    An item is done when its latest row has ``error_field`` None. Replay
    runs on the calling thread, since it is pure computation under the
    interpreter lock; record mode runs ``config.workers`` threads. The
    client's cache file is closed on return.
    """
    latest = _latest_rows(out_path)
    done = {question_id for question_id, row in latest.items() if row.get(error_field) is None}
    todo = [item for question_id, item in items.items() if question_id not in done]
    workers = 1 if client.mode is CacheMode.REPLAY else config.workers
    try:
        failed = append_rows(out_path, todo, work, on_error, error_field, workers)
    finally:
        client.cache.close()
    return RunOutcome(
        path=out_path,
        completed=len(todo) - failed,
        skipped=len(items) - len(todo),
        failed=failed,
    )


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
    endpoints = LlmEndpointOracle(client, config.linker_model, config.link_temperature)
    return _link_questions(questions, config, repo, Path(out_path), client, endpoints)


def _link_questions(
    questions: Sequence[Question],
    config: RunConfig,
    repo: SchemaRepository,
    out_path: Path,
    client: CachingClient,
    endpoints: EndpointOracle,
) -> RunOutcome:
    """run_linking, nominating each question's endpoints with ``endpoints``."""
    path_oracle = LlmPathOracle(client, config.linker_model, config.link_temperature)
    mode_name = canonical_mode_name(config.mode)
    mode = preset(mode_name)

    def question_fields(question: Question) -> dict:
        return {
            "question_id": question.question_id,
            "db_id": question.db_id,
            "question": question.text,
            "evidence": question.evidence,
            "difficulty": question.difficulty,
            "mode": mode_name,
        }

    def work(question: Question) -> dict:
        client.pop_usage()  # drop what anything before this row left behind
        schema = repo.schema(question.db_id)
        graph = repo.graph(question.db_id)
        result = link(
            question.text,
            schema,
            graph,
            mode,
            endpoints,
            path_oracle,
            evidence=question.evidence,
        )
        row = {
            **question_fields(question),
            "sources": list(result.sources),
            "destinations": list(result.destinations),
            "paths": [list(path.tables) for path in result.candidates.paths],
            "union_tables": sorted(result.candidates.union_tables, key=str.casefold),
            "chosen_tables": sorted(result.chosen_tables, key=str.casefold),
            "chosen_path_id": result.chosen_path_id,
            "selection_rule": result.selection_rule,
            "degraded": result.degraded,
            "warnings": list(result.warnings),
            "filtered_schema": render_filtered_schema(
                schema, result.chosen_tables, result.induced_fk_edges
            ),
            "join_path": render_join_path(result),
            "error": None,
        }
        return _with_usage(row, client, "token_usage")

    def error_row(question: Question, exc: Exception) -> dict:
        log.warning("question %s failed: %s", question.question_id, exc)
        row = {**question_fields(question), "error": _error_payload(exc)}
        return _with_usage(row, client, "token_usage")

    items = {question.question_id: question for question in questions}
    return _run_rows(items, out_path, work, error_row, "error", client, config)


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


def run_generation(
    link_output: str | Path,
    config: RunConfig,
    client: CachingClient | None = None,
    out_path: str | Path | None = None,
    *,
    repo: SchemaRepository | None = None,
) -> RunOutcome:
    """Generate SQL for every linked row, carrying the link fields forward.

    Renders the join-path prompt from the row's filtered schema, or, when
    config.baseline is set, the baseline prompt from the full schema of the
    row's database in repo. The last link row per question_id is used; one
    without an error that lacks a linked field raises ParseError. Output
    rows that already hold generated SQL are skipped. A row keeps
    the link stage's token_usage and records the generation request's own
    tokens as generation_token_usage.
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
    generator_model = config.generator_model or config.linker_model

    def work(row: dict) -> dict:
        client.pop_usage()  # drop what anything before this row left behind
        sql, problem = None, "linking failed upstream"
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
                model_name=generator_model,
                temperature=config.generate_temperature,
            )
            sql = extract_sql_reply(client.complete(request))
            problem = "no SQL found in reply"
        failure = None if sql else {"code": "GENERATION_FAILED", "message": problem}
        out = {**row, "predicted_sql": sql, "generation_error": failure}
        return _with_usage(out, client, "generation_token_usage")

    def error_row(row: dict, exc: Exception) -> dict:
        log.warning("generation for %s failed: %s", row["question_id"], exc)
        out = {**row, "predicted_sql": None, "generation_error": _error_payload(exc)}
        return _with_usage(out, client, "generation_token_usage")

    return _run_rows(
        rows, Path(out_path), work, error_row, "generation_error", client, config
    )


@dataclass(frozen=True)
class EvaluationReport:
    summary_path: Path
    per_question_path: Path
    summary: dict


def _question_sort_key(question_id: str) -> tuple:
    return (0, int(question_id)) if question_id.isdigit() else (1, question_id)


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
    run_output: str | Path,
    questions: Sequence[Question],
    repo: SchemaRepository,
    *,
    check_execution: bool = False,
    report_dir: str | Path,
) -> EvaluationReport:
    """Score a run against gold SQL and write summary.json + per_question.csv.

    Gold table sets come from extracting table references out of each gold
    query. Questions whose gold SQL cannot be parsed are excluded from the
    schema aggregates and reported separately, as are gold queries that fail
    to execute when execution checking is on. A generated row without SQL
    is an execution miss. Report output is byte-stable for a given run
    output. Gold table sets are kept by ``repo``.
    """
    report_dir = Path(report_dir)
    report_dir.mkdir(parents=True, exist_ok=True)
    rows = _latest_rows(Path(run_output))

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
    at its first place, and an empty list is a ValueError. Each question's
    source/destination request is shared by all modes of this call; the
    first mode that links a question makes the request, so a mode whose
    link file is complete asks nothing. Shortest paths and gold table sets
    are kept by ``repo``.
    The result holds each mode's linking RunOutcome under "outcomes".
    """
    names = MODE_PRESETS if modes is None else modes
    mode_names = list(dict.fromkeys(canonical_mode_name(m) for m in names))
    if not mode_names:
        raise ValueError("no modes given")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    client = client if client is not None else base_config.build_client()
    oracle = LlmEndpointOracle(client, base_config.linker_model, base_config.link_temperature)
    extractions: dict[tuple[str, str, str | None], EndpointExtraction] = {}

    def endpoints(question: str, schema: Schema, evidence: str | None) -> EndpointExtraction:
        key = (question, schema.database_id, evidence)
        found = extractions.get(key)
        if found is None:
            # Record-mode threads may race here; the first equal value wins.
            found = extractions.setdefault(key, oracle(question, schema, evidence))
        return found

    grid_rows = []
    outcomes: dict[str, RunOutcome] = {}
    for mode_name in mode_names:
        config = replace(base_config, mode=mode_name)
        link_path = out_dir / f"link_{mode_name}.jsonl"
        outcomes[mode_name] = _link_questions(
            questions, config, repo, link_path, client, endpoints
        )
        report = run_evaluation(link_path, questions, repo, report_dir=out_dir / mode_name)
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
        "outcomes": outcomes,
    }
