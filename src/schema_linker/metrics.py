"""Schema-level precision/recall metrics and SQL execution comparison."""

from __future__ import annotations

import os
import sqlite3
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .errors import EmptyGoldError, EmptyInputError, GoldExecutionError


@dataclass(frozen=True)
class SchemaMetrics:
    precision: float
    recall: float
    f1: float
    f6: float
    exact_match: bool


def fbeta_from_counts(overlap: int, n_predicted: int, n_gold: int, beta: float) -> float:
    """F-score from raw set sizes; defined as 0 when both sets are empty."""
    denominator = beta * beta * n_gold + n_predicted
    if denominator == 0:
        return 0.0
    return (1 + beta * beta) * overlap / denominator


def fbeta_from_rates(precision: float, recall: float, beta: float) -> float:
    """F-score from precision and recall; the cross-check formulation."""
    denominator = beta * beta * precision + recall
    if denominator == 0:
        return 0.0
    return (1 + beta * beta) * precision * recall / denominator


def schema_metrics(predicted: Iterable[str], gold: Iterable[str]) -> SchemaMetrics:
    """Compare predicted and gold table sets, case-insensitively.

    Recall weighs much heavier than precision downstream (a missing table
    makes the right query impossible, an extra one is usually survivable),
    hence the F6 alongside F1. An empty prediction scores zero precision by
    convention; an empty gold set is a caller error.
    """
    gold_set = {str(name).casefold() for name in gold}
    if not gold_set:
        raise EmptyGoldError("gold table set is empty")
    predicted_set = {str(name).casefold() for name in predicted}
    overlap = len(predicted_set & gold_set)
    precision = overlap / len(predicted_set) if predicted_set else 0.0
    recall = overlap / len(gold_set)
    return SchemaMetrics(
        precision=precision,
        recall=recall,
        f1=fbeta_from_counts(overlap, len(predicted_set), len(gold_set), 1),
        f6=fbeta_from_counts(overlap, len(predicted_set), len(gold_set), 6),
        exact_match=predicted_set == gold_set,
    )


@dataclass(frozen=True)
class EvalRecord:
    question_id: str
    gold_tables: frozenset[str]
    predicted_tables: frozenset[str]
    metrics: SchemaMetrics
    difficulty: str = "unknown"
    db_id: str = ""
    exec_match: bool | None = None


def make_eval_record(
    question_id: str,
    gold: Iterable[str],
    predicted: Iterable[str],
    *,
    difficulty: str = "unknown",
    db_id: str = "",
    exec_match: bool | None = None,
) -> EvalRecord:
    """Build a record whose stored metrics are recomputable from its sets."""
    gold_set = frozenset(str(name) for name in gold)
    predicted_set = frozenset(str(name) for name in predicted)
    return EvalRecord(
        question_id=str(question_id),
        gold_tables=gold_set,
        predicted_tables=predicted_set,
        metrics=schema_metrics(predicted_set, gold_set),
        difficulty=difficulty,
        db_id=db_id,
        exec_match=exec_match,
    )


def _mean(values: list[float]) -> float:
    return sum(values) / len(values)


def _block(records: list[EvalRecord]) -> dict:
    precision = _mean([r.metrics.precision for r in records])
    recall = _mean([r.metrics.recall for r in records])
    block = {
        "count": len(records),
        "exact_match_rate": _mean([1.0 if r.metrics.exact_match else 0.0 for r in records]),
        "precision": precision,
        "recall": recall,
        "f1": _mean([r.metrics.f1 for r in records]),
        "f6": _mean([r.metrics.f6 for r in records]),
        "f1_from_aggregate": fbeta_from_rates(precision, recall, 1),
        "f6_from_aggregate": fbeta_from_rates(precision, recall, 6),
    }
    executed = [r.exec_match for r in records if r.exec_match is not None]
    if executed:
        block["execution_count"] = len(executed)
        block["execution_accuracy"] = sum(1 for flag in executed if flag) / len(executed)
    return block


def aggregate(records: Iterable[EvalRecord]) -> dict:
    """Macro-averaged summary, overall and per difficulty label.

    Alongside the macro-averaged F scores, each block carries the F scores
    recomputed from the aggregate precision/recall pair; the two disagree
    slightly by construction and both are reported.
    """
    records = list(records)
    if not records:
        raise EmptyInputError("no evaluation records to aggregate")
    by_difficulty: dict[str, list[EvalRecord]] = {}
    for record in records:
        by_difficulty.setdefault(record.difficulty, []).append(record)
    return {
        "overall": _block(records),
        "per_difficulty": {
            label: _block(group) for label, group in sorted(by_difficulty.items())
        },
    }


# Authorizer actions that only read. Anything else (a temporary table, a
# pragma, an attached database, a transaction) may leave state behind on the
# connection that a later question would see.
_READ_ONLY_ACTIONS = frozenset(
    {
        sqlite3.SQLITE_READ,
        sqlite3.SQLITE_SELECT,
        sqlite3.SQLITE_FUNCTION,
        sqlite3.SQLITE_RECURSIVE,
    }
)


class ReadOnlyConnections:
    """Holds at most one read-only connection, to the database used last.

    Reopening a database costs a schema parse on its first statement, so
    consecutive queries on one database share a connection. What belongs
    to a database is paid once per opened connection: the check that its
    file exists, an authorizer, and one progress handler that interrupts a
    statement once the deadline set by ``execute`` has passed. The
    authorizer lets every statement through but marks the connection dirty
    as soon as one does more than read; a dirty connection, or one to
    another database, is closed before the next use. Every caller therefore
    starts on a connection in its freshly opened state.
    """

    def __init__(self) -> None:
        self._database: str | None = None
        self._connection: sqlite3.Connection | None = None
        self._dirty = False
        self._deadline = 0.0

    def connect(self, database: str) -> sqlite3.Connection:
        """A connection to the database file at path ``database``."""
        if self._connection is not None and (self._dirty or database != self._database):
            self.close()
        if self._connection is None:
            if not os.path.isfile(database):
                raise FileNotFoundError(f"no such database file: {database}")
            connection = sqlite3.connect(f"file:{database}?mode=ro", uri=True)
            connection.set_authorizer(self._authorize)
            connection.set_progress_handler(self._past_deadline, 5000)
            self._connection, self._database, self._dirty = connection, database, False
        return self._connection

    def execute(self, connection: sqlite3.Connection, sql: str, timeout_s: float) -> list:
        """The rows of one statement on ``connection``, interrupted after ``timeout_s``."""
        self._deadline = time.monotonic() + timeout_s
        return connection.execute(sql).fetchall()

    def _authorize(self, action: int, *_args) -> int:
        if action not in _READ_ONLY_ACTIONS:
            self._dirty = True
        return sqlite3.SQLITE_OK

    def _past_deadline(self) -> bool:
        return time.monotonic() > self._deadline

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = self._database = None

    def __enter__(self) -> "ReadOnlyConnections":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def execution_match(
    predicted_sql: str | None,
    gold_sql: str,
    database: str | Path,
    *,
    timeout_s: float = 30.0,
    connections: ReadOnlyConnections | None = None,
) -> bool:
    """Do both queries produce the same multiset of rows?

    Row order is ignored. A missing, failing or timed-out predicted query
    scores False; a failing gold query, run first, is an error because it
    invalidates the comparison itself. The database is opened read-only
    through ``connections``, which keeps the connection for the next call
    on the same database; without it, the call opens and closes its own.
    """
    holder = ReadOnlyConnections() if connections is None else connections
    try:
        connection = holder.connect(os.fspath(database))
        try:
            gold_rows = holder.execute(connection, gold_sql, timeout_s)
        except (sqlite3.Error, sqlite3.Warning) as exc:  # Python 3.10 warns on two statements
            raise GoldExecutionError(f"gold SQL failed: {exc}") from exc
        if not predicted_sql:
            return False
        try:
            predicted_rows = holder.execute(connection, predicted_sql, timeout_s)
        except (sqlite3.Error, sqlite3.Warning):
            return False
        # dict equality, not Counter's: counts built from rows are never zero,
        # and Counter.__eq__ compares them in a Python-level generator.
        return dict.__eq__(Counter(gold_rows), Counter(predicted_rows))
    finally:
        if connections is None:
            holder.close()
