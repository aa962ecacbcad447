import random
import sqlite3

import pytest

from schema_linker.errors import EmptyGoldError, EmptyInputError, GoldExecutionError
from schema_linker.metrics import (
    aggregate,
    execution_match,
    fbeta_from_counts,
    fbeta_from_rates,
    make_eval_record,
    schema_metrics,
)
from schema_linker.metrics import ReadOnlyConnections


class TestFbeta:
    def test_known_values(self):
        # P = {a}, G = {a, b}: precision 1, recall 1/2
        assert fbeta_from_counts(1, 1, 2, 1) == pytest.approx(2 / 3, abs=1e-12)
        assert fbeta_from_counts(1, 1, 2, 6) == pytest.approx(37 / 73, abs=1e-12)
        assert fbeta_from_counts(2, 2, 2, 1) == 1.0
        assert fbeta_from_counts(0, 3, 2, 1) == 0.0

    def test_zero_denominator_is_zero(self):
        assert fbeta_from_counts(0, 0, 0, 1) == 0.0
        assert fbeta_from_rates(0.0, 0.0, 6) == 0.0

    def test_count_and_rate_forms_agree(self):
        rng = random.Random(7)
        for _ in range(1000):
            n_gold = rng.randint(1, 12)
            n_pred = rng.randint(0, 12)
            overlap = rng.randint(0, min(n_gold, n_pred))
            precision = overlap / n_pred if n_pred else 0.0
            recall = overlap / n_gold
            for beta in (1, 6):
                assert fbeta_from_counts(
                    overlap, n_pred, n_gold, beta
                ) == pytest.approx(
                    fbeta_from_rates(precision, recall, beta), abs=1e-12
                )

    def test_f6_weighs_recall(self):
        # same F1, very different F6 depending on which side is weak
        high_recall = fbeta_from_rates(0.5, 1.0, 6)
        high_precision = fbeta_from_rates(1.0, 0.5, 6)
        assert high_recall > 0.9
        assert high_precision < 0.6
        assert fbeta_from_rates(0.5, 1.0, 1) == fbeta_from_rates(1.0, 0.5, 1)


class TestSchemaMetrics:
    def test_perfect_prediction(self):
        metrics = schema_metrics({"a", "b"}, {"a", "b"})
        assert metrics.precision == 1.0
        assert metrics.recall == 1.0
        assert metrics.f1 == 1.0
        assert metrics.f6 == 1.0
        assert metrics.exact_match

    def test_partial_overlap(self):
        metrics = schema_metrics({"a", "b", "c"}, {"b", "c", "d", "e"})
        assert metrics.precision == pytest.approx(2 / 3)
        assert metrics.recall == pytest.approx(1 / 2)
        assert metrics.f1 == pytest.approx(4 / 7)
        assert not metrics.exact_match

    def test_comparison_is_case_insensitive(self):
        metrics = schema_metrics({"Customers"}, {"CUSTOMERS"})
        assert metrics.exact_match
        assert metrics.recall == 1.0

    def test_empty_prediction_scores_zero_precision(self):
        metrics = schema_metrics(set(), {"a"})
        assert metrics.precision == 0.0
        assert metrics.recall == 0.0
        assert metrics.f1 == 0.0
        assert not metrics.exact_match

    def test_empty_gold_rejected(self):
        with pytest.raises(EmptyGoldError):
            schema_metrics({"a"}, set())

    def test_superset_prediction_keeps_full_recall(self):
        metrics = schema_metrics({"a", "b", "c"}, {"a", "b"})
        assert metrics.recall == 1.0
        assert metrics.precision == pytest.approx(2 / 3)
        assert not metrics.exact_match


class TestAggregate:
    def records(self):
        return [
            make_eval_record("1", ["a", "b"], ["a"], difficulty="simple"),
            make_eval_record("2", ["a"], ["a", "b"], difficulty="moderate"),
        ]

    def test_macro_averages(self):
        summary = aggregate(self.records())
        overall = summary["overall"]
        assert overall["count"] == 2
        assert overall["precision"] == pytest.approx(0.75)
        assert overall["recall"] == pytest.approx(0.75)
        assert overall["f1"] == pytest.approx(2 / 3)
        assert overall["exact_match_rate"] == 0.0

    def test_aggregate_f_is_reported_separately(self):
        overall = aggregate(self.records())["overall"]
        assert overall["f1_from_aggregate"] == pytest.approx(0.75)
        assert overall["f1"] != overall["f1_from_aggregate"]
        assert overall["f6_from_aggregate"] == pytest.approx(
            fbeta_from_rates(0.75, 0.75, 6)
        )

    def test_per_difficulty_split(self):
        summary = aggregate(self.records())
        assert sorted(summary["per_difficulty"]) == ["moderate", "simple"]
        assert summary["per_difficulty"]["simple"]["count"] == 1
        assert summary["per_difficulty"]["simple"]["recall"] == pytest.approx(0.5)

    def test_execution_block_only_when_present(self):
        plain = aggregate(self.records())["overall"]
        assert "execution_accuracy" not in plain
        with_exec = aggregate(
            [
                make_eval_record("1", ["a"], ["a"], exec_match=True),
                make_eval_record("2", ["a"], ["a"], exec_match=False),
                make_eval_record("3", ["a"], ["a"], exec_match=None),
            ]
        )["overall"]
        assert with_exec["execution_count"] == 2
        assert with_exec["execution_accuracy"] == 0.5

    def test_empty_input_rejected(self):
        with pytest.raises(EmptyInputError):
            aggregate([])

    def test_exact_match_rate(self):
        summary = aggregate(
            [
                make_eval_record("1", ["a"], ["a"]),
                make_eval_record("2", ["a"], ["b"]),
            ]
        )
        assert summary["overall"]["exact_match_rate"] == 0.5


@pytest.fixture(scope="module")
def toy_db(tmp_path_factory):
    path = tmp_path_factory.mktemp("exec") / "toy.sqlite"
    con = sqlite3.connect(path)
    con.executescript(
        """
        CREATE TABLE t (x INTEGER, y TEXT);
        INSERT INTO t VALUES (1, 'a'), (2, 'b'), (2, 'b'), (3, 'c');
        """
    )
    con.commit()
    con.close()
    return path


class TestExecutionMatch:
    def test_identical_queries_match(self, toy_db):
        assert execution_match("SELECT * FROM t", "SELECT * FROM t", toy_db)

    def test_row_order_ignored(self, toy_db):
        assert execution_match(
            "SELECT x, y FROM t ORDER BY x DESC",
            "SELECT x, y FROM t ORDER BY x ASC",
            toy_db,
        )

    def test_duplicate_rows_counted(self, toy_db):
        # DISTINCT collapses the duplicated (2, 'b') row, so multisets differ
        assert not execution_match(
            "SELECT DISTINCT x, y FROM t", "SELECT x, y FROM t", toy_db
        )

    def test_column_order_matters(self, toy_db):
        assert not execution_match(
            "SELECT y, x FROM t", "SELECT x, y FROM t", toy_db
        )

    def test_different_results_mismatch(self, toy_db):
        assert not execution_match(
            "SELECT x FROM t WHERE x > 1", "SELECT x FROM t", toy_db
        )

    def test_failing_predicted_query_scores_false(self, toy_db):
        assert not execution_match("SELECT nope FROM t", "SELECT x FROM t", toy_db)

    def test_failing_gold_query_is_an_error(self, toy_db):
        with pytest.raises(GoldExecutionError):
            execution_match("SELECT x FROM t", "SELECT nope FROM t", toy_db)

    def test_missing_database(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            execution_match("SELECT 1", "SELECT 1", tmp_path / "absent.sqlite")

    def test_writes_blocked_by_read_only_connection(self, toy_db):
        # a destructive predicted query must not alter the database
        assert not execution_match("DELETE FROM t", "SELECT x FROM t", toy_db)
        assert execution_match(
            "SELECT COUNT(*) FROM t", "SELECT 4 AS n", toy_db
        )

    def test_predicted_timeout_scores_false(self, toy_db):
        bomb = (
            "WITH RECURSIVE r(n) AS "
            "(SELECT 1 UNION ALL SELECT n + 1 FROM r) "
            "SELECT MAX(n) FROM r"
        )
        assert not execution_match(bomb, "SELECT 1", toy_db, timeout_s=0.05)

    def test_gold_timeout_is_an_error(self, toy_db):
        bomb = (
            "WITH RECURSIVE r(n) AS "
            "(SELECT 1 UNION ALL SELECT n + 1 FROM r) "
            "SELECT MAX(n) FROM r"
        )
        with pytest.raises(GoldExecutionError):
            execution_match("SELECT 1", bomb, toy_db, timeout_s=0.05)

    def test_two_statements_score_false(self, toy_db):
        assert not execution_match("SELECT x FROM t; SELECT 2", "SELECT x FROM t", toy_db)

    def test_predicted_sql_refused_with_a_warning_scores_false(self, toy_db):
        two = "SELECT x FROM t; SELECT 2"
        with WarningConnections(two) as connections:
            assert not execution_match(two, "SELECT x FROM t", toy_db, connections=connections)
            one = "SELECT x FROM t"
            assert execution_match(one, one, toy_db, connections=connections)

    def test_gold_sql_refused_with_a_warning_is_an_error(self, toy_db):
        two = "SELECT x FROM t; SELECT 2"
        with WarningConnections(two) as connections:
            with pytest.raises(GoldExecutionError, match="one statement"):
                execution_match("SELECT x FROM t", two, toy_db, connections=connections)


class RefusingConnection:
    """A connection whose execute refuses one SQL text with sqlite3.Warning."""

    def __init__(self, connection: sqlite3.Connection, refused: str):
        self._connection = connection
        self._refused = refused

    def __getattr__(self, name):
        return getattr(self._connection, name)

    def execute(self, sql: str):
        if sql == self._refused:
            raise sqlite3.Warning("You can only execute one statement at a time.")
        return self._connection.execute(sql)


class WarningConnections(ReadOnlyConnections):
    """Connections that refuse ``refused`` as Python 3.10's sqlite3 refuses two statements.

    On 3.10 that refusal is ``sqlite3.Warning``, which is not an
    ``sqlite3.Error``; later versions raise ``ProgrammingError`` instead.
    """

    def __init__(self, refused: str):
        super().__init__()
        self._refused = refused

    def connect(self, database):
        return RefusingConnection(super().connect(database), self._refused)


class TestReadOnlyConnections:
    # Each case: a predicted statement that leaves state on the connection,
    # then a pair whose result that state would change.
    LEAKS = [
        ("CREATE TEMP TABLE t AS SELECT 99 AS x", ("SELECT 4", "SELECT COUNT(*) FROM t")),
        (
            "PRAGMA case_sensitive_like=1",
            ("SELECT 3", "SELECT COUNT(*) FROM t WHERE y LIKE 'B' OR y LIKE 'C'"),
        ),
    ]

    @pytest.mark.parametrize("leak, follow_up", LEAKS)
    def test_state_left_by_one_question_does_not_reach_the_next(
        self, toy_db, leak, follow_up
    ):
        fresh = execution_match(*follow_up, toy_db)
        assert fresh
        with ReadOnlyConnections() as connections:
            execution_match(leak, "SELECT x FROM t", toy_db, connections=connections)
            assert execution_match(*follow_up, toy_db, connections=connections) == fresh

    def test_reads_share_one_connection(self, toy_db, sqlite_connections):
        with ReadOnlyConnections() as connections:
            for _ in range(3):
                assert execution_match(
                    "SELECT x FROM t", "SELECT x FROM t", toy_db, connections=connections
                )
            assert not execution_match(
                "SELECT nope FROM t", "SELECT x FROM t", toy_db, connections=connections
            )
        assert len(sqlite_connections.opened) == 1
        assert sqlite_connections.open == 0

    def test_dirty_connection_is_reopened(self, toy_db, sqlite_connections):
        with ReadOnlyConnections() as connections:
            execution_match("DELETE FROM t", "SELECT x FROM t", toy_db, connections=connections)
            assert execution_match(
                "SELECT COUNT(*) FROM t", "SELECT 4", toy_db, connections=connections
            )
        assert len(sqlite_connections.opened) == 2
        assert sqlite_connections.peak == 1

    def test_another_database_closes_the_last(self, toy_db, tmp_path, sqlite_connections):
        other = tmp_path / "other.sqlite"
        con = sqlite3.connect(other)
        con.execute("CREATE TABLE t (x INTEGER)")
        con.close()
        sqlite_connections.opened.clear()
        with ReadOnlyConnections() as connections:
            for database in (toy_db, other, toy_db):
                execution_match("SELECT 1", "SELECT 1", database, connections=connections)
        assert sqlite_connections.opened == [
            f"file:{database}?mode=ro" for database in (toy_db, other, toy_db)
        ]
        assert sqlite_connections.peak == 1
        assert sqlite_connections.open == 0

    def test_without_a_holder_each_call_closes_its_connection(
        self, toy_db, sqlite_connections
    ):
        execution_match("SELECT x FROM t", "SELECT x FROM t", toy_db)
        execution_match("SELECT x FROM t", "SELECT x FROM t", toy_db)
        assert len(sqlite_connections.opened) == 2
        assert sqlite_connections.open == 0
