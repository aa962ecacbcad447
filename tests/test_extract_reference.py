"""The compiler-backed extractor against the hand-written reference scanner.

Both must give the same table set and the same unresolved names on the toy
corpus and on the benchmark corpora. The two define their own
``TableReferenceSet`` classes, so fields are compared.

Seeded random queries are checked against the labels their generator
keeps, because the reference misreads three of the shapes it builds: a
FROM clause after a subquery with no WHERE, a CTE body that ends in an
alias, and an unused CTE. ``sql_fixture_queries`` pins each of them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import pytest

from schema_linker import SchemaRepository, ingest_dataset
from schema_linker.schema_model import ColumnDef, Schema, TableDef
from schema_linker.sql_analysis import extract_tables

from golden_outputs import _load_benchmark_modules
from reference_extract import reference_extract
from toy_corpus import CORPUS


def fields(refs) -> tuple[frozenset[str], tuple[str, ...]]:
    return frozenset(refs.tables), refs.unresolved


def test_toy_corpus(retail_schema):
    for row in CORPUS:
        sql = row["SQL"]
        assert fields(extract_tables(sql, retail_schema)) == fields(
            reference_extract(sql, retail_schema)
        ), sql


@pytest.mark.parametrize("seed", [4242, 9001])
@pytest.mark.parametrize("workload", ["wide-replay", "sweep-small"])
def test_benchmark_corpora(tmp_path, workload, seed):
    # record-cold uses the sweep-small corpus, so it adds no queries.
    benchmark = _load_benchmark_modules()
    spec = benchmark["workloads"].WORKLOADS[workload].corpus
    dataset, schema_root, _ = benchmark["corpus"].generate(spec, seed, tmp_path)
    questions, _ = ingest_dataset(dataset, schema_root, require_gold_sql=True)
    repo = SchemaRepository(schema_root)
    assert questions
    for question in questions:
        schema = repo.schema(question.db_id)
        sql = question.gold_sql
        assert fields(extract_tables(sql, schema)) == fields(
            reference_extract(sql, schema)
        ), sql


def _columns(*names: str) -> tuple[ColumnDef, ...]:
    return tuple(ColumnDef(name) for name in names)


# Every table has an "id" column, so any join condition on ids compiles.
RANDOM_SCHEMA = Schema(
    database_id="random",
    tables=(
        TableDef("customers", _columns("id", "name", "city")),
        TableDef("orders", _columns("id", "customer_id", "total")),
        TableDef("Line Items", _columns("id", "order_id", "qty")),
        TableDef("Café", _columns("id", "name")),
        TableDef("reviews", _columns("id", "order_id", "note")),
    ),
)
MISSING_TABLES = ("shipments", "Ghost Rows")


@dataclass
class Reads:
    """What part of a generated statement reads, by the generator's own account."""

    tables: set[str] = field(default_factory=set)  # schema names
    missing: set[str] = field(default_factory=set)  # casefolded
    ctes: set[str] = field(default_factory=set)


class QueryBuilder:
    """Seeded random SELECT statements over ``RANDOM_SCHEMA``, with their labels.

    Table names appear bare, quoted, bracketed or backticked, in mixed
    case, with or without ``main.`` and an alias. ``Café`` is always
    quoted, since the reference tokenizer reads only ASCII words, and is
    sometimes written ``CAFÉ``, which SQLite does not fold to ``Café``.
    Only the CTEs a statement reaches count: SQLite never compiles the rest.
    """

    JOINS = (
        "JOIN",
        "INNER JOIN",
        "LEFT JOIN",
        "LEFT OUTER JOIN",
        "RIGHT JOIN",
        "FULL OUTER JOIN",
        "CROSS JOIN",
        ",",
    )

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.aliases = 0
        self.reads = Reads()

    def alias(self) -> str:
        self.aliases += 1
        return f"t{self.aliases}"

    def mixed_case(self, name: str) -> str:
        if name == "Café":
            return self.rng.choice(["Café", "CAFÉ", "café"])
        return "".join(ch.upper() if self.rng.random() < 0.3 else ch for ch in name)

    def table_name(self, ctes: list[str]) -> tuple[str, bool]:
        """A table reference and whether it names a missing table."""
        rng = self.rng
        if ctes and rng.random() < 0.3:
            name = rng.choice(ctes)
            self.reads.ctes.add(name)
            return name, False
        missing = rng.random() < 0.05
        name = rng.choice(MISSING_TABLES if missing else RANDOM_SCHEMA.table_names)
        if missing:
            self.reads.missing.add(name.casefold())
        else:
            self.reads.tables.add(name)
        name = self.mixed_case(name)
        if " " in name or not name.isascii():
            style = rng.choice(['"{}"', "[{}]", "`{}`"])
        else:
            style = rng.choice(["{}", "{}", '"{}"', "[{}]", "`{}`"])
        text = style.format(name)
        return (f"main.{text}" if rng.random() < 0.1 else text), missing

    def source(self, depth: int, ctes: list[str], first: bool) -> tuple[str, str | None, bool]:
        """One FROM item, the alias that names its ``id``, and whether it is missing.

        Only the first item of a FROM clause may go without an alias, so
        a table that appears twice is never ambiguous.
        """
        rng = self.rng
        if depth < 2 and rng.random() < 0.15:
            alias = self.alias()
            return f"({self.select(depth + 1, ctes, '1 AS id')}) AS {alias}", alias, False
        name, missing = self.table_name(ctes)
        if name in ctes or not first or rng.random() < 0.5:
            alias = self.alias()
            return f"{name}{rng.choice([' AS ', ' '])}{alias}", alias, missing
        return name, None, missing

    def from_clause(self, depth: int, ctes: list[str]) -> str:
        rng = self.rng
        text, left, left_missing = self.source(depth, ctes, first=True)
        for i in range(rng.randint(0, 2)):
            item, right, right_missing = self.source(depth, ctes, first=False)
            # USING and NATURAL match columns of every table to their left,
            # so they only join the first two items, and a clause ends there.
            join = rng.choice(self.JOINS + (("NATURAL JOIN", "USING") if i == 0 else ()))
            if join == "USING" and left_missing and right_missing:
                join = "JOIN"  # see test_using_between_two_missing_tables
            if join == "USING":
                text += f" {rng.choice(['JOIN', 'LEFT JOIN'])} {item} USING (id)"
                break
            if join == "NATURAL JOIN":
                text += f" NATURAL JOIN {item}"
                break
            if join == ",":
                text += f", {item}"
            elif join == "CROSS JOIN":
                text += f" CROSS JOIN {item}"
            elif left and right and rng.random() < 0.7:
                text += f" {join} {item} ON {left}.id = {right}.id"
            else:
                text += f" {join} {item} ON 1 = 1"
            left, left_missing = right, right_missing
        if depth < 2 and rng.random() < 0.3 and "," not in text and "JOIN" in text:
            text = f"({text})"
        return text

    def where_clause(self, depth: int, ctes: list[str]) -> str:
        rng = self.rng
        choice = rng.randrange(6 if depth < 2 else 4)
        if choice >= 4:
            inner = self.select(depth + 1, ctes, "1")
            return f" WHERE EXISTS ({inner})" if choice == 4 else f" WHERE 1 IN ({inner})"
        return [
            "",
            " WHERE 'shipped from orders' <> ''",
            " /* FROM reviews */",
            " -- from customers\n",
        ][choice]

    def select(self, depth: int, ctes: list[str], column: str) -> str:
        rng = self.rng
        text = (
            f"{rng.choice(['SELECT', 'select', 'Select'])} {column} "
            f"{rng.choice(['FROM', 'from', 'From'])} {self.from_clause(depth, ctes)}"
            f"{self.where_clause(depth, ctes)}"
        )
        if column != "*" and depth < 2 and rng.random() < 0.15:
            text += f" UNION SELECT {column} FROM {self.from_clause(depth, ctes)}"
        return text

    def statement(self) -> tuple[str, frozenset[str], frozenset[str]]:
        """A statement, the schema tables it reads and the missing ones, casefolded."""
        rng = self.rng
        ctes: list[str] = []
        bodies: dict[str, Reads] = {}
        head = ""
        if rng.random() < 0.3:
            parts = []
            if rng.random() < 0.4:
                parts.append(
                    "seq(id) AS (SELECT 1 UNION ALL SELECT id + 1 FROM seq WHERE id < 3)"
                )
                ctes.append("seq")
                bodies["seq"] = Reads()
            for i in range(rng.randint(1, 2)):
                self.reads = bodies[f"cte_{i}"] = Reads()
                parts.append(f"cte_{i} AS ({self.select(1, list(ctes), '1 AS id')})")
                ctes.append(f"cte_{i}")
            recursive = "RECURSIVE " if "seq" in ctes else ""
            head = f"WITH {recursive}{', '.join(parts)} "
        self.reads = main = Reads()
        column = rng.choice(["*", "1", "COUNT(*)", "subquery"])
        if column == "subquery":
            column = f"(SELECT COUNT(*) FROM {self.table_name([])[0]})"
        text = head + self.select(0, ctes, column)
        tables, missing = set(main.tables), set(main.missing)
        pending, reached = list(main.ctes), set()
        while pending:
            name = pending.pop()
            if name not in reached:
                reached.add(name)
                tables |= bodies[name].tables
                missing |= bodies[name].missing
                pending.extend(bodies[name].ctes)
        return text, frozenset(tables), frozenset(missing)


def labels(refs) -> tuple[frozenset[str], frozenset[str]]:
    unresolved = frozenset(name.casefold() for name in refs.unresolved)
    assert len(unresolved) == len(refs.unresolved)
    return frozenset(refs.tables), unresolved


def test_seeded_random_queries():
    builder = QueryBuilder(seed=20260)
    queries = [builder.statement() for _ in range(400)]
    reference_right = 0
    for sql, tables, missing in queries:
        assert labels(extract_tables(sql, RANDOM_SCHEMA)) == (tables, missing), sql
        reference_right += labels(reference_extract(sql, RANDOM_SCHEMA)) == (tables, missing)
    # Outside the shapes the module docstring names, the reference agrees.
    assert reference_right >= len(queries) // 2
    # The generator reaches every case it was written for.
    text = "\n".join(sql for sql, _, _ in queries)
    for needle in (
        "RECURSIVE", "UNION", "EXISTS", "USING", "NATURAL", "RIGHT", "FULL",
        "CAFÉ", "[", "`", "main.", "shipments",
    ):
        assert needle in text, needle


def test_non_ascii_name_in_another_case():
    refs = extract_tables('SELECT * FROM "CAFÉ" JOIN orders ON 1 = 1', RANDOM_SCHEMA)
    assert fields(refs) == (frozenset({"Café", "orders"}), ())


def test_using_between_two_missing_tables():
    # Neither stub alone lets compilation go on, so the one tried first keeps the column.
    refs = extract_tables("SELECT 1 FROM shipments JOIN returns USING (id)", RANDOM_SCHEMA)
    assert fields(refs) == (frozenset(), ("shipments", "returns"))
    refs = extract_tables("SELECT 1 FROM orders JOIN shipments USING (id)", RANDOM_SCHEMA)
    assert fields(refs) == (frozenset({"orders"}), ("shipments",))
