"""SQL table-reference extraction and prompt-facing text rendering.

Table sets come from SQLite's own compiler, which ``extract_tables`` asks
to compile, never to run, each query against the schema's tables.
"""

from __future__ import annotations

import re
import sqlite3
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from .errors import ParseError, UnknownTableError
from .schema_model import ForeignKeyEdge, Schema, TableDef, join_condition, quote_identifier

if TYPE_CHECKING:
    from .pathfinder import LinkResult
    from .schema_model import ColumnDef


@dataclass(frozen=True)
class TableReferenceSet:
    """Tables a query reads from, in the schema's canonical casing."""

    tables: frozenset[str]
    unresolved: tuple[str, ...] = ()


# Skips strings, comments and quoted names; group 1 is a keyword outside them.
_KEYWORD_RE = re.compile(
    r"""'(?:[^']|'')*'|"(?:[^"]|"")*"|`(?:[^`]|``)*`|\[[^\]]*\]|--[^\n]*|/\*.*?\*/"""
    r"""|\b(FROM|USING|NATURAL)\b""",
    re.DOTALL | re.IGNORECASE,
)
# SQLite's messages for a table, or a column, that nothing in scope has.
_MISSING_RE = re.compile(
    r"no such table: (?i:main\.)?(?P<table>.+)|no such column: (?:.*\.)?(.+)"
    r"|cannot join using column (.+) - column not present in both tables"
)
_PLAIN_IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def create_table(name: str, columns: Iterable[ColumnDef]) -> str:
    """DDL for the compile database, which needs a column in every table."""
    names = ", ".join(quote_identifier(col.name) for col in columns) or "_"
    return f"CREATE TABLE {quote_identifier(name)} ({names});"


def extract_tables(sql: str, schema: Schema) -> TableReferenceSet:
    """Extract the set of schema tables a query reads from.

    SQLite compiles ``EXPLAIN <sql>`` in ``schema.compile_database`` and
    reports each table the statement reads to an authorizer. A missing
    table gets a stub and is reported as unresolved; a missing column is
    added to the first table, newest first, that lets compilation go on,
    and kept on every stub tried before it, whose columns are unknown. All
    of these are rolled back. Raises ParseError when the text has no FROM
    clause, or with SQLite's message when it does not compile otherwise.
    """
    keywords = {match.group(1).upper() for match in _KEYWORD_RE.finditer(sql) if match.group(1)}
    if "FROM" not in keywords:
        raise ParseError("no FROM clause found in query text")
    calls: list[tuple[int, str | None, str | None, str | None, str | None]] = []
    stubs: dict[str, str] = {}

    def explain() -> sqlite3.Cursor | str:
        calls.clear()
        try:
            return connection.execute("EXPLAIN " + sql)
        except (sqlite3.Error, sqlite3.Warning) as exc:  # Python 3.10 warns on two statements
            return str(exc)

    def add_column(column: str, message: str) -> sqlite3.Cursor | str:
        tables = connection.execute("SELECT name FROM sqlite_master ORDER BY rowid DESC").fetchall()
        column = quote_identifier(column)
        connection.execute("SAVEPOINT probe")
        for (table,) in tables:
            try:
                connection.execute(f"ALTER TABLE {quote_identifier(table)} ADD COLUMN {column}")
                result = explain()
            except sqlite3.OperationalError:  # the table has such a column already
                continue
            if result != message:
                return result
            if table in stubs.values():  # a USING join of two stubs needs the column in both
                connection.execute("SAVEPOINT probe")
            else:
                connection.execute("ROLLBACK TO probe")
        raise ParseError(message)

    connection, lock = schema.compile_database
    with lock:
        connection.set_authorizer(lambda *call: calls.append(call) or sqlite3.SQLITE_OK)
        connection.execute("BEGIN")
        try:
            result = explain()
            while isinstance(result, str):
                missing = _MISSING_RE.fullmatch(result)
                if not missing:
                    raise ParseError(result)
                if not missing["table"]:
                    result = add_column(missing[missing.lastindex], result)
                    continue
                name = missing["table"]
                known = schema.table(name)  # SQLite folds ASCII case only
                connection.execute(create_table(name, known.columns if known else ()))
                stubs.setdefault(name.casefold(), name)
                result = explain()
            # A read without a column, as in COUNT(*), has no database unless
            # the name is qualified, and neither has one of a CTE; SQLite
            # compiles a CTE's body with the CTE's name as the source.
            ctes = {source.casefold() for *_, source in calls if source}
            reads = [(t, db) for action, t, _, db, _ in calls if action == sqlite3.SQLITE_READ]
            dropped = [t for t, db in reads if db is None and t.casefold() in ctes]
            names = [t for t, db in reads if db == "main" or db is None and t not in dropped]
            if any(schema.table(t) for t in dropped) or keywords & {"USING", "NATURAL"}:
                # A dropped read may be of a schema table that a CTE shadows in
                # another scope, and the columns a USING or NATURAL join matches
                # on reach no authorizer. Such tables show only as B-trees opened.
                pages = ", ".join(str(row[3]) for row in result if row[1] == "OpenRead")
                opened = f"SELECT name FROM sqlite_master WHERE rootpage IN ({pages})"
                names.extend(name for (name,) in connection.execute(opened))
        except sqlite3.Error as exc:  # as when a stub does not clear the message
            raise ParseError(str(exc)) from exc
        finally:
            connection.execute("ROLLBACK")

    tables = {schema.resolve_table(name) for name in (*names, *stubs.values())}
    unresolved = tuple(name for name in stubs.values() if schema.resolve_table(name) is None)
    return TableReferenceSet(tables=frozenset(tables - {None}), unresolved=unresolved)


def _quote_ident(name: str) -> str:
    return name if _PLAIN_IDENT_RE.match(name) else quote_identifier(name)


def table_ddl(table: TableDef) -> tuple[str, str]:
    """A table's "CREATE TABLE name (" line and its column lines, for ``Schema.ddl``."""
    lines: list[str] = []
    for col in table.columns:
        entry = f"    {_quote_ident(col.name)}"
        if col.declared_type:
            entry += f" {col.declared_type}"
        if col.is_primary_key:
            entry += " PRIMARY KEY"
        lines.append(entry)
    return f"CREATE TABLE {_quote_ident(table.name)} (\n", ",\n".join(lines)


def foreign_key_ddl(fk: ForeignKeyEdge) -> str:
    """The key's line in its source table's block."""
    return (
        f"    FOREIGN KEY ({_quote_ident(fk.from_column)}) "
        f"REFERENCES {_quote_ident(fk.to_table)}({_quote_ident(fk.to_column)})"
    )


def render_filtered_schema(
    schema: Schema,
    chosen_tables: Iterable[str],
    induced_fk_edges: Iterable[ForeignKeyEdge],
) -> str:
    """Render the chosen tables as compact DDL-like text for prompts.

    Tables appear in case-insensitive name order; each block lists columns
    in schema order and then, in their given order, the induced foreign
    keys whose source is that table and whose target is chosen. Rendering
    the full table set with all declared keys reproduces the whole-schema
    serialization byte for byte. Keys outside ``schema.ddl`` are formatted here.
    """
    tables, key_lines = schema.ddl
    chosen: set[str] = set()
    for name in chosen_tables:
        key = name.casefold()
        if key not in tables:
            raise UnknownTableError(f"unknown table {name!r}")
        chosen.add(key)

    fk_lines: dict[str, list[str]] = {}
    for fk in induced_fk_edges:
        if fk.to_table.casefold() in chosen:
            line = key_lines.get(fk) or foreign_key_ddl(fk)
            fk_lines.setdefault(fk.from_table.casefold(), []).append(line)

    blocks: list[str] = []
    for key in sorted(chosen):
        header, columns = tables[key]
        body = ",\n".join(filter(None, (columns, *fk_lines.get(key, ()))))
        blocks.append(f"{header}{body}\n);")
    return "\n\n".join(blocks)


def render_schema(schema: Schema) -> str:
    """Whole-schema serialization used by src/dst and baseline prompts.

    The text is rendered once per ``Schema`` object and memoised on it.
    """
    return schema.rendered


def render_join_path(result: "LinkResult") -> str:
    """Describe the chosen tables and how they join, for a generation prompt.

    A concrete path renders as "A -> B (A.x = B.y)", with the path's own join
    conditions; a union selection renders the sorted table list and one line per
    induced join condition; a lone table is marked as needing no joins.
    """
    path = result.chosen_path()
    if path is not None:
        if path.length == 0:
            return f"{path.tables[0]} (no joins required)"
        arrow = " -> ".join(path.tables)
        conditions = dict.fromkeys(path.conditions)
        if conditions:
            return f"{arrow} ({', '.join(conditions)})"
        return arrow

    tables = sorted(result.chosen_tables, key=str.casefold)
    if len(tables) == 1:
        return f"{tables[0]} (no joins required)"
    lines = [", ".join(tables)]
    all_edges = (*result.induced_fk_edges, *result.augmented_join_edges)
    conditions = list(dict.fromkeys(join_condition(fk) for fk in all_edges))
    if conditions:
        lines.append("joins:")
        lines.extend(conditions)
    return "\n".join(lines)
