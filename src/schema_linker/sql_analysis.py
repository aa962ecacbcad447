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
    from .pathfinder import JoinPath
    from .schema_model import ColumnDef, SchemaGraph


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


def _chosen_keys(schema: Schema, chosen_tables: Iterable[str]) -> set[str]:
    """The chosen tables' casefolded names; UnknownTableError for one the schema lacks."""
    tables = schema.ddl
    chosen: set[str] = set()
    for name in chosen_tables:
        key = name.casefold()
        if key not in tables:
            raise UnknownTableError(f"unknown table {name!r}")
        chosen.add(key)
    return chosen


def render_filtered_schema(schema: Schema, chosen_tables: Iterable[str]) -> str:
    """Render the chosen tables as compact DDL-like text for prompts.

    Tables appear in case-insensitive name order; each block lists columns
    in schema order and then, in declaration order, the table's declared
    keys whose target is also chosen. Rendering every table reproduces the
    whole-schema serialization byte for byte.
    """
    chosen = _chosen_keys(schema, chosen_tables)
    blocks: list[str] = []
    for key in sorted(chosen):
        header, columns, keys = schema.ddl[key]
        lines = (line for _, target, line in keys if target in chosen)
        body = ",\n".join(filter(None, (columns, *lines)))
        blocks.append(f"{header}{body}\n);")
    return "\n\n".join(blocks)


def render_schema(schema: Schema) -> str:
    """Whole-schema serialization used by src/dst and baseline prompts.

    The text is rendered once per ``Schema`` object and memoised on it.
    """
    return schema.rendered


def render_join_path(
    schema: Schema, graph: SchemaGraph, chosen_tables: Iterable[str], path: JoinPath | None
) -> str:
    """Describe the chosen tables and how they join, for a generation prompt.

    ``path`` is the chosen path, or None for a union. A path renders as
    "A -> B (A.x = B.y)", with the path's own join conditions. A union
    renders the sorted table list, then one line per join condition among
    the chosen tables: the schema's declared keys in declaration order, then
    the graph's id-augmented keys. A lone table is marked as needing no joins.
    """
    chosen = _chosen_keys(schema, chosen_tables)
    tables = sorted(chosen_tables, key=str.casefold) if path is None else path.tables
    if len(tables) == 1:
        return f"{tables[0]} (no joins required)"
    if path is not None:
        arrow = " -> ".join(tables)
        conditions = ", ".join(dict.fromkeys(path.conditions))
        return f"{arrow} ({conditions})" if conditions else arrow
    positions = sorted(i for t in chosen for i, target, _ in schema.ddl[t][2] if target in chosen)
    keys = [schema.foreign_keys[i] for i in positions]
    augmented = graph.augmented_keys
    keys += (k for k in augmented if {k.from_table.casefold(), k.to_table.casefold()} <= chosen)
    conditions = dict.fromkeys(map(join_condition, keys))
    lines = [", ".join(tables)]
    if conditions:
        lines += ("joins:", *conditions)
    return "\n".join(lines)
