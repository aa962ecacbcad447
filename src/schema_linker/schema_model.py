"""Relational schema model and the table-level join graph.

A schema is ingested from a SQLite file or from a JSON schema document,
validated, and frozen. ``build_graph`` turns it into an undirected table
graph whose edges are justified by foreign keys, and
``augment_sparse_graph`` adds shared-"id"-column edges to graphs that are
too sparse for path search to be useful.

Table and column name comparisons are case-insensitive throughout; the
original casing is preserved for display and prompt rendering.
"""

from __future__ import annotations

import json
import logging
import sqlite3
import threading
import weakref
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import combinations
from pathlib import Path

from .errors import (
    DanglingForeignKeyError,
    DuplicateTableError,
    NotADatabaseError,
    ParseError,
)

log = logging.getLogger(__name__)

SQLITE_MAGIC = b"SQLite format 3\x00"


class FkProvenance(str, Enum):
    """How a join between two tables is justified."""

    DECLARED_FK = "declared_fk"
    ID_AUGMENTED = "id_augmented"


@dataclass(frozen=True)
class ColumnDef:
    name: str
    declared_type: str = ""
    is_primary_key: bool = False

    def __post_init__(self) -> None:
        if not self.name.strip():
            raise ValueError("column name must be non-empty")


@dataclass(frozen=True)
class TableDef:
    name: str
    columns: tuple[ColumnDef, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "columns", tuple(self.columns))
        if not self.name.strip():
            raise ValueError("table name must be non-empty")
        seen: set[str] = set()
        for col in self.columns:
            key = col.name.casefold()
            if key in seen:
                raise ValueError(
                    f"duplicate column {col.name!r} in table {self.name!r}"
                )
            seen.add(key)

    def column(self, name: str) -> ColumnDef | None:
        key = name.casefold()
        for col in self.columns:
            if col.name.casefold() == key:
                return col
        return None


@dataclass(frozen=True)
class ForeignKeyEdge:
    """One column-level foreign key reference.

    Self-referencing keys (``from_table == to_table``) are recorded but
    never become graph edges.
    """

    from_table: str
    from_column: str
    to_table: str
    to_column: str
    provenance: FkProvenance = FkProvenance.DECLARED_FK


def join_condition(fk: ForeignKeyEdge) -> str:
    """The key as a join condition, "A.x = B.y"; prompts embed this text."""
    return f"{fk.from_table}.{fk.from_column} = {fk.to_table}.{fk.to_column}"


@dataclass(frozen=True)
class Schema:
    database_id: str
    tables: tuple[TableDef, ...] = ()
    foreign_keys: tuple[ForeignKeyEdge, ...] = ()
    warnings: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "tables", tuple(self.tables))
        object.__setattr__(self, "foreign_keys", tuple(self.foreign_keys))
        object.__setattr__(self, "warnings", tuple(self.warnings))
        by_name: dict[str, TableDef] = {}
        for table in self.tables:
            key = table.name.casefold()
            if key in by_name:
                raise DuplicateTableError(
                    f"duplicate table name {table.name!r} (names are compared "
                    "case-insensitively)"
                )
            by_name[key] = table
        for fk in self.foreign_keys:
            for table_name, column_name in (
                (fk.from_table, fk.from_column),
                (fk.to_table, fk.to_column),
            ):
                table = by_name.get(table_name.casefold())
                if table is None:
                    raise DanglingForeignKeyError(
                        f"foreign key references unknown table {table_name!r}"
                    )
                if table.column(column_name) is None:
                    raise DanglingForeignKeyError(
                        "foreign key references unknown column "
                        f"{table_name}.{column_name}"
                    )

    @cached_property
    def _by_name(self) -> dict[str, TableDef]:
        return {table.name.casefold(): table for table in self.tables}

    @cached_property
    def rendered(self) -> str:
        """The whole schema as prompt text; see ``sql_analysis.render_schema``."""
        # Imported here because sql_analysis imports this module.
        from .sql_analysis import render_filtered_schema

        return render_filtered_schema(self, self.table_names)

    @cached_property
    def ddl(self) -> dict[str, tuple[str, str, tuple[tuple[int, str, str], ...]]]:
        """What the prompt renderers join, by casefolded table name: the table's
        ``table_ddl`` lines, then for each key it declares, in declaration order,
        the key's position in ``foreign_keys``, its casefolded target and its
        ``foreign_key_ddl`` line."""
        from .sql_analysis import foreign_key_ddl, table_ddl

        keys: dict[str, list[tuple[int, str, str]]] = {name: [] for name in self._by_name}
        for i, fk in enumerate(self.foreign_keys):
            entry = (i, fk.to_table.casefold(), foreign_key_ddl(fk))
            keys[fk.from_table.casefold()].append(entry)
        return {name: (*table_ddl(table), tuple(keys[name])) for name, table in self._by_name.items()}

    @cached_property
    def compile_database(self) -> tuple[sqlite3.Connection, threading.Lock]:
        """An in-memory database of table and column names for ``extract_tables``, and its lock."""
        from .sql_analysis import create_table

        connection = sqlite3.connect(
            ":memory:", isolation_level=None, check_same_thread=False, cached_statements=0
        )
        # SQLite reserves "sqlite_..." names; only a query reading such a table fails.
        kept = (table for table in self.tables if table.name[:7].lower() != "sqlite_")
        tables = "".join(create_table(table.name, table.columns) for table in kept)
        try:
            connection.executescript(f"PRAGMA page_size=512; BEGIN; {tables} COMMIT;")
        except sqlite3.Error as exc:
            connection.close()
            raise ParseError(f"schema {self.database_id!r} does not compile: {exc}") from exc
        weakref.finalize(self, connection.close)
        return connection, threading.Lock()

    @property
    def table_names(self) -> tuple[str, ...]:
        return tuple(table.name for table in self.tables)

    def resolve_table(self, name: str) -> str | None:
        """Map a case-insensitive table name to its canonical casing."""
        table = self._by_name.get(name.casefold())
        return table.name if table is not None else None

    def table(self, name: str) -> TableDef | None:
        return self._by_name.get(name.casefold())


@dataclass(frozen=True)
class GraphEdge:
    """Undirected edge between two tables, with its justifying keys."""

    tables: tuple[str, str]
    justifications: tuple[ForeignKeyEdge, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "tables", tuple(self.tables))
        object.__setattr__(self, "justifications", tuple(self.justifications))
        if len(self.tables) != 2:
            raise ValueError("a graph edge joins exactly two tables")
        if self.tables[0].casefold() == self.tables[1].casefold():
            raise ValueError("graph edges never join a table to itself")
        if not self.justifications:
            raise ValueError("a graph edge needs at least one justification")


@dataclass(frozen=True)
class SchemaGraph:
    """Undirected table graph. Nodes and edge pairs use canonical casing."""

    nodes: tuple[str, ...]
    edges: tuple[GraphEdge, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "edges", tuple(self.edges))

    @cached_property
    def _canonical(self) -> dict[str, str]:
        return {node.casefold(): node for node in self.nodes}

    @cached_property
    def adjacency(self) -> dict[str, tuple[str, ...]]:
        adj: dict[str, list[str]] = {node: [] for node in self.nodes}
        for edge in self.edges:
            a, b = edge.tables
            adj[a].append(b)
            adj[b].append(a)
        return {
            node: tuple(sorted(out, key=str.casefold))
            for node, out in adj.items()
        }

    @cached_property
    def _edge_map(self) -> dict[tuple[str, str], GraphEdge]:
        return {_pair_key(*edge.tables): edge for edge in self.edges}

    @cached_property
    def path_cache(self) -> dict[tuple[str, str], tuple]:
        """Shortest paths by casefolded table pair, smaller first, oriented as
        merged; each path holds its join conditions."""
        return {}

    @cached_property
    def augmented_keys(self) -> tuple[ForeignKeyEdge, ...]:
        """The ID_AUGMENTED keys on the edges, in edge order."""
        keys = (fk for edge in self.edges for fk in edge.justifications)
        return tuple(fk for fk in keys if fk.provenance is FkProvenance.ID_AUGMENTED)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def resolve_node(self, name: str) -> str | None:
        return self._canonical.get(name.casefold())

    def edge_between(self, a: str, b: str) -> GraphEdge | None:
        return self._edge_map.get(_pair_key(a, b))

    def join_conditions(self, tables: tuple[str, ...]) -> tuple[str, ...]:
        """Each step's justifying keys as join conditions, in path order."""
        steps = (self.edge_between(a, b) for a, b in zip(tables, tables[1:]))
        return tuple(join_condition(fk) for edge in steps if edge for fk in edge.justifications)


def _pair_key(a: str, b: str) -> tuple[str, str]:
    ka, kb = a.casefold(), b.casefold()
    return (ka, kb) if ka <= kb else (kb, ka)


def build_graph(schema: Schema) -> SchemaGraph:
    """Build the undirected table graph from declared foreign keys.

    Bidirectional or parallel keys between the same pair collapse into one
    edge carrying every justification; self-referencing keys contribute no
    edge at all.
    """
    nodes = tuple(sorted(schema.table_names, key=str.casefold))
    grouped: dict[tuple[str, str], list[ForeignKeyEdge]] = {}
    for fk in schema.foreign_keys:
        if fk.from_table.casefold() == fk.to_table.casefold():
            continue
        grouped.setdefault(_pair_key(fk.from_table, fk.to_table), []).append(fk)
    edges = []
    for key in sorted(grouped):
        a = schema.resolve_table(key[0])
        b = schema.resolve_table(key[1])
        assert a is not None and b is not None
        edges.append(GraphEdge(tables=(a, b), justifications=tuple(grouped[key])))
    return SchemaGraph(nodes=nodes, edges=tuple(edges))


def is_id_like_column(name: str) -> bool:
    """Decide whether a column name looks like a join key.

    "id" must appear as its own name token, so words that merely contain
    it, like "video" or "holiday", do not count.
    """
    low = name.casefold()
    return (
        low == "id"
        or low.endswith("_id")
        or low.startswith("id_")
        or "_id_" in low
    )


def augment_sparse_graph(graph: SchemaGraph, schema: Schema) -> SchemaGraph:
    """Add shared-id-column edges when the graph has fewer than two edges.

    Graphs with two or more edges are returned unchanged. Augmentation runs
    once over the declared graph; pairs already joined by a declared key are
    left alone.
    """
    if len(graph.edges) >= 2:
        return graph
    declared = {_pair_key(*edge.tables) for edge in graph.edges}
    edges = list(graph.edges)
    ordered = sorted(schema.tables, key=lambda table: table.name.casefold())
    for first, second in combinations(ordered, 2):
        if _pair_key(first.name, second.name) in declared:
            continue
        second_cols = {col.name.casefold(): col for col in second.columns}
        shared = []
        for col in first.columns:
            twin = second_cols.get(col.name.casefold())
            if twin is None:
                continue
            if not is_id_like_column(col.name):
                continue
            shared.append(
                ForeignKeyEdge(
                    from_table=first.name,
                    from_column=col.name,
                    to_table=second.name,
                    to_column=twin.name,
                    provenance=FkProvenance.ID_AUGMENTED,
                )
            )
        if shared:
            edges.append(
                GraphEdge(tables=(first.name, second.name), justifications=tuple(shared))
            )
    edges.sort(key=lambda edge: _pair_key(*edge.tables))
    return SchemaGraph(nodes=graph.nodes, edges=tuple(edges))


def quote_identifier(name: str) -> str:
    return '"' + name.replace('"', '""') + '"'


def ingest_sqlite(path: str | Path) -> Schema:
    """Read table, column, and foreign-key definitions from a SQLite file.

    Foreign keys whose target cannot be resolved are dropped with a warning
    recorded on the returned schema; the ingest itself only fails when the
    file is missing or is not a SQLite database.
    """
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"no such database file: {path}")
    if path.stat().st_size == 0:
        # SQLite treats an empty file as an empty database.
        return Schema(database_id=path.stem)
    with path.open("rb") as handle:
        if handle.read(16) != SQLITE_MAGIC:
            raise NotADatabaseError(f"{path} is not a SQLite database")

    warnings: list[str] = []
    connection = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
    try:
        try:
            names = [
                row[0]
                for row in connection.execute(
                    "SELECT name FROM sqlite_master WHERE type = 'table' ORDER BY name"
                )
                if not row[0].startswith("sqlite_")
            ]
            tables: list[TableDef] = []
            pk_columns: dict[str, list[str]] = {}
            for name in names:
                info = list(
                    connection.execute(
                        f"PRAGMA table_info({quote_identifier(name)})"
                    )
                )
                columns = tuple(
                    ColumnDef(
                        name=row[1],
                        declared_type=row[2] or "",
                        is_primary_key=row[5] > 0,
                    )
                    for row in info
                )
                tables.append(TableDef(name=name, columns=columns))
                pk_columns[name.casefold()] = [
                    row[1]
                    for row in sorted(
                        (row for row in info if row[5] > 0), key=lambda row: row[5]
                    )
                ]
            by_name = {table.name.casefold(): table for table in tables}
            foreign_keys: list[ForeignKeyEdge] = []
            for table in tables:
                rows = connection.execute(
                    f"PRAGMA foreign_key_list({quote_identifier(table.name)})"
                )
                for row in rows:
                    seq, target, from_col, to_col = row[1], row[2], row[3], row[4]
                    target_table = by_name.get((target or "").casefold())
                    if target_table is None:
                        warnings.append(
                            f"{table.name}: foreign key on {from_col!r} references "
                            f"missing table {target!r}; dropped"
                        )
                        continue
                    if to_col is None:
                        # Implicit reference: resolve to the target's primary key.
                        pks = pk_columns.get(target_table.name.casefold(), [])
                        if seq >= len(pks):
                            warnings.append(
                                f"{table.name}: foreign key on {from_col!r} has no "
                                f"resolvable target column in {target_table.name!r}; dropped"
                            )
                            continue
                        to_col = pks[seq]
                    if table.column(from_col) is None or target_table.column(to_col) is None:
                        warnings.append(
                            f"{table.name}: foreign key {from_col!r} -> "
                            f"{target_table.name}.{to_col!r} references a missing column; dropped"
                        )
                        continue
                    foreign_keys.append(
                        ForeignKeyEdge(
                            from_table=table.name,
                            from_column=from_col,
                            to_table=target_table.name,
                            to_column=to_col,
                        )
                    )
        except sqlite3.DatabaseError as exc:
            raise NotADatabaseError(f"unreadable SQLite database {path}: {exc}") from exc
    finally:
        connection.close()
    for message in warnings:
        log.warning("%s: %s", path.stem, message)
    return Schema(
        database_id=path.stem,
        tables=tuple(tables),
        foreign_keys=tuple(foreign_keys),
        warnings=tuple(warnings),
    )


def _expect(value, kind, context: str):
    if not isinstance(value, kind):
        raise ParseError(f"{context}: expected {kind.__name__}, got {type(value).__name__}")
    return value


def _expect_str_field(obj: dict, field_name: str, context: str) -> str:
    if field_name not in obj:
        raise ParseError(f"{context}: missing field {field_name!r}")
    value = obj[field_name]
    if not isinstance(value, str) or not value:
        raise ParseError(f"{context}: field {field_name!r} must be a non-empty string")
    return value


def schema_from_document(doc, source: str = "<document>") -> Schema:
    """Build a schema from an already-parsed JSON document."""
    _expect(doc, dict, source)
    database_id = _expect_str_field(doc, "db_id", source)
    raw_tables = _expect(doc.get("tables", []), list, f"{source}: field 'tables'")
    tables: list[TableDef] = []
    for i, item in enumerate(raw_tables):
        context = f"{source}: tables[{i}]"
        _expect(item, dict, context)
        name = _expect_str_field(item, "name", context)
        raw_columns = _expect(item.get("columns", []), list, f"{context}.columns")
        columns = []
        try:
            for j, raw_col in enumerate(raw_columns):
                where = f"{context}.columns[{j}]"
                _expect(raw_col, dict, where)
                columns.append(
                    ColumnDef(
                        name=_expect_str_field(raw_col, "name", where),
                        declared_type=str(raw_col.get("type") or ""),
                        is_primary_key=bool(raw_col.get("primary_key", False)),
                    )
                )
            where = context
            tables.append(TableDef(name=name, columns=tuple(columns)))
        except ValueError as exc:
            raise ParseError(f"{where}: {exc}") from exc
    raw_fks = _expect(doc.get("foreign_keys", []), list, f"{source}: field 'foreign_keys'")
    foreign_keys = []
    for i, item in enumerate(raw_fks):
        context = f"{source}: foreign_keys[{i}]"
        _expect(item, dict, context)
        foreign_keys.append(
            ForeignKeyEdge(
                from_table=_expect_str_field(item, "from_table", context),
                from_column=_expect_str_field(item, "from_column", context),
                to_table=_expect_str_field(item, "to_table", context),
                to_column=_expect_str_field(item, "to_column", context),
            )
        )
    return Schema(
        database_id=database_id,
        tables=tuple(tables),
        foreign_keys=tuple(foreign_keys),
    )


def ingest_schema_document(path: str | Path) -> Schema:
    """Read a schema from a JSON schema document file."""
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"no such schema document: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    return schema_from_document(doc, source=str(path))


def schema_to_document(schema: Schema) -> dict:
    """Export a schema as a JSON-ready document (declared keys only)."""
    return {
        "db_id": schema.database_id,
        "tables": [
            {
                "name": table.name,
                "columns": [
                    {
                        "name": col.name,
                        "type": col.declared_type,
                        "primary_key": col.is_primary_key,
                    }
                    for col in table.columns
                ],
            }
            for table in schema.tables
        ],
        "foreign_keys": [
            {
                "from_table": fk.from_table,
                "from_column": fk.from_column,
                "to_table": fk.to_table,
                "to_column": fk.to_column,
            }
            for fk in schema.foreign_keys
            if fk.provenance is FkProvenance.DECLARED_FK
        ],
    }


def write_schema_document(schema: Schema, path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(schema_to_document(schema), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return path
