"""Naive schema renderer used as an independent byte-level reference.

Deliberately the straightforward tables x foreign-keys loop: every table
block rescans the whole edge list. Slow on wide schemas, but its output is
the prompt text that recorded transcript caches were keyed on, so the fast
renderer in the package must reproduce it byte for byte.
"""

from __future__ import annotations

import random
import re
from typing import Sequence

from schema_linker.schema_model import ColumnDef, ForeignKeyEdge, Schema, TableDef

_PLAIN = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def _quote(name: str) -> str:
    return name if _PLAIN.match(name) else '"' + name.replace('"', '""') + '"'


def reference_render(
    schema: Schema, chosen_tables: Sequence[str], edges: Sequence[ForeignKeyEdge]
) -> str:
    """Render chosen tables with their induced keys; ``edges`` is reread per table."""
    chosen = sorted({schema.resolve_table(name) for name in chosen_tables}, key=str.casefold)
    chosen_keys = {name.casefold() for name in chosen}
    blocks = []
    for name in chosen:
        lines = []
        for col in schema.table(name).columns:
            entry = f"    {_quote(col.name)}"
            if col.declared_type:
                entry += f" {col.declared_type}"
            if col.is_primary_key:
                entry += " PRIMARY KEY"
            lines.append(entry)
        for fk in edges:
            if fk.from_table.casefold() != name.casefold():
                continue
            if fk.to_table.casefold() not in chosen_keys:
                continue
            lines.append(
                f"    FOREIGN KEY ({_quote(fk.from_column)}) "
                f"REFERENCES {_quote(fk.to_table)}({_quote(fk.to_column)})"
            )
        body = ",\n".join(lines)
        blocks.append(f"CREATE TABLE {_quote(name)} (\n{body}\n);")
    return "\n\n".join(blocks)


def wide_schema(n_tables: int = 60, n_chords: int = 120, seed: int = 7) -> Schema:
    """A wide schema with every awkward shape the renderer has to handle.

    Tables form a ring plus random chords, with mixed-case and quoted
    names. Keys name their tables in non-canonical casing, one table
    references itself, and one pair of tables is joined by two keys.
    """
    rng = random.Random(seed)
    names = []
    for i in range(n_tables):
        if i % 7 == 3:
            names.append(f"order line {i}")  # needs quoting
        elif i % 11 == 5:
            names.append(f'We"ird_{i}')  # embedded double quote
        elif i % 2:
            names.append(f"Table_{i:02d}")
        else:
            names.append(f"table_{i:02d}")
    # (source, target) pairs: the ring, then chords, duplicates allowed
    pairs = [(i, (i + 1) % n_tables) for i in range(n_tables)]
    pairs += [tuple(rng.sample(range(n_tables), 2)) for _ in range(n_chords)]
    pairs += [(0, 0), (4, 9), (4, 9)]  # self-reference; two keys on one pair
    ref_columns: dict[int, list[str]] = {i: [] for i in range(n_tables)}
    edges = []
    for k, (src, dst) in enumerate(pairs):
        column = f"ref {k}" if k % 13 == 0 else f"T{dst}_Ref_{k}"
        ref_columns[src].append(column)
        from_table = names[src].upper() if k % 3 == 0 else names[src]
        to_table = names[dst].swapcase() if k % 5 == 0 else names[dst]
        to_column = "ID" if k % 4 == 0 else "id"
        edges.append(ForeignKeyEdge(from_table, column, to_table, to_column))
    tables = []
    for i, name in enumerate(names):
        columns = [
            ColumnDef("id", "INTEGER", is_primary_key=True),
            ColumnDef("Name", "TEXT"),
            ColumnDef("select"),  # keyword, plain identifier, no type
            ColumnDef('va"lue', "REAL"),
        ]
        columns += [ColumnDef(column, "INTEGER") for column in ref_columns[i]]
        tables.append(TableDef(name, tuple(columns)))
    rng.shuffle(tables)
    return Schema(database_id="wide", tables=tuple(tables), foreign_keys=tuple(edges))
