"""Seeded synthetic corpus: SQLite databases, questions and gold SQL.

Everything here uses the standard library only. Gold join paths come from
this module's own BFS over the generated edge list, not from
``schema_linker.pathfinder``, so the benchmark's correctness checks do not
grade the package against itself.

Two database shapes exist:

* declared: each table has ``id``, ``name``, ``value`` and one ``tN_ref``
  column per outgoing foreign key, declared with ``REFERENCES tN(id)``;
* sparse: no declared keys and no ``id`` column; each graph edge is a
  shared ``lK_id`` column instead, so ``augment_sparse_graph`` rebuilds
  exactly the generated edges from the shared id-like names.

Both use a ring plus random chords, which leaves equal-length alternative
paths between many table pairs.
"""

from __future__ import annotations

import json
import random
import sqlite3
from collections import deque
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass(frozen=True)
class CorpusSpec:
    databases: int
    min_tables: int
    max_tables: int
    chords_per_table: float  # chords = round(tables * chords_per_table)
    rows: int
    questions: int
    max_endpoints: int  # 1..max_endpoints sources and as many destinations
    sparse_every: int = 0  # every Nth database is sparse; 0 means none
    degraded_frac: float = 0.0  # share of questions whose endpoint replies are unusable
    out_of_range_frac: float = 0.0  # share whose path-select replies are out of range


@dataclass(frozen=True)
class Edge:
    """Undirected join between two tables; ``column`` lives on ``child``."""

    child: str
    parent: str
    column: str
    sparse: bool

    def condition(self) -> str:
        if self.sparse:
            return f"{self.child}.{self.column} = {self.parent}.{self.column}"
        return f"{self.child}.{self.column} = {self.parent}.id"


@dataclass(frozen=True)
class QuestionScript:
    """What the scripted backend needs to answer one question."""

    question_id: str
    db_id: str
    text: str
    sources: tuple[str, ...]
    destinations: tuple[str, ...]
    gold_tables: tuple[str, ...]
    gold_sql: str
    unusable_endpoints: bool = False
    out_of_range_select: bool = False


def _ring_with_chords(rng: random.Random, n: int, chords: int) -> list[tuple[int, int]]:
    """Directed pairs (child, parent): a ring plus distinct random chords."""
    pairs = [(i, (i + 1) % n) for i in range(n)]
    taken = {frozenset(p) for p in pairs}
    possible = n * (n - 1) // 2 - n
    chords = min(chords, possible)
    while chords:
        a, b = rng.sample(range(n), 2)
        key = frozenset((a, b))
        if key in taken:
            continue
        taken.add(key)
        pairs.append((a, b))
        chords -= 1
    return pairs


def _shortest_path(adjacency: dict[str, list[str]], start: str, goal: str) -> list[str]:
    """One shortest path, preferring earlier neighbours (generation order)."""
    previous: dict[str, str | None] = {start: None}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        if node == goal:
            break
        for neighbor in adjacency[node]:
            if neighbor not in previous:
                previous[neighbor] = node
                queue.append(neighbor)
    path = [goal]
    while previous[path[-1]] is not None:
        path.append(previous[path[-1]])
    return path[::-1]


def _gold_sql(tables: list[str], first: str, last: str, edges: dict[frozenset, Edge]) -> str:
    """Join the gold tables along a BFS spanning tree rooted at ``first``."""
    members = set(tables)
    clauses = [f"SELECT {first}.name, {last}.value FROM {first}"]
    queue = deque([first])
    seen = {first}
    while queue:
        node = queue.popleft()
        for other in tables:
            edge = edges.get(frozenset((node, other)))
            if other in seen or other not in members or edge is None:
                continue
            seen.add(other)
            queue.append(other)
            clauses.append(f"JOIN {other} ON {edge.condition()}")
    if seen != members:
        raise AssertionError("gold tables are not connected")
    return " ".join(clauses)


def _write_database(
    path: Path, tables: list[str], edges: list[Edge], rows: int, rng: random.Random
) -> None:
    columns: dict[str, list[str]] = {name: [] for name in tables}
    for edge in edges:
        if edge.sparse:
            columns[edge.child].append(f"{edge.column} INTEGER")
            columns[edge.parent].append(f"{edge.column} INTEGER")
        else:
            columns[edge.child].append(
                f"{edge.column} INTEGER REFERENCES {edge.parent}(id)"
            )
    sparse = bool(edges) and edges[0].sparse
    path.parent.mkdir(parents=True, exist_ok=True)
    connection = sqlite3.connect(path)
    try:
        with connection:
            for name in tables:
                head = ["name TEXT", "value INTEGER"]
                if not sparse:
                    head.insert(0, "id INTEGER PRIMARY KEY")
                ddl = ", ".join(head + columns[name])
                connection.execute(f"CREATE TABLE {name} ({ddl})")
                width = len(head) + len(columns[name])
                # Each key column holds a permutation of 1..rows, so every join
                # along a tree of edges is one-to-one and a gold query returns
                # exactly ``rows`` rows.
                keys = [rng.sample(range(1, rows + 1), rows) for _ in columns[name]]
                values = [
                    ([] if sparse else [r]) + [f"{name}_{r}", rng.randint(0, 999)]
                    + [column[r - 1] for column in keys]
                    for r in range(1, rows + 1)
                ]
                marks = ", ".join("?" * width)
                connection.executemany(f"INSERT INTO {name} VALUES ({marks})", values)
    finally:
        connection.close()


def _every(count: int, frac: float, offset: int) -> set[int]:
    if frac <= 0:
        return set()
    step = round(1 / frac)
    return {q for q in range(count) if q % step == (step // 2 + offset) % step}


def generate(spec: CorpusSpec, seed: int, root: Path) -> tuple[Path, Path, list[QuestionScript]]:
    """Write databases and a dataset under ``root``; return their paths and scripts."""
    rng = random.Random(seed)
    schema_root = root / "databases"
    graphs: list[tuple[str, list[str], dict[str, list[str]], dict[frozenset, Edge]]] = []
    for d in range(spec.databases):
        db_id = f"db{d:03d}"
        # Sizes cycle through the range so every seed has the same mix.
        n = spec.min_tables + d % (spec.max_tables - spec.min_tables + 1)
        tables = [f"t{i}" for i in range(n)]
        sparse = spec.sparse_every > 0 and d % spec.sparse_every == spec.sparse_every - 1
        pairs = _ring_with_chords(rng, n, round(n * spec.chords_per_table))
        edges = [
            Edge(
                child=tables[a],
                parent=tables[b],
                column=f"l{k}_id" if sparse else f"{tables[b]}_ref",
                sparse=sparse,
            )
            for k, (a, b) in enumerate(pairs)
        ]
        _write_database(schema_root / db_id / f"{db_id}.sqlite", tables, edges, spec.rows, rng)
        adjacency: dict[str, list[str]] = {name: [] for name in tables}
        by_pair: dict[frozenset, Edge] = {}
        for edge in edges:
            adjacency[edge.child].append(edge.parent)
            adjacency[edge.parent].append(edge.child)
            by_pair[frozenset((edge.child, edge.parent))] = edge
        graphs.append((db_id, tables, adjacency, by_pair))

    # Scripted failures sit at fixed positions, so they land on databases of
    # the same sizes whatever the seed; their cost then varies little.
    degraded = _every(spec.questions, spec.degraded_frac, offset=0)
    out_of_range = _every(spec.questions, spec.out_of_range_frac, offset=1)

    scripts: list[QuestionScript] = []
    for q in range(spec.questions):
        db_id, tables, adjacency, by_pair = graphs[q % len(graphs)]
        # Endpoint counts cycle through every combination, like the sizes.
        k_src = 1 + q % spec.max_endpoints
        k_dst = 1 + (q // spec.max_endpoints) % spec.max_endpoints
        picked = rng.sample(tables, min(len(tables), k_src + k_dst))
        sources, destinations = tuple(picked[:k_src]), tuple(picked[k_src:])
        gold: list[str] = []
        for src in sources:
            for dst in destinations:
                for table in _shortest_path(adjacency, src, dst):
                    if table not in gold:
                        gold.append(table)
        sql = _gold_sql(gold, sources[0], destinations[-1], by_pair)
        text = (
            f"Q{q}: list {', '.join(destinations)} values for rows "
            f"related to {', '.join(sources)}"
        )
        scripts.append(
            QuestionScript(
                question_id=str(q),
                db_id=db_id,
                text=text,
                sources=sources,
                destinations=destinations,
                gold_tables=tuple(gold),
                gold_sql=sql,
                unusable_endpoints=q in degraded,
                out_of_range_select=q in out_of_range,
            )
        )

    dataset = root / "dataset.json"
    dataset.write_text(
        json.dumps(
            [
                {
                    "question_id": s.question_id,
                    "db_id": s.db_id,
                    "question": s.text,
                    "SQL": s.gold_sql,
                    "difficulty": "simple" if len(s.gold_tables) <= 3 else "moderate",
                }
                for s in scripts
            ],
            indent=1,
        ),
        encoding="utf-8",
    )
    (root / "scripts.json").write_text(
        json.dumps([asdict(s) for s in scripts]), encoding="utf-8"
    )
    return dataset, schema_root, scripts


def load_scripts(root: Path) -> list[QuestionScript]:
    rows = json.loads((root / "scripts.json").read_text(encoding="utf-8"))
    for row in rows:
        for key in ("sources", "destinations", "gold_tables"):
            row[key] = tuple(row[key])
    return [QuestionScript(**row) for row in rows]
