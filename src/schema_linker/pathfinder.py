"""Join-path discovery over the schema graph.

Given source tables (used for filtering) and destination tables (supplying
the answer columns), this module enumerates every shortest simple path
between each source/destination pair, merges the results into a candidate
set, and picks the final table set according to the configured selection
mode. Endpoint nomination and candidate selection are abstracted behind
callables so the same machinery runs against a live model, a replayed
transcript, or a scripted test oracle.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from itertools import product
from typing import Callable, Sequence

from .errors import (
    EmptyEndpointsError,
    OutOfRangeError,
    ReplyParseError,
    UnknownTableError,
)
from .schema_model import ForeignKeyEdge, Schema, SchemaGraph, join_condition


class EndpointKeep(str, Enum):
    """How many nominated endpoints to keep on one side."""

    ONE = "one"
    ALL = "all"


class UnionMode(str, Enum):
    APPEND_UNION = "append_union"
    NO_UNION = "no_union"
    FORCE_UNION = "force_union"


@dataclass(frozen=True)
class LinkerConfig:
    keep_sources: EndpointKeep = EndpointKeep.ALL
    keep_destinations: EndpointKeep = EndpointKeep.ALL
    longest: bool = False
    union_mode: UnionMode = UnionMode.APPEND_UNION


MODE_PRESETS: dict[str, LinkerConfig] = {
    "mode1": LinkerConfig(EndpointKeep.ONE, EndpointKeep.ONE, False, UnionMode.APPEND_UNION),
    "mode2": LinkerConfig(EndpointKeep.ONE, EndpointKeep.ALL, False, UnionMode.APPEND_UNION),
    "mode3": LinkerConfig(EndpointKeep.ALL, EndpointKeep.ONE, False, UnionMode.APPEND_UNION),
    "mode4": LinkerConfig(EndpointKeep.ALL, EndpointKeep.ALL, False, UnionMode.APPEND_UNION),
    "mode5": LinkerConfig(EndpointKeep.ALL, EndpointKeep.ALL, True, UnionMode.APPEND_UNION),
    "mode6": LinkerConfig(EndpointKeep.ALL, EndpointKeep.ALL, False, UnionMode.NO_UNION),
    "mode7": LinkerConfig(EndpointKeep.ALL, EndpointKeep.ALL, False, UnionMode.FORCE_UNION),
}

MODE_LABELS: dict[str, str] = {
    "mode1": "1-1",
    "mode2": "1-n",
    "mode3": "n-1",
    "mode4": "n-n",
    "mode5": "force-longest",
    "mode6": "no-union",
    "mode7": "force-union",
}

_MODE_ALIASES = {label: mode for mode, label in MODE_LABELS.items()}


def preset(name: str) -> LinkerConfig:
    """Resolve a mode name ("mode1".."mode7" or a descriptive alias)."""
    return MODE_PRESETS[canonical_mode_name(name)]


def canonical_mode_name(name: str) -> str:
    key = name.strip().lower()
    key = _MODE_ALIASES.get(key, key)
    if key not in MODE_PRESETS:
        known = ", ".join(list(MODE_PRESETS) + sorted(_MODE_ALIASES))
        raise ValueError(f"unknown mode {name!r} (known: {known})")
    return key


@dataclass(frozen=True)
class JoinPath:
    """A simple path through the table graph; a single table is allowed."""

    tables: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "tables", tuple(self.tables))
        if not self.tables:
            raise ValueError("a join path needs at least one table")
        keys = [table.casefold() for table in self.tables]
        if len(set(keys)) != len(keys):
            raise ValueError("join path tables must be pairwise distinct")

    @property
    def length(self) -> int:
        return len(self.tables) - 1

    def sort_key(self) -> tuple[str, ...]:
        return tuple(table.casefold() for table in self.tables)


@dataclass(frozen=True)
class CandidateSet:
    paths: tuple[JoinPath, ...]
    union_tables: frozenset[str]
    diagnostics: tuple[str, ...] = ()


@dataclass(frozen=True)
class PathSelection:
    chosen_tables: frozenset[str]
    chosen_path_id: int | None
    rule: str
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class LinkResult:
    sources: tuple[str, ...]
    destinations: tuple[str, ...]
    candidates: CandidateSet
    chosen_tables: frozenset[str]
    chosen_path_id: int | None
    induced_fk_edges: tuple[ForeignKeyEdge, ...]
    augmented_join_edges: tuple[ForeignKeyEdge, ...] = ()
    selection_rule: str = ""
    warnings: tuple[str, ...] = ()
    degraded: bool = False

    @property
    def union_selected(self) -> bool:
        return self.chosen_path_id is None or self.chosen_path_id > len(
            self.candidates.paths
        )

    def chosen_path(self) -> JoinPath | None:
        if self.union_selected:
            return None
        return self.candidates.paths[self.chosen_path_id - 1]


def all_shortest_paths(graph: SchemaGraph, src: str, dst: str) -> list[JoinPath]:
    """Every simple path of minimal length from src to dst.

    Identical endpoints yield the single zero-length path; unreachable
    endpoints yield an empty list. Results are ordered lexicographically by
    table-name sequence.
    """
    start = graph.resolve_node(src)
    goal = graph.resolve_node(dst)
    if start is None:
        raise UnknownTableError(f"not a table in this graph: {src!r}")
    if goal is None:
        raise UnknownTableError(f"not a table in this graph: {dst!r}")
    if start == goal:
        return [JoinPath((start,))]

    adjacency = graph.adjacency
    dist: dict[str, int] = {start: 0}
    preds: dict[str, list[str]] = {}
    queue: deque[str] = deque([start])
    goal_dist: int | None = None
    while queue:
        node = queue.popleft()
        depth = dist[node]
        if goal_dist is not None and depth + 1 > goal_dist:
            break  # BFS order: everything left is at or beyond the goal layer
        for neighbor in adjacency[node]:
            if neighbor not in dist:
                dist[neighbor] = depth + 1
                preds[neighbor] = [node]
                if neighbor == goal:
                    goal_dist = depth + 1
                queue.append(neighbor)
            elif dist[neighbor] == depth + 1:
                preds[neighbor].append(node)
    if goal not in dist:
        return []

    sequences: list[tuple[str, ...]] = []
    stack: list[tuple[str, tuple[str, ...]]] = [(goal, (goal,))]
    while stack:
        node, tail = stack.pop()
        if node == start:
            sequences.append(tail)
            continue
        for pred in preds[node]:
            stack.append((pred, (pred,) + tail))
    sequences.sort(key=lambda seq: tuple(t.casefold() for t in seq))
    return [JoinPath(seq) for seq in sequences]


def _dedupe_keep_order(names: Sequence[str]) -> list[str]:
    first: dict[str, str] = {}
    for name in names:
        first.setdefault(name.casefold(), name)
    return list(first.values())


def build_candidates(
    graph: SchemaGraph,
    sources: Sequence[str],
    destinations: Sequence[str],
    config: LinkerConfig,
) -> CandidateSet:
    """Merge shortest paths over every kept source/destination pair.

    Paths identical up to reversal are stored once, oriented as the
    lexicographically smaller sequence. A disconnected pair contributes
    both endpoints as standalone single-table candidates plus a diagnostic
    instead of failing the question. Each pair is searched once per graph:
    its paths are kept in ``graph.path_cache``.
    """
    src_list = _dedupe_keep_order(sources)
    dst_list = _dedupe_keep_order(destinations)
    if config.keep_sources is EndpointKeep.ONE:
        src_list = src_list[:1]
    if config.keep_destinations is EndpointKeep.ONE:
        dst_list = dst_list[:1]
    if not src_list:
        raise EmptyEndpointsError("no source tables to search from")
    if not dst_list:
        raise EmptyEndpointsError("no destination tables to search for")

    diagnostics: list[str] = []
    collected: dict[tuple[str, ...], JoinPath] = {}
    cache = graph.path_cache
    for src, dst in product(src_list, dst_list):
        key = (src.casefold(), dst.casefold())
        found = cache.get(key)
        if found is None:  # record-mode threads may race here; the first equal value wins
            found = all_shortest_paths(graph, src, dst)
            if key[1] < key[0]:  # store each path as merged: from the end that sorts first
                found = [JoinPath(path.tables[::-1]) for path in found]
            found = cache.setdefault(key, tuple(found))
        if found:
            collected.update((path.tables, path) for path in found)
        else:
            diagnostics.append(
                f"no join path between {src!r} and {dst!r}; keeping both as "
                "standalone candidates"
            )
            for name in (src, dst):
                resolved = graph.resolve_node(name)
                assert resolved is not None
                collected[(resolved,)] = JoinPath((resolved,))

    paths = tuple(sorted(collected.values(), key=JoinPath.sort_key))
    union = frozenset(table for path in paths for table in path.tables)
    if diagnostics:
        # Exactly when a pair has no join path: when all are joined, any two
        # paths meet through a third that shares an endpoint with each.
        diagnostics.append("union of candidate paths is not a connected subgraph")
    return CandidateSet(paths=paths, union_tables=union, diagnostics=tuple(diagnostics))


def render_path(path: JoinPath, graph: SchemaGraph | None = None) -> str:
    """Render one candidate as "A -> B (join: A.x = B.y)"."""
    arrow = " -> ".join(path.tables)
    if graph is None or path.length == 0:
        return arrow
    conditions: list[str] = []
    for a, b in zip(path.tables, path.tables[1:]):
        edge = graph.edge_between(a, b)
        if edge is None:
            continue
        conditions.extend(join_condition(fk) for fk in edge.justifications)
    if conditions:
        return f"{arrow} (join: {', '.join(conditions)})"
    return arrow


def render_candidate_lines(
    candidates: CandidateSet,
    include_union: bool,
    graph: SchemaGraph | None = None,
) -> list[str]:
    """Number the candidates for presentation to the path selector."""
    lines = [
        f"path_id={i}: {render_path(path, graph)}"
        for i, path in enumerate(candidates.paths, start=1)
    ]
    if include_union:
        union = ", ".join(sorted(candidates.union_tables, key=str.casefold))
        lines.append(f"path_id={len(candidates.paths) + 1}: UNION {{{union}}}")
    return lines


PathSelector = Callable[[list[str]], int]


def select_path(
    candidates: CandidateSet,
    config: LinkerConfig,
    selector: PathSelector | None = None,
    graph: SchemaGraph | None = None,
) -> PathSelection:
    """Pick the final table set from a candidate set.

    Selection order: forced union, then the deterministic longest-path rule,
    then a sole candidate wins outright, and only then is the selector
    consulted. An unusable selector verdict falls back to the union so a
    question never dies on a malformed reply.
    """
    if not candidates.paths:
        raise ValueError("candidate set is empty")
    if config.union_mode is UnionMode.FORCE_UNION:
        return PathSelection(candidates.union_tables, None, "forced_union")
    if config.longest:
        index = min(
            range(len(candidates.paths)),
            key=lambda i: (-candidates.paths[i].length, candidates.paths[i].sort_key()),
        )
        return PathSelection(
            frozenset(candidates.paths[index].tables), index + 1, "longest"
        )
    if len(candidates.paths) == 1:
        return PathSelection(frozenset(candidates.paths[0].tables), 1, "sole_candidate")

    include_union = config.union_mode is UnionMode.APPEND_UNION
    lines = render_candidate_lines(candidates, include_union, graph)
    if selector is None:
        return PathSelection(
            candidates.union_tables,
            None,
            "fallback_union",
            ("no path selector configured; returned the union",),
        )
    try:
        picked = selector(lines)
    except (ReplyParseError, OutOfRangeError) as exc:
        return PathSelection(
            candidates.union_tables,
            None,
            "fallback_union",
            (f"path selection failed ({exc.code}); returned the union",),
        )
    if not 1 <= picked <= len(lines):
        return PathSelection(
            candidates.union_tables,
            None,
            "fallback_union",
            (f"selector returned invalid path_id {picked}; returned the union",),
        )
    if include_union and picked == len(lines):
        return PathSelection(candidates.union_tables, picked, "selector")
    return PathSelection(frozenset(candidates.paths[picked - 1].tables), picked, "selector")


EndpointOracle = Callable[[str, Schema, "str | None"], object]
PathOracle = Callable[[str, list[str]], int]


def link(
    question: str,
    schema: Schema,
    graph: SchemaGraph,
    config: LinkerConfig,
    endpoints: EndpointOracle,
    path_oracle: PathOracle | None = None,
    evidence: str | None = None,
) -> LinkResult:
    """Run the full linking pipeline for one question.

    ``endpoints`` nominates source and destination tables for the question;
    ``path_oracle`` resolves ties between multiple candidates. With a
    replayed transcript both are pure, making the whole call deterministic.
    """
    extraction = endpoints(question, schema, evidence)
    candidates = build_candidates(
        graph, extraction.sources, extraction.destinations, config
    )
    selector = None
    if path_oracle is not None:
        selector = lambda lines: path_oracle(question, lines)  # noqa: E731
    selection = select_path(candidates, config, selector, graph=graph)

    chosen_keys = {table.casefold() for table in selection.chosen_tables}
    keys = schema.foreign_keys
    positions = sorted(i for table in chosen_keys for i in schema.keys_by_source.get(table, ()))
    induced = tuple(keys[i] for i in positions if keys[i].to_table.casefold() in chosen_keys)
    augmented = tuple(
        fk
        for fk in graph.augmented_keys
        if fk.from_table.casefold() in chosen_keys and fk.to_table.casefold() in chosen_keys
    )
    warnings = (
        tuple(extraction.warnings) + candidates.diagnostics + selection.warnings
    )
    return LinkResult(
        sources=tuple(extraction.sources),
        destinations=tuple(extraction.destinations),
        candidates=candidates,
        chosen_tables=selection.chosen_tables,
        chosen_path_id=selection.chosen_path_id,
        induced_fk_edges=induced,
        augmented_join_edges=augmented,
        selection_rule=selection.rule,
        warnings=warnings,
        degraded=bool(getattr(extraction, "degraded", False)),
    )
