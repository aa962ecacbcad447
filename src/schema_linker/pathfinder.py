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
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from itertools import product
from operator import attrgetter
from typing import Callable, Sequence

from .errors import (
    EmptyEndpointsError,
    OutOfRangeError,
    ReplyParseError,
    UnknownTableError,
)
from .schema_model import Schema, SchemaGraph


class EndpointKeep(str, Enum):
    """How many nominated endpoints to keep on one side."""

    ONE = "one"
    ALL = "all"


class Selection(str, Enum):
    """How the final tables are picked from a candidate set."""

    SELECTOR = "selector"  # the selector picks a path or the union
    SELECTOR_NO_UNION = "selector_no_union"  # the selector picks a path
    LONGEST = "longest"  # the longest path, ties broken by name
    UNION = "union"  # the union of every candidate


@dataclass(frozen=True)
class LinkerConfig:
    keep_sources: EndpointKeep
    keep_destinations: EndpointKeep
    selection: Selection

    def kept(self, sources: Sequence[str], destinations: Sequence[str]) -> tuple:
        """The (sources, destinations) that this config searches between."""
        return (
            sources[:1] if self.keep_sources is EndpointKeep.ONE else sources,
            destinations[:1] if self.keep_destinations is EndpointKeep.ONE else destinations,
        )


MODE_PRESETS: dict[str, LinkerConfig] = {
    "mode1": LinkerConfig(EndpointKeep.ONE, EndpointKeep.ONE, Selection.SELECTOR),
    "mode2": LinkerConfig(EndpointKeep.ONE, EndpointKeep.ALL, Selection.SELECTOR),
    "mode3": LinkerConfig(EndpointKeep.ALL, EndpointKeep.ONE, Selection.SELECTOR),
    "mode4": LinkerConfig(EndpointKeep.ALL, EndpointKeep.ALL, Selection.SELECTOR),
    "mode5": LinkerConfig(EndpointKeep.ALL, EndpointKeep.ALL, Selection.LONGEST),
    "mode6": LinkerConfig(EndpointKeep.ALL, EndpointKeep.ALL, Selection.SELECTOR_NO_UNION),
    "mode7": LinkerConfig(EndpointKeep.ALL, EndpointKeep.ALL, Selection.UNION),
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
    # Each step's join conditions, in path order; identity is the tables alone.
    conditions: tuple[str, ...] = field(default=(), compare=False)
    key: tuple[str, ...] = field(init=False, repr=False, compare=False)  # casefolded tables

    def __post_init__(self) -> None:
        object.__setattr__(self, "tables", tuple(self.tables))
        if not self.tables:
            raise ValueError("a join path needs at least one table")
        key = tuple(map(str.casefold, self.tables))
        if len(set(key)) != len(key):
            raise ValueError("join path tables must be pairwise distinct")
        object.__setattr__(self, "key", key)

    @property
    def length(self) -> int:
        return len(self.tables) - 1


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


def _shortest_path_dag(
    graph: SchemaGraph, src: str, dst: str
) -> tuple[str, str, dict[str, list[str]], int]:
    """Breadth-first search from src that stops after dst's layer.

    Returns both ends resolved; for each node reached, its neighbours one
    layer nearer src; and the number of shortest paths from src to dst,
    counted as the search goes (Brandes' sigma), 0 when dst is unreachable.
    """
    start = graph.resolve_node(src)
    goal = graph.resolve_node(dst)
    if start is None:
        raise UnknownTableError(f"not a table in this graph: {src!r}")
    if goal is None:
        raise UnknownTableError(f"not a table in this graph: {dst!r}")
    preds: dict[str, list[str]] = {start: []}
    if start == goal:
        return start, goal, preds, 1

    adjacency = graph.adjacency
    dist: dict[str, int] = {start: 0}
    sigma: dict[str, int] = {start: 1}
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
                sigma[neighbor] = sigma[node]
                if neighbor == goal:
                    goal_dist = depth + 1
                queue.append(neighbor)
            elif dist[neighbor] == depth + 1:
                preds[neighbor].append(node)
                sigma[neighbor] += sigma[node]
    return start, goal, preds, sigma.get(goal, 0)


def _path_tables(preds: dict[str, list[str]], goal: str) -> set[str]:
    """Every table on a shortest path to a reachable goal."""
    seen = {goal}
    stack = [goal]
    while stack:
        for pred in preds[stack.pop()]:
            if pred not in seen:
                seen.add(pred)
                stack.append(pred)
    return seen


def all_shortest_paths(graph: SchemaGraph, src: str, dst: str) -> list[JoinPath]:
    """Every simple path of minimal length from src to dst.

    Identical endpoints yield the single zero-length path; unreachable
    endpoints yield an empty list. Results are ordered lexicographically by
    table-name sequence.
    """
    start, goal, preds, count = _shortest_path_dag(graph, src, dst)
    return list(_dag_paths(graph, start, goal, preds)) if count else []


def _dag_paths(
    graph: SchemaGraph, start: str, goal: str, preds: dict[str, list[str]]
) -> tuple[JoinPath, ...]:
    """Every path, with its join conditions, through a predecessor DAG, in name order."""
    paths: list[JoinPath] = []
    stack: list[tuple[str, tuple[str, ...]]] = [(goal, (goal,))]
    while stack:
        node, tail = stack.pop()
        if node == start:
            paths.append(JoinPath(tail, graph.join_conditions(tail)))
            continue
        for pred in preds[node]:
            stack.append((pred, (pred,) + tail))
    paths.sort(key=attrgetter("key"))
    return tuple(paths)


def _dedupe_keep_order(names: Sequence[str]) -> list[str]:
    first: dict[str, str] = {}
    for name in names:
        first.setdefault(name.casefold(), name)
    return list(first.values())


# More merged paths than this are not enumerated: every mode takes their union.
MAX_CANDIDATES = 64


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
    instead of failing the question.

    One search per pair counts its paths, and under the cap builds them
    from that search's predecessor DAG. When there are more than
    ``MAX_CANDIDATES`` in all, none is built: the set has no paths, its
    union is every table on a shortest path of a kept pair (plus the
    standalone endpoints), and a diagnostic names the count and the cap.

    Each pair of tables, in either order, is searched once per graph: its
    enumerated paths, each holding its join conditions, are kept in
    ``graph.path_cache``. A pair of a capped set stores nothing there.
    """
    src_list, dst_list = config.kept(
        _dedupe_keep_order(sources), _dedupe_keep_order(destinations)
    )
    if not src_list:
        raise EmptyEndpointsError("no source tables to search from")
    if not dst_list:
        raise EmptyEndpointsError("no destination tables to search for")

    diagnostics: list[str] = []
    collected: dict[tuple[str, ...], JoinPath] = {}
    cache = graph.path_cache
    searched: dict[tuple[str, str], tuple] = {}  # uncached pairs: (start, goal, preds, count)
    for src, dst in product(src_list, dst_list):
        a, b = src.casefold(), dst.casefold()
        key = (a, b) if a <= b else (b, a)  # one entry per pair of tables
        if searched and key in searched:  # met reversed earlier in this call
            count = searched[key][3]
        elif (found := cache.get(key)) is not None:
            collected.update((path.tables, path) for path in found)
            count = len(found)
        else:
            # From the end that sorts first: each path comes out oriented as merged.
            ends = (src, dst) if a <= b else (dst, src)
            searched[key] = _shortest_path_dag(graph, *ends)
            start, goal, _, count = searched[key]
            if start == goal:
                collected[(start,)] = JoinPath((start,))
        if not count:
            diagnostics.append(
                f"no join path between {src!r} and {dst!r}; keeping both as "
                "standalone candidates"
            )
            for name in (src, dst):
                resolved = graph.resolve_node(name)
                collected[(resolved,)] = JoinPath((resolved,))

    # A path of two or more tables joins one pair only, so the count is exact.
    total = len(collected)
    if searched:
        total += sum(entry[3] for (lo, hi), entry in searched.items() if lo != hi)
    capped = total > MAX_CANDIDATES
    if capped:
        paths: tuple[JoinPath, ...] = ()
        union = {table for tables in collected for table in tables}
        for _, goal, preds, count in searched.values():
            if count:
                union |= _path_tables(preds, goal)
    else:
        for key, (start, goal, preds, count) in searched.items():
            found = _dag_paths(graph, start, goal, preds) if count else ()
            # record-mode threads may race here; the first equal value wins
            found = cache.setdefault(key, found)
            collected.update((path.tables, path) for path in found)
        paths = tuple(sorted(collected.values(), key=attrgetter("key")))
        union = (table for path in paths for table in path.tables)
    if diagnostics:
        # Exactly when a pair has no join path: when all are joined, any two
        # paths meet through a third that shares an endpoint with each.
        diagnostics.append("union of candidate paths is not a connected subgraph")
    if capped:
        diagnostics.append(
            f"{total} candidate paths exceed the cap of {MAX_CANDIDATES}; "
            "none enumerated, linking to their union"
        )
    return CandidateSet(
        paths=paths, union_tables=frozenset(union), diagnostics=tuple(diagnostics)
    )


def render_path(path: JoinPath) -> str:
    """Render one candidate as "A -> B (join: A.x = B.y)"."""
    arrow = " -> ".join(path.tables)
    if path.conditions:
        return f"{arrow} (join: {', '.join(path.conditions)})"
    return arrow


def render_candidate_lines(candidates: CandidateSet, include_union: bool) -> list[str]:
    """Number the candidates for presentation to the path selector."""
    lines = [
        f"path_id={i}: {render_path(path)}" for i, path in enumerate(candidates.paths, start=1)
    ]
    if include_union:
        union = ", ".join(sorted(candidates.union_tables, key=str.casefold))
        lines.append(f"path_id={len(candidates.paths) + 1}: UNION {{{union}}}")
    return lines


PathSelector = Callable[[list[str]], int]


def select_path(
    candidates: CandidateSet, config: LinkerConfig, selector: PathSelector
) -> PathSelection:
    """Pick the final table set from a candidate set by ``config.selection``.

    A capped set (no paths, a union) gives its union under every rule.
    Otherwise ``UNION`` gives the union and ``LONGEST`` the longest path,
    ties broken by name. Under the two selector rules a sole candidate wins
    outright, and only then is the selector shown the numbered paths, plus
    the union as a last line under ``SELECTOR``. An unusable selector
    verdict falls back to the union so a question never dies on a
    malformed reply.
    """
    if not candidates.paths:
        if not candidates.union_tables:
            raise ValueError("candidate set is empty")
        return PathSelection(candidates.union_tables, None, "capped_union")
    if config.selection is Selection.UNION:
        return PathSelection(candidates.union_tables, None, "forced_union")
    if config.selection is Selection.LONGEST:
        index = min(
            range(len(candidates.paths)),
            key=lambda i: (-candidates.paths[i].length, candidates.paths[i].key),
        )
        return PathSelection(
            frozenset(candidates.paths[index].tables), index + 1, "longest"
        )
    if len(candidates.paths) == 1:
        return PathSelection(frozenset(candidates.paths[0].tables), 1, "sole_candidate")

    include_union = config.selection is Selection.SELECTOR
    lines = render_candidate_lines(candidates, include_union)
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
    endpoints: EndpointOracle,
    path_oracle: PathOracle,
    evidence: str | None = None,
) -> Callable[[LinkerConfig], LinkResult]:
    """Link one question; the returned function gives its result under a config.

    ``endpoints`` nominates source and destination tables once; when it
    raises, every config raises that error. ``path_oracle`` picks among
    candidates under the two selector rules. A degraded extraction links
    every config to the whole schema under rule ``degraded_union``, with no
    search and no selector call. Otherwise, for this question only,
    candidate sets are kept by the nominated (sources, destinations) that a
    config keeps, and results by those and ``selection``: configs with one
    such plan share one result object.
    """
    extraction = None
    candidate_sets: dict[tuple, CandidateSet] = {}
    results: dict[tuple, LinkResult] = {}
    selector = partial(path_oracle, question)

    def link_config(config: LinkerConfig) -> LinkResult:
        nonlocal extraction
        if extraction is None:
            try:
                extraction = endpoints(question, schema, evidence)
            except Exception as exc:  # sent once; each pending config records it
                extraction = exc
        if isinstance(extraction, Exception):
            raise extraction
        sources, destinations = tuple(extraction.sources), tuple(extraction.destinations)
        degraded = bool(getattr(extraction, "degraded", False))
        kept = config.kept(sources, destinations)
        plan = None if degraded else (kept, config.selection)
        if plan in results:
            return results[plan]
        if degraded:
            tables = frozenset(schema.table_names)
            candidates = CandidateSet(paths=(), union_tables=tables)
            selection = PathSelection(tables, None, "degraded_union")
        else:
            candidates = candidate_sets.get(kept)
            if candidates is None:
                candidates = candidate_sets[kept] = build_candidates(graph, *kept, config)
            selection = select_path(candidates, config, selector)

        warnings = tuple(extraction.warnings) + candidates.diagnostics + selection.warnings
        results[plan] = LinkResult(
            sources=sources,
            destinations=destinations,
            candidates=candidates,
            chosen_tables=selection.chosen_tables,
            chosen_path_id=selection.chosen_path_id,
            selection_rule=selection.rule,
            warnings=warnings,
            degraded=degraded,
        )
        return results[plan]

    return link_config
