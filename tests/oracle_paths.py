"""Brute-force path enumeration used as an independent reference.

Deliberately naive: enumerate every simple path by depth-first search and
keep the minimal-length ones. Slow but obviously correct, which is the
point; the fast search in the package is checked against this.
"""

from __future__ import annotations

import random

from schema_linker.schema_model import ForeignKeyEdge, GraphEdge, SchemaGraph


def all_simple_paths(adj: dict[str, set[str]], src: str, dst: str) -> list[tuple[str, ...]]:
    out: list[tuple[str, ...]] = []

    def walk(node: str, path: list[str], visited: set[str]) -> None:
        if node == dst:
            out.append(tuple(path))
            return
        for neighbor in sorted(adj[node]):
            if neighbor not in visited:
                visited.add(neighbor)
                path.append(neighbor)
                walk(neighbor, path, visited)
                path.pop()
                visited.discard(neighbor)

    walk(src, [src], {src})
    return out


def brute_shortest_paths(adj: dict[str, set[str]], src: str, dst: str) -> list[tuple[str, ...]]:
    if src == dst:
        return [(src,)]
    paths = all_simple_paths(adj, src, dst)
    if not paths:
        return []
    shortest = min(len(p) for p in paths)
    return sorted(p for p in paths if len(p) == shortest)


def brute_union(adj: dict[str, set[str]], sources, destinations) -> set[str]:
    """Union of tables on any shortest path over all endpoint pairs,
    with disconnected pairs contributing both endpoints standalone."""
    union: set[str] = set()
    for src in sources:
        for dst in destinations:
            paths = brute_shortest_paths(adj, src, dst)
            if paths:
                for path in paths:
                    union.update(path)
            else:
                union.update((src, dst))
    return union


def is_connected(adj: dict[str, set[str]], tables: set[str]) -> bool:
    """Whether the subgraph induced by tables is connected, by BFS."""
    start = next(iter(tables))
    seen, frontier = {start}, [start]
    while frontier:
        node = frontier.pop()
        for neighbor in adj[node] & tables - seen:
            seen.add(neighbor)
            frontier.append(neighbor)
    return seen == tables


def random_adjacency(rng: random.Random, n_nodes: int, edge_prob: float) -> dict[str, set[str]]:
    nodes = [f"t{i:02d}" for i in range(n_nodes)]
    adj: dict[str, set[str]] = {node: set() for node in nodes}
    for i in range(n_nodes):
        for j in range(i + 1, n_nodes):
            if rng.random() < edge_prob:
                adj[nodes[i]].add(nodes[j])
                adj[nodes[j]].add(nodes[i])
    return adj


def graph_from_adjacency(adj: dict[str, set[str]]) -> SchemaGraph:
    """Wrap a plain adjacency dict as a SchemaGraph with dummy justifications."""
    nodes = tuple(sorted(adj, key=str.casefold))
    edges = []
    seen: set[tuple[str, str]] = set()
    for a in nodes:
        for b in adj[a]:
            key = (min(a, b), max(a, b))
            if key in seen:
                continue
            seen.add(key)
            edges.append(
                GraphEdge(
                    tables=key,
                    justifications=(
                        ForeignKeyEdge(
                            from_table=key[0],
                            from_column="id",
                            to_table=key[1],
                            to_column="id",
                        ),
                    ),
                )
            )
    edges.sort(key=lambda edge: edge.tables)
    return SchemaGraph(nodes=nodes, edges=tuple(edges))
