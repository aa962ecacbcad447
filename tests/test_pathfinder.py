import random
from itertools import product

import pytest

from schema_linker import all_shortest_paths, build_candidates, preset
from schema_linker.errors import (
    EmptyEndpointsError,
    OutOfRangeError,
    ReplyParseError,
    UnknownTableError,
)
from schema_linker.llm import EndpointExtraction
from schema_linker.pathfinder import (
    CandidateSet,
    EndpointKeep,
    JoinPath,
    LinkerConfig,
    MODE_LABELS,
    MODE_PRESETS,
    UnionMode,
    canonical_mode_name,
    link,
    render_candidate_lines,
    render_path,
    select_path,
)
from schema_linker.schema_model import (
    ColumnDef,
    FkProvenance,
    ForeignKeyEdge,
    Schema,
    SchemaGraph,
    TableDef,
    augment_sparse_graph,
    build_graph,
)

from oracle_paths import (
    brute_shortest_paths,
    brute_union,
    graph_from_adjacency,
    is_connected,
    random_adjacency,
)
from reference_render import wide_schema


def graph_of(*pairs):
    adj: dict[str, set[str]] = {}
    for a, b in pairs:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    return graph_from_adjacency(adj)


MODE4 = preset("mode4")
MODE7 = preset("mode7")


def never_called(lines):
    raise AssertionError("selector must not be consulted")


class TestAllShortestPaths:
    def test_single_edge(self):
        graph = graph_of(("a", "b"))
        assert [p.tables for p in all_shortest_paths(graph, "a", "b")] == [("a", "b")]

    def test_identical_endpoints_degenerate_path(self):
        graph = graph_of(("a", "b"))
        assert [p.tables for p in all_shortest_paths(graph, "b", "b")] == [("b",)]

    def test_unreachable_pair_is_empty(self):
        graph = graph_of(("a", "b"), ("c", "d"))
        assert all_shortest_paths(graph, "a", "c") == []

    def test_unknown_table_rejected(self):
        graph = graph_of(("a", "b"))
        with pytest.raises(UnknownTableError):
            all_shortest_paths(graph, "a", "nope")
        with pytest.raises(UnknownTableError):
            all_shortest_paths(graph, "nope", "a")

    def test_diamond_keeps_both_branches(self):
        graph = graph_of(("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"))
        assert [p.tables for p in all_shortest_paths(graph, "a", "d")] == [
            ("a", "b", "d"),
            ("a", "c", "d"),
        ]

    def test_longer_route_excluded(self):
        # a-b-d is shorter than a-b-c-d even though both reach d
        graph = graph_of(("a", "b"), ("b", "c"), ("c", "d"), ("b", "d"))
        assert [p.tables for p in all_shortest_paths(graph, "a", "d")] == [
            ("a", "b", "d"),
        ]

    def test_case_insensitive_endpoint_lookup(self, retail_graph):
        paths = all_shortest_paths(retail_graph, "CUSTOMERS", "Orders")
        assert [p.tables for p in paths] == [("customers", "orders")]

    def test_retail_two_route_pair(self, retail_graph):
        paths = all_shortest_paths(retail_graph, "customers", "products")
        assert [p.tables for p in paths] == [
            ("customers", "orders", "order_items", "products"),
            ("customers", "orders", "reviews", "products"),
        ]

    def test_matches_brute_force_on_random_graphs(self):
        rng = random.Random(20240817)
        for _ in range(60):
            adj = random_adjacency(rng, rng.randint(2, 9), 0.3)
            graph = graph_from_adjacency(adj)
            nodes = sorted(adj)
            for src in nodes:
                for dst in nodes:
                    got = [p.tables for p in all_shortest_paths(graph, src, dst)]
                    assert got == brute_shortest_paths(adj, src, dst), (
                        adj,
                        src,
                        dst,
                    )


class TestModePresets:
    def test_matrix(self):
        assert MODE_PRESETS["mode1"] == LinkerConfig(
            EndpointKeep.ONE, EndpointKeep.ONE, False, UnionMode.APPEND_UNION
        )
        assert MODE_PRESETS["mode2"] == LinkerConfig(
            EndpointKeep.ONE, EndpointKeep.ALL, False, UnionMode.APPEND_UNION
        )
        assert MODE_PRESETS["mode3"] == LinkerConfig(
            EndpointKeep.ALL, EndpointKeep.ONE, False, UnionMode.APPEND_UNION
        )
        assert MODE_PRESETS["mode4"] == LinkerConfig(
            EndpointKeep.ALL, EndpointKeep.ALL, False, UnionMode.APPEND_UNION
        )
        assert MODE_PRESETS["mode5"] == LinkerConfig(
            EndpointKeep.ALL, EndpointKeep.ALL, True, UnionMode.APPEND_UNION
        )
        assert MODE_PRESETS["mode6"] == LinkerConfig(
            EndpointKeep.ALL, EndpointKeep.ALL, False, UnionMode.NO_UNION
        )
        assert MODE_PRESETS["mode7"] == LinkerConfig(
            EndpointKeep.ALL, EndpointKeep.ALL, False, UnionMode.FORCE_UNION
        )

    def test_labels_round_trip_as_aliases(self):
        for mode, label in MODE_LABELS.items():
            assert canonical_mode_name(label) == mode
            assert preset(label) == MODE_PRESETS[mode]

    def test_name_normalization(self):
        assert canonical_mode_name(" MODE7 ") == "mode7"
        assert canonical_mode_name("Force-Union") == "mode7"

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            preset("mode9")
        with pytest.raises(ValueError):
            canonical_mode_name("both")


class TestJoinPath:
    def test_invariants(self):
        with pytest.raises(ValueError):
            JoinPath(())
        with pytest.raises(ValueError):
            JoinPath(("a", "b", "A"))
        assert JoinPath(("a",)).length == 0
        assert JoinPath(("a", "b", "c")).length == 2

    def test_sort_key_casefolds(self):
        assert JoinPath(("B", "a")).sort_key() == ("b", "a")


class TestBuildCandidates:
    def test_endpoint_dedupe_is_case_insensitive(self, retail_graph):
        candidates = build_candidates(
            retail_graph, ["Orders", "orders"], ["customers"], MODE4
        )
        assert [p.tables for p in candidates.paths] == [("customers", "orders")]

    def test_one_keep_truncates_to_first(self, retail_graph):
        narrowed = build_candidates(
            retail_graph, ["orders", "customers"], ["products"], preset("mode1")
        )
        assert [p.tables for p in narrowed.paths] == [
            ("orders", "order_items", "products"),
            ("orders", "reviews", "products"),
        ]
        widened = build_candidates(
            retail_graph, ["orders", "customers"], ["products"], preset("mode3")
        )
        assert [p.tables for p in widened.paths] == [
            ("customers", "orders", "order_items", "products"),
            ("customers", "orders", "reviews", "products"),
            ("orders", "order_items", "products"),
            ("orders", "reviews", "products"),
        ]

    def test_empty_sides_rejected(self, retail_graph):
        with pytest.raises(EmptyEndpointsError):
            build_candidates(retail_graph, [], ["customers"], MODE4)
        with pytest.raises(EmptyEndpointsError):
            build_candidates(retail_graph, ["customers"], [], MODE4)

    def test_reversed_pair_gives_identical_candidates(self, retail_graph):
        forward = build_candidates(retail_graph, ["customers"], ["products"], MODE4)
        backward = build_candidates(retail_graph, ["products"], ["customers"], MODE4)
        assert forward.paths == backward.paths
        assert forward.union_tables == backward.union_tables

    def test_orientation_is_lexicographically_smaller(self):
        graph = graph_of(("zeta", "mid"), ("mid", "alpha"))
        candidates = build_candidates(graph, ["zeta"], ["alpha"], MODE4)
        assert [p.tables for p in candidates.paths] == [("alpha", "mid", "zeta")]

    def test_disconnected_pair_keeps_both_standalone(self):
        graph = graph_of(("a", "b"), ("c", "d"))
        candidates = build_candidates(graph, ["a"], ["c"], MODE4)
        assert [p.tables for p in candidates.paths] == [("a",), ("c",)]
        assert candidates.union_tables == frozenset({"a", "c"})
        assert any("no join path" in d for d in candidates.diagnostics)
        assert any("not a connected subgraph" in d for d in candidates.diagnostics)

    def test_connected_union_has_no_diagnostic(self, retail_graph):
        candidates = build_candidates(
            retail_graph, ["customers"], ["products"], MODE4
        )
        assert candidates.diagnostics == ()

    def test_unknown_endpoint_raises(self, retail_graph):
        with pytest.raises(UnknownTableError):
            build_candidates(retail_graph, ["customers"], ["ghost"], MODE4)

    def test_union_matches_brute_force_on_random_graphs(self):
        rng = random.Random(99)
        for _ in range(40):
            adj = random_adjacency(rng, rng.randint(2, 8), 0.35)
            graph = graph_from_adjacency(adj)
            nodes = sorted(adj)
            sources = rng.sample(nodes, k=min(2, len(nodes)))
            destinations = rng.sample(nodes, k=min(2, len(nodes)))
            candidates = build_candidates(graph, sources, destinations, MODE4)
            assert set(candidates.union_tables) == brute_union(
                adj, sources, destinations
            )

    def test_disconnected_union_diagnostic_matches_a_reference_bfs(self):
        rng = random.Random(2024)
        disconnected = 0
        for _ in range(300):
            adj = random_adjacency(rng, rng.randint(2, 9), rng.choice([0.1, 0.2, 0.35]))
            graph = graph_from_adjacency(adj)
            nodes = sorted(adj)
            sources = rng.choices(nodes, k=rng.randint(1, 3))
            destinations = rng.choices(nodes, k=rng.randint(1, 3))
            for mode in MODE_PRESETS:
                candidates = build_candidates(graph, sources, destinations, preset(mode))
                union = set(candidates.union_tables)
                expected = not is_connected(adj, union)
                flagged = "union of candidate paths is not a connected subgraph"
                case = (adj, sources, destinations, mode)
                assert (flagged in candidates.diagnostics) == expected, case
                assert not expected or candidates.diagnostics[-1] == flagged
                disconnected += expected
        assert disconnected > 100


# Raw and case-insensitive order disagree on these names ("Beta" < "alpha").
MIXED_CASE_NAMES = ["alpha", "Beta", "GAMMA", "delta", "Epsilon", "zeta", "Eta", "THETA", "iota"]


def mixed_case_adjacency(rng, n_nodes, edge_prob):
    names = rng.sample(MIXED_CASE_NAMES, n_nodes)
    adj = {name: set() for name in names}
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            if rng.random() < edge_prob:
                adj[a].add(b)
                adj[b].add(a)
    return adj


def reference_merge(graph, sources, destinations, config):
    """A plain build_candidates: every pair searched afresh, and each path
    oriented and deduplicated by its sort_key as it is merged."""
    src_list, dst_list = [], []
    for names, out in ((sources, src_list), (destinations, dst_list)):
        for name in names:
            if name.casefold() not in {kept.casefold() for kept in out}:
                out.append(name)
    if config.keep_sources is EndpointKeep.ONE:
        src_list = src_list[:1]
    if config.keep_destinations is EndpointKeep.ONE:
        dst_list = dst_list[:1]
    diagnostics = []
    collected = {}

    def add(path):
        seq = path.sort_key()
        rev = seq[::-1]
        if rev < seq:
            path = JoinPath(path.tables[::-1])
            seq = rev
        collected.setdefault(seq, path)

    for src, dst in product(src_list, dst_list):
        found = all_shortest_paths(graph, src, dst)
        for path in found:
            add(path)
        if not found:
            diagnostics.append(
                f"no join path between {src!r} and {dst!r}; keeping both as "
                "standalone candidates"
            )
            for name in (src, dst):
                add(JoinPath((graph.resolve_node(name),)))
    paths = tuple(sorted(collected.values(), key=JoinPath.sort_key))
    if diagnostics:
        diagnostics.append("union of candidate paths is not a connected subgraph")
    union = frozenset(table for path in paths for table in path.tables)
    return CandidateSet(paths=paths, union_tables=union, diagnostics=tuple(diagnostics))


class TestMergeMatchesReference:
    def test_random_graphs_all_modes_cold_and_warm(self):
        rng = random.Random(4711)
        reversed_pairs = 0
        for _ in range(150):
            adj = mixed_case_adjacency(rng, rng.randint(2, 9), rng.choice([0.15, 0.3, 0.5]))
            warm = graph_from_adjacency(adj)
            nodes = list(adj)
            pick = lambda: [  # noqa: E731
                name.swapcase() if rng.random() < 0.3 else name
                for name in rng.choices(nodes, k=rng.randint(1, 3))
            ]
            sources, destinations = pick(), pick()
            reversed_pairs += any(
                d.casefold() < s.casefold() for s, d in product(sources, destinations)
            )
            for mode in MODE_PRESETS:
                config = preset(mode)
                expected = reference_merge(warm, sources, destinations, config)
                cold = build_candidates(
                    SchemaGraph(warm.nodes, warm.edges), sources, destinations, config
                )
                case = (adj, sources, destinations, mode)
                assert cold == expected, case
                for _ in range(2):  # the first call may still fill some pairs
                    assert build_candidates(warm, sources, destinations, config) == expected
        assert reversed_pairs > 50


def reference_keys(schema, graph, chosen_tables):
    """The induced and augmented keys by a linear scan over every key."""
    chosen = {table.casefold() for table in chosen_tables}
    within = lambda fk: (  # noqa: E731
        fk.from_table.casefold() in chosen and fk.to_table.casefold() in chosen
    )
    induced = tuple(fk for fk in schema.foreign_keys if within(fk))
    augmented = tuple(
        fk
        for edge in graph.edges
        for fk in edge.justifications
        if fk.provenance is FkProvenance.ID_AUGMENTED and within(fk)
    )
    return induced, augmented


def sparse_schema(rng):
    """Too few edges for path search, so shared id columns get augmented.

    Keys name their tables in non-canonical casing; the first table
    references itself and the second references the third twice.
    """
    names = rng.sample(MIXED_CASE_NAMES, rng.randint(3, 7))
    extra = ["node_id", "Owner_ID", "label", "id_code"]
    tables = []
    for i, name in enumerate(names):
        columns = [ColumnDef("id", "INTEGER", is_primary_key=True)]
        columns += [ColumnDef(col) for col in extra if rng.random() < 0.5]
        columns += [ColumnDef(col) for col in ("parent", "a_ref", "b_ref") if i < 2]
        tables.append(TableDef(name, tuple(columns)))
    keys = [
        ForeignKeyEdge(names[0].upper(), "parent", names[0].swapcase(), "ID"),
        ForeignKeyEdge(names[1].swapcase(), "b_ref", names[2].upper(), "id"),
        ForeignKeyEdge(names[1], "a_ref", names[2].swapcase(), "Id"),
    ]
    rng.shuffle(keys)
    return Schema(database_id="sparse", tables=tuple(tables), foreign_keys=tuple(keys))


class TestLinkKeyOrderMatchesReference:
    def test_random_schemas_and_chosen_sets(self):
        rng = random.Random(8086)
        schemas = [wide_schema(rng.randint(8, 30), rng.randint(5, 40), seed) for seed in range(6)]
        schemas += [sparse_schema(rng) for _ in range(12)]
        longest_induced = with_augmented = 0
        for schema in schemas:
            graph = augment_sparse_graph(build_graph(schema), schema)
            names = schema.table_names
            for _ in range(25):
                chosen = rng.sample(names, rng.randint(1, min(len(names), 8)))
                chosen = [name.swapcase() if rng.random() < 0.3 else name for name in chosen]
                sources = chosen[: rng.randint(1, len(chosen))]
                destinations = chosen[len(sources) - 1 :]
                result = link(
                    "q",
                    schema,
                    graph,
                    preset(rng.choice(list(MODE_PRESETS))),
                    self.endpoints(sources, destinations),
                    path_oracle=lambda question, lines: rng.randint(1, len(lines)),
                )
                induced, augmented = reference_keys(schema, graph, result.chosen_tables)
                assert result.induced_fk_edges == induced
                assert result.augmented_join_edges == augmented
                longest_induced = max(longest_induced, len(induced))
                with_augmented += len(augmented) > 1
        assert longest_induced >= 5
        assert with_augmented > 20

    @staticmethod
    def endpoints(sources, destinations):
        extraction = EndpointExtraction(sources=tuple(sources), destinations=tuple(destinations))
        return lambda question, schema, evidence: extraction


class TestRendering:
    def test_render_path_with_join_conditions(self, retail_graph):
        path = JoinPath(("customers", "orders"))
        assert (
            render_path(path, retail_graph)
            == "customers -> orders (join: orders.customer_id = customers.customer_id)"
        )

    def test_render_path_without_graph_or_joins(self):
        assert render_path(JoinPath(("a", "b"))) == "a -> b"
        assert render_path(JoinPath(("solo",)), graph_of(("a", "b"))) == "solo"

    def test_candidate_lines_numbering_and_union(self, retail_graph):
        candidates = build_candidates(
            retail_graph, ["customers"], ["products"], MODE4
        )
        lines = render_candidate_lines(candidates, include_union=True)
        assert lines == [
            "path_id=1: customers -> orders -> order_items -> products",
            "path_id=2: customers -> orders -> reviews -> products",
            "path_id=3: UNION {customers, order_items, orders, products, reviews}",
        ]
        without = render_candidate_lines(candidates, include_union=False)
        assert len(without) == 2
        assert not any("UNION" in line for line in without)


def two_path_candidates(retail_graph) -> CandidateSet:
    return build_candidates(retail_graph, ["customers"], ["products"], MODE4)


class TestSelectPath:
    def test_empty_candidates_rejected(self):
        empty = CandidateSet(paths=(), union_tables=frozenset())
        with pytest.raises(ValueError):
            select_path(empty, MODE4)

    def test_forced_union_skips_selector(self, retail_graph):
        candidates = two_path_candidates(retail_graph)
        selection = select_path(candidates, MODE7, never_called)
        assert selection.rule == "forced_union"
        assert selection.chosen_path_id is None
        assert selection.chosen_tables == candidates.union_tables

    def test_longest_rule_prefers_length_then_name(self, retail_graph):
        candidates = two_path_candidates(retail_graph)
        selection = select_path(candidates, preset("mode5"), never_called)
        assert selection.rule == "longest"
        assert selection.chosen_path_id == 1  # equal lengths; name order decides
        assert selection.chosen_tables == frozenset(
            {"customers", "orders", "order_items", "products"}
        )

    def test_longest_rule_prefers_longer_path(self):
        graph = graph_of(("a", "b"), ("c", "d"), ("d", "e"))
        candidates = build_candidates(graph, ["a", "c"], ["b", "e"], MODE4)
        selection = select_path(candidates, preset("mode5"))
        chosen = candidates.paths[selection.chosen_path_id - 1]
        assert chosen.tables == ("c", "d", "e")

    def test_sole_candidate_short_circuits(self, retail_graph):
        candidates = build_candidates(retail_graph, ["orders"], ["customers"], MODE4)
        selection = select_path(candidates, MODE4, never_called)
        assert selection.rule == "sole_candidate"
        assert selection.chosen_path_id == 1

    def test_selector_choice_wins(self, retail_graph):
        candidates = two_path_candidates(retail_graph)
        selection = select_path(candidates, MODE4, lambda lines: 2, retail_graph)
        assert selection.rule == "selector"
        assert selection.chosen_tables == frozenset(
            {"customers", "orders", "reviews", "products"}
        )

    def test_selector_may_pick_the_union_line(self, retail_graph):
        candidates = two_path_candidates(retail_graph)
        selection = select_path(candidates, MODE4, lambda lines: len(lines))
        assert selection.rule == "selector"
        assert selection.chosen_path_id == 3
        assert selection.chosen_tables == candidates.union_tables

    def test_no_union_line_means_last_id_is_a_path(self, retail_graph):
        candidates = two_path_candidates(retail_graph)
        seen: list[list[str]] = []

        def grab(lines):
            seen.append(lines)
            return len(lines)

        selection = select_path(candidates, preset("mode6"), grab)
        assert len(seen[0]) == 2
        assert selection.chosen_tables == frozenset(candidates.paths[1].tables)

    @pytest.mark.parametrize(
        "boom",
        [ReplyParseError("no id"), OutOfRangeError("path_id 9 outside 1..3")],
    )
    def test_selector_errors_fall_back_to_union(self, retail_graph, boom):
        candidates = two_path_candidates(retail_graph)

        def failing(lines):
            raise boom

        selection = select_path(candidates, MODE4, failing)
        assert selection.rule == "fallback_union"
        assert selection.chosen_path_id is None
        assert selection.chosen_tables == candidates.union_tables
        assert boom.code in selection.warnings[0]

    def test_invalid_selector_id_falls_back(self, retail_graph):
        candidates = two_path_candidates(retail_graph)
        selection = select_path(candidates, MODE4, lambda lines: 0)
        assert selection.rule == "fallback_union"
        assert "invalid path_id 0" in selection.warnings[0]

    def test_missing_selector_falls_back_with_warning(self, retail_graph):
        candidates = two_path_candidates(retail_graph)
        selection = select_path(candidates, MODE4, None)
        assert selection.rule == "fallback_union"
        assert selection.warnings


class TestLinkPipeline:
    def endpoints(self, sources, destinations, **kwargs):
        extraction = EndpointExtraction(
            sources=sources, destinations=destinations, **kwargs
        )
        return lambda question, schema, evidence: extraction

    def test_forced_union_result(self, retail_schema, retail_graph):
        result = link(
            "units per product for Alice",
            retail_schema,
            retail_graph,
            MODE7,
            self.endpoints(("customers",), ("products",)),
        )
        assert result.union_selected
        assert result.chosen_path_id is None
        assert result.selection_rule == "forced_union"
        assert result.chosen_tables == frozenset(
            {"customers", "orders", "order_items", "products", "reviews"}
        )
        induced = {
            (fk.from_table, fk.from_column, fk.to_table, fk.to_column)
            for fk in result.induced_fk_edges
        }
        # every declared key lives inside the chosen set except products->suppliers
        assert ("products", "supplier_id", "suppliers", "supplier_id") not in induced
        assert len(induced) == 5
        assert result.augmented_join_edges == ()
        assert not result.degraded

    def test_selector_path_and_chosen_path_accessor(
        self, retail_schema, retail_graph
    ):
        result = link(
            "q",
            retail_schema,
            retail_graph,
            MODE4,
            self.endpoints(("customers",), ("products",)),
            path_oracle=lambda question, lines: 1,
        )
        assert not result.union_selected
        assert result.chosen_path().tables == (
            "customers",
            "orders",
            "order_items",
            "products",
        )
        induced = {(fk.from_table, fk.to_table) for fk in result.induced_fk_edges}
        assert induced == {
            ("orders", "customers"),
            ("order_items", "orders"),
            ("order_items", "products"),
        }

    def test_extraction_warnings_and_degraded_flag_propagate(
        self, retail_schema, retail_graph
    ):
        result = link(
            "q",
            retail_schema,
            retail_graph,
            MODE7,
            self.endpoints(
                ("customers",),
                ("customers",),
                warnings=("unknown table 'shipments' dropped from reply",),
                degraded=True,
            ),
        )
        assert result.degraded
        assert any("shipments" in w for w in result.warnings)

    def test_self_referencing_key_is_induced(self):
        schema = Schema(
            database_id="d",
            tables=(
                TableDef(
                    name="employee",
                    columns=(ColumnDef("eid"), ColumnDef("manager")),
                ),
                TableDef(name="office", columns=(ColumnDef("eid"),)),
            ),
            foreign_keys=(
                ForeignKeyEdge("employee", "manager", "employee", "eid"),
                ForeignKeyEdge("employee", "eid", "office", "eid"),
            ),
        )
        graph = build_graph(schema)
        result = link(
            "q",
            schema,
            graph,
            MODE7,
            self.endpoints(("employee",), ("office",)),
        )
        induced = {(fk.from_table, fk.to_table) for fk in result.induced_fk_edges}
        assert ("employee", "employee") in induced
        assert ("employee", "office") in induced

    def test_augmented_edges_reported_when_used(self):
        schema = Schema(
            database_id="d",
            tables=(
                TableDef(name="a", columns=(ColumnDef("node_id"),)),
                TableDef(name="b", columns=(ColumnDef("node_id"),)),
            ),
        )
        graph = augment_sparse_graph(build_graph(schema), schema)
        result = link(
            "q", schema, graph, MODE7, self.endpoints(("a",), ("b",))
        )
        assert result.induced_fk_edges == ()
        (fk,) = result.augmented_join_edges
        assert (fk.from_table, fk.to_table) == ("a", "b")
