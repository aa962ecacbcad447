import gc
import random
import sqlite3

import pytest

from schema_linker.errors import ParseError, UnknownTableError
from schema_linker.llm import EndpointExtraction
from schema_linker.pathfinder import MODE_PRESETS, JoinPath, link
from schema_linker.schema_model import (
    ColumnDef,
    FkProvenance,
    ForeignKeyEdge,
    GraphEdge,
    Schema,
    SchemaGraph,
    TableDef,
    join_condition,
)
from schema_linker.sql_analysis import (
    extract_tables,
    render_filtered_schema,
    render_join_path,
    render_schema,
)

from reference_render import reference_render, wide_schema
from sql_fixture_queries import EXTRACTION_FIXTURES, NO_FROM_QUERIES


class TestExtraction:
    @pytest.mark.parametrize(
        "label,sql,tables,unresolved",
        EXTRACTION_FIXTURES,
        ids=[row[0] for row in EXTRACTION_FIXTURES],
    )
    def test_hand_labeled_queries(self, retail_schema, label, sql, tables, unresolved):
        refs = extract_tables(sql, retail_schema)
        assert set(refs.tables) == tables
        assert refs.unresolved == unresolved

    @pytest.mark.parametrize("sql", NO_FROM_QUERIES)
    def test_no_from_clause_raises(self, retail_schema, sql):
        with pytest.raises(ParseError):
            extract_tables(sql, retail_schema)

    def test_tables_use_canonical_casing(self, retail_schema):
        refs = extract_tables("SELECT * FROM ORDERS", retail_schema)
        assert refs.tables == frozenset({"orders"})

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT FROM customers",
            "SELECT 1 FROM customers; SELECT 2 FROM orders",
            "SELECT * FROM customers WHERE customer_id = ?",
        ],
    )
    def test_text_sqlite_cannot_compile_raises(self, retail_schema, sql):
        with pytest.raises(ParseError):
            extract_tables(sql, retail_schema)


class TestCompileDatabase:
    """Each ``Schema`` owns one in-memory database that extraction compiles in."""

    @staticmethod
    def fresh(schema: Schema) -> Schema:
        return Schema(schema.database_id, schema.tables, schema.foreign_keys)

    def test_one_connection_serves_every_extraction(self, retail_schema, monkeypatch):
        opened = []
        real_connect = sqlite3.connect

        def connect(*args, **kwargs):
            opened.append(args[0])
            return real_connect(*args, **kwargs)

        monkeypatch.setattr(sqlite3, "connect", connect)
        schema = self.fresh(retail_schema)
        for _, sql, tables, _ in EXTRACTION_FIXTURES:
            assert set(extract_tables(sql, schema).tables) == tables
        assert opened == [":memory:"]

    def test_extraction_leaves_no_stub_or_column_behind(self, retail_schema):
        schema = self.fresh(retail_schema)
        connection, _ = schema.compile_database

        def snapshot():
            return connection.execute("SELECT type, name, sql FROM sqlite_master").fetchall()

        before = snapshot()
        refs = extract_tables(
            "SELECT s.carrier FROM customers JOIN shipments s "
            "ON customers.customer_id = s.customer_id",
            schema,
        )
        assert refs.unresolved == ("shipments",)
        extract_tables("SELECT ghost_column FROM customers", schema)
        with pytest.raises(ParseError):
            extract_tables("SELECT * FROM ghost WHERE", schema)
        assert snapshot() == before
        assert not connection.in_transaction

    def test_dropping_the_schema_closes_its_connection(self, retail_schema):
        schema = self.fresh(retail_schema)
        extract_tables("SELECT * FROM orders", schema)
        connection, _ = schema.compile_database
        del schema
        gc.collect()
        with pytest.raises(sqlite3.ProgrammingError, match="closed"):
            connection.execute("SELECT 1")

    def test_two_statements_are_a_parse_error_where_sqlite3_warns(self, retail_schema):
        # Python 3.10's sqlite3 raises Warning, not an Error, for a second statement.
        schema = self.fresh(retail_schema)
        connection, lock = schema.compile_database

        class WarningConnection:
            def __getattr__(self, name):
                return getattr(connection, name)

            def execute(self, sql):
                if sql.startswith("EXPLAIN") and ";" in sql:
                    raise sqlite3.Warning("You can only execute one statement at a time.")
                return connection.execute(sql)

        schema.__dict__["compile_database"] = (WarningConnection(), lock)
        with pytest.raises(ParseError, match="one statement"):
            extract_tables("SELECT 1 FROM customers; SELECT 2 FROM orders", schema)
        assert extract_tables("SELECT * FROM orders", schema).tables == {"orders"}

    def test_a_table_sqlite_reserves_fails_only_the_queries_naming_it(self):
        tables = (
            TableDef("sqlite_sequence", (ColumnDef("name"), ColumnDef("seq"))),
            TableDef("orders", (ColumnDef("order_id"),)),
        )
        schema = Schema("d", tables=tables)
        assert extract_tables("SELECT order_id FROM orders", schema).tables == {"orders"}
        with pytest.raises(ParseError, match="reserved"):
            extract_tables("SELECT seq FROM sqlite_sequence", schema)
        assert extract_tables("SELECT COUNT(*) FROM orders", schema).tables == {"orders"}


CUSTOMERS_ORDERS_BLOCK = """CREATE TABLE customers (
    customer_id INTEGER PRIMARY KEY,
    name TEXT,
    city TEXT
);

CREATE TABLE orders (
    order_id INTEGER PRIMARY KEY,
    customer_id INTEGER,
    order_date TEXT,
    FOREIGN KEY (customer_id) REFERENCES customers(customer_id)
);"""


class TestSchemaRendering:
    def test_filtered_two_table_block(self, retail_schema):
        text = render_filtered_schema(retail_schema, ["orders", "customers"])
        assert text == CUSTOMERS_ORDERS_BLOCK

    def test_fk_outside_selection_omitted(self, retail_schema):
        text = render_filtered_schema(retail_schema, ["orders"])
        assert "FOREIGN KEY" not in text

    def test_full_render_matches_whole_schema_serialization(self, retail_schema):
        assert render_filtered_schema(retail_schema, retail_schema.table_names) == render_schema(
            retail_schema
        )

    def test_full_render_contains_every_declared_key(self, retail_schema):
        text = render_schema(retail_schema)
        assert text.count("FOREIGN KEY") == len(retail_schema.foreign_keys)

    def test_unknown_table_rejected(self, retail_schema, retail_graph):
        with pytest.raises(UnknownTableError, match="'ghost'"):
            render_filtered_schema(retail_schema, ["orders", "ghost"])
        for path in (None, JoinPath(("orders",))):
            with pytest.raises(UnknownTableError, match="'ghost'"):
                render_join_path(retail_schema, retail_graph, ["orders", "ghost"], path)

    def test_awkward_names_are_quoted(self):
        schema = Schema(
            database_id="d",
            tables=(
                TableDef(
                    name="odd name",
                    columns=(ColumnDef('weird"col'), ColumnDef("select")),
                ),
            ),
        )
        text = render_filtered_schema(schema, ["odd name"])
        assert 'CREATE TABLE "odd name" (' in text
        assert '    "weird""col"' in text
        # plain identifiers stay unquoted even when they collide with keywords
        assert "\n    select\n" in text

    def test_full_render_is_memoised(self, retail_schema):
        assert render_schema(retail_schema) is render_schema(retail_schema)


class TestRenderMatchesReference:
    """The renderer's bytes key recorded transcripts, so they must not move."""

    @pytest.fixture(scope="class")
    def wide(self):
        return wide_schema()

    def test_wide_schema_has_the_awkward_shapes(self, wide):
        assert any(fk.from_table == fk.to_table for fk in wide.foreign_keys)
        assert any(
            wide.resolve_table(fk.to_table) != fk.to_table for fk in wide.foreign_keys
        )
        text = render_schema(wide)
        assert 'CREATE TABLE "order line 3" (' in text
        assert 'REFERENCES "We""ird_5"(' in text

    def test_full_render(self, wide, retail_schema):
        for schema in (wide, retail_schema):
            expected = reference_render(schema, schema.table_names, schema.foreign_keys)
            assert render_schema(schema) == expected
            assert schema.rendered == expected

    def test_tables_without_columns(self):
        schema = Schema(
            database_id="d",
            tables=(
                TableDef("Empty"),
                TableDef("a", (ColumnDef("node_id", "INTEGER"), ColumnDef("id"))),
                TableDef("B c", (ColumnDef("Node_ID"), ColumnDef("ID", "INTEGER"))),
            ),
            foreign_keys=(ForeignKeyEdge("A", "node_id", "b c", "node_id"),),
        )
        for chosen in (["empty"], ["empty", "A"], ["empty", "A", "b C"]):
            expected = reference_render(schema, chosen, schema.foreign_keys)
            assert render_filtered_schema(schema, chosen) == expected
        assert "CREATE TABLE Empty (\n\n);" in render_schema(schema)

    @pytest.mark.parametrize("seed", range(20))
    def test_filtered_render(self, wide, seed):
        rng = random.Random(seed)
        chosen = rng.sample(wide.table_names, rng.randint(1, 12))
        chosen = [name.swapcase() if rng.random() < 0.3 else name for name in chosen]
        expected = reference_render(wide, chosen, wide.foreign_keys)
        assert render_filtered_schema(wide, chosen) == expected


def scripted(sources, destinations):
    extraction = EndpointExtraction(sources=sources, destinations=destinations)
    return lambda question, schema, evidence: extraction


def never_asked(question, lines):
    raise AssertionError("path oracle must not be consulted")


def join_path_of(schema, graph, endpoints, mode, path_oracle=never_asked):
    result = link("q", schema, graph, endpoints, path_oracle)(MODE_PRESETS[mode])
    return result, render_join_path(schema, graph, result.chosen_tables, result.chosen_path())


class TestJoinPathRendering:
    def test_concrete_path_with_conditions(self, retail_schema, retail_graph):
        result, text = join_path_of(
            retail_schema, retail_graph, scripted(("orders",), ("customers",)), "mode4"
        )
        assert result.selection_rule == "sole_candidate"
        assert text == "customers -> orders (orders.customer_id = customers.customer_id)"

    def test_union_lists_tables_then_joins(self, retail_schema, retail_graph):
        _, text = join_path_of(
            retail_schema, retail_graph, scripted(("orders",), ("customers",)), "mode7"
        )
        assert text == "customers, orders\njoins:\norders.customer_id = customers.customer_id"

    def test_single_table_needs_no_joins(self, retail_schema, retail_graph):
        _, text = join_path_of(
            retail_schema, retail_graph, scripted(("customers",), ("customers",)), "mode7"
        )
        assert text == "customers (no joins required)"

    def test_zero_length_path_needs_no_joins(self, retail_schema, retail_graph):
        result, text = join_path_of(
            retail_schema, retail_graph, scripted(("customers",), ("customers",)), "mode4"
        )
        assert result.chosen_path_id == 1
        assert text == "customers (no joins required)"

    def test_multi_hop_path_conditions_in_order(self, retail_schema, retail_graph):
        _, text = join_path_of(
            retail_schema,
            retail_graph,
            scripted(("customers",), ("products",)),
            "mode4",
            path_oracle=lambda question, lines: 1,
        )
        assert text == (
            "customers -> orders -> order_items -> products "
            "(orders.customer_id = customers.customer_id, "
            "order_items.order_id = orders.order_id, "
            "order_items.product_id = products.product_id)"
        )


def reference_join_path(schema, graph, keys, chosen_tables, path) -> str:
    """render_join_path by linear scans: each path step against every key in
    ``keys``; a union's tables against every declared key, then every edge's
    id-augmented keys."""
    ends = lambda fk: {fk.from_table.casefold(), fk.to_table.casefold()}  # noqa: E731
    if path is not None:
        if path.length == 0:
            return f"{path.tables[0]} (no joins required)"
        arrow = " -> ".join(path.tables)
        conditions = []
        for a, b in zip(path.tables, path.tables[1:]):
            pair = {a.casefold(), b.casefold()}
            conditions.extend(join_condition(fk) for fk in keys if ends(fk) == pair)
        conditions = list(dict.fromkeys(conditions))
        if conditions:
            return f"{arrow} ({', '.join(conditions)})"
        return arrow
    tables = sorted(chosen_tables, key=str.casefold)
    if len(tables) == 1:
        return f"{tables[0]} (no joins required)"
    chosen = {name.casefold() for name in tables}
    augmented = [
        fk
        for edge in graph.edges
        for fk in edge.justifications
        if fk.provenance is FkProvenance.ID_AUGMENTED
    ]
    within = [fk for fk in (*schema.foreign_keys, *augmented) if ends(fk) <= chosen]
    lines = [", ".join(tables)]
    conditions = list(dict.fromkeys(join_condition(fk) for fk in within))
    if conditions:
        lines.append("joins:")
        lines.extend(conditions)
    return "\n".join(lines)


class TestJoinPathMatchesReference:
    def test_random_graphs_concrete_and_union_selections(self):
        rng = random.Random(2718)
        names = ["alpha", "Beta", "GAMMA", "delta", "Epsilon", "zeta"]
        spelled = lambda name: name.swapcase() if rng.random() < 0.3 else name  # noqa: E731
        joined_paths = joined_unions = with_both = 0
        for _ in range(500):
            tables = rng.sample(names, rng.randint(1, len(names)))
            columns = tuple(ColumnDef(name) for name in ("id", "c0", "c1", "c2", "c3"))
            # Repeated columns repeat conditions; a key may reference its own table.
            keys = [
                ForeignKeyEdge(
                    spelled(rng.choice(tables)),
                    f"c{rng.randint(0, 3)}",
                    spelled(rng.choice(tables)),
                    rng.choice(["id", "ID"]),
                    rng.choice(list(FkProvenance)),
                )
                for _ in range(rng.randint(0, 12))
            ]
            declared = [fk for fk in keys if fk.provenance is FkProvenance.DECLARED_FK]
            schema = Schema("d", tuple(TableDef(name, columns) for name in tables), declared)
            # The graph groups every key but a self-reference by pair, in key order.
            grouped: dict[frozenset[str], list[ForeignKeyEdge]] = {}
            for fk in keys:
                pair = frozenset((fk.from_table.casefold(), fk.to_table.casefold()))
                if len(pair) == 2:
                    grouped.setdefault(pair, []).append(fk)
            canonical = {name.casefold(): name for name in tables}
            edges = [
                GraphEdge(tuple(canonical[key] for key in sorted(pair)), tuple(fks))
                for pair, fks in grouped.items()
            ]
            graph = SchemaGraph(tuple(tables), tuple(edges))
            sequences = (
                tuple(rng.sample(tables, rng.randint(1, len(tables))))
                for _ in range(rng.randint(1, 3))
            )
            paths = [JoinPath(seq, graph.join_conditions(seq)) for seq in sequences]
            union = frozenset(table for path in paths for table in path.tables)
            for path in (*paths, None):
                chosen = union if path is None else frozenset(path.tables)
                rendered = render_join_path(schema, graph, chosen, path)
                expected = reference_join_path(schema, graph, keys, chosen, path)
                assert rendered == expected, (keys, chosen, path)
                joined = rendered.endswith(")") and "no joins" not in rendered
                joined_paths += path is not None and joined
                joined_unions += path is None and "joins:" in rendered
            with_both += len(declared) < len(keys) and bool(declared)
        assert joined_paths > 50
        assert joined_unions > 50
        assert with_both > 50
