import gc
import random
import sqlite3

import pytest

from schema_linker.errors import ParseError, UnknownTableError
from schema_linker.llm import EndpointExtraction
from schema_linker.pathfinder import MODE_PRESETS, CandidateSet, JoinPath, LinkResult, link
from schema_linker.schema_model import (
    ColumnDef,
    FkProvenance,
    ForeignKeyEdge,
    GraphEdge,
    Schema,
    SchemaGraph,
    TableDef,
    augment_sparse_graph,
    build_graph,
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
        induced = [
            fk
            for fk in retail_schema.foreign_keys
            if (fk.from_table, fk.to_table) == ("orders", "customers")
        ]
        text = render_filtered_schema(
            retail_schema, ["orders", "customers"], induced
        )
        assert text == CUSTOMERS_ORDERS_BLOCK

    def test_fk_outside_selection_omitted(self, retail_schema):
        text = render_filtered_schema(
            retail_schema, ["orders"], retail_schema.foreign_keys
        )
        assert "FOREIGN KEY" not in text

    def test_full_render_matches_whole_schema_serialization(self, retail_schema):
        assert (
            render_filtered_schema(
                retail_schema,
                retail_schema.table_names,
                retail_schema.foreign_keys,
            )
            == render_schema(retail_schema)
        )

    def test_full_render_contains_every_declared_key(self, retail_schema):
        text = render_schema(retail_schema)
        assert text.count("FOREIGN KEY") == len(retail_schema.foreign_keys)

    def test_unknown_table_rejected(self, retail_schema):
        with pytest.raises(UnknownTableError):
            render_filtered_schema(retail_schema, ["ghost"], [])

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
        text = render_filtered_schema(schema, ["odd name"], [])
        assert 'CREATE TABLE "odd name" (' in text
        assert '    "weird""col"' in text
        # plain identifiers stay unquoted even when they collide with keywords
        assert "\n    select\n" in text

    def test_edges_may_be_a_generator(self, retail_schema):
        # every table block must see its keys, even when the edges can be
        # iterated only once
        edges = retail_schema.foreign_keys
        tables = retail_schema.table_names
        from_tuple = render_filtered_schema(retail_schema, tables, tuple(edges))
        from_generator = render_filtered_schema(
            retail_schema, tables, (fk for fk in edges)
        )
        assert from_generator == from_tuple
        assert from_generator.count("FOREIGN KEY") == len(edges)

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

    def test_keys_outside_the_schema_and_tables_without_columns(self):
        schema = Schema(
            database_id="d",
            tables=(
                TableDef("Empty"),
                TableDef("a", (ColumnDef("node_id", "INTEGER"), ColumnDef("id"))),
                TableDef("B c", (ColumnDef("Node_ID"), ColumnDef("ID", "INTEGER"))),
            ),
        )
        augmented = augment_sparse_graph(build_graph(schema), schema).augmented_keys
        assert [fk.provenance for fk in augmented] == [FkProvenance.ID_AUGMENTED] * 2
        # A key from the table without columns names a column it lacks.
        dangling = ForeignKeyEdge("EMPTY", "x", "a", "id")
        chosen = ["empty", "A", "b C"]
        for edges in ((), augmented, (dangling, *augmented)):
            expected = reference_render(schema, chosen, edges)
            assert render_filtered_schema(schema, chosen, edges) == expected
        assert "CREATE TABLE Empty (\n\n);" in render_schema(schema)

    @pytest.mark.parametrize("seed", range(20))
    def test_filtered_render(self, wide, seed):
        rng = random.Random(seed)
        chosen = rng.sample(wide.table_names, rng.randint(1, 12))
        chosen = [name.swapcase() if rng.random() < 0.3 else name for name in chosen]
        keys = {name.casefold() for name in chosen}
        induced = [
            fk
            for fk in wide.foreign_keys
            if fk.from_table.casefold() in keys and fk.to_table.casefold() in keys
        ]
        rng.shuffle(induced)
        for edges in (induced, list(wide.foreign_keys)):
            assert render_filtered_schema(wide, chosen, edges) == reference_render(
                wide, chosen, edges
            )


def scripted(sources, destinations):
    extraction = EndpointExtraction(sources=sources, destinations=destinations)
    return lambda question, schema, evidence: extraction


class TestJoinPathRendering:
    def test_concrete_path_with_conditions(self, retail_schema, retail_graph):
        result = link(
            "q",
            retail_schema,
            retail_graph,
            scripted(("orders",), ("customers",)),
        )(MODE_PRESETS["mode4"])
        assert result.selection_rule == "sole_candidate"
        assert (
            render_join_path(result)
            == "customers -> orders (orders.customer_id = customers.customer_id)"
        )

    def test_union_lists_tables_then_joins(self, retail_schema, retail_graph):
        result = link(
            "q",
            retail_schema,
            retail_graph,
            scripted(("orders",), ("customers",)),
        )(MODE_PRESETS["mode7"])
        assert (
            render_join_path(result)
            == "customers, orders\njoins:\norders.customer_id = customers.customer_id"
        )

    def test_single_table_needs_no_joins(self, retail_schema, retail_graph):
        result = link(
            "q",
            retail_schema,
            retail_graph,
            scripted(("customers",), ("customers",)),
        )(MODE_PRESETS["mode7"])
        assert render_join_path(result) == "customers (no joins required)"

    def test_zero_length_path_needs_no_joins(self, retail_schema, retail_graph):
        result = link(
            "q",
            retail_schema,
            retail_graph,
            scripted(("customers",), ("customers",)),
        )(MODE_PRESETS["mode4"])
        assert result.chosen_path_id == 1
        assert render_join_path(result) == "customers (no joins required)"

    def test_multi_hop_path_conditions_in_order(self, retail_schema, retail_graph):
        result = link(
            "q",
            retail_schema,
            retail_graph,
            scripted(("customers",), ("products",)),
            path_oracle=lambda question, lines: 1,
        )(MODE_PRESETS["mode4"])
        assert render_join_path(result) == (
            "customers -> orders -> order_items -> products "
            "(orders.customer_id = customers.customer_id, "
            "order_items.order_id = orders.order_id, "
            "order_items.product_id = products.product_id)"
        )


def reference_join_path(result) -> str:
    """render_join_path with every key compared against every step of the path."""
    all_edges = tuple(result.induced_fk_edges) + tuple(result.augmented_join_edges)
    path = result.chosen_path()
    if path is not None:
        if path.length == 0:
            return f"{path.tables[0]} (no joins required)"
        arrow = " -> ".join(path.tables)
        conditions = []
        for a, b in zip(path.tables, path.tables[1:]):
            pair = {a.casefold(), b.casefold()}
            conditions.extend(
                join_condition(fk)
                for fk in all_edges
                if {fk.from_table.casefold(), fk.to_table.casefold()} == pair
            )
        conditions = list(dict.fromkeys(conditions))
        if conditions:
            return f"{arrow} ({', '.join(conditions)})"
        return arrow
    tables = sorted(result.chosen_tables, key=str.casefold)
    if len(tables) == 1:
        return f"{tables[0]} (no joins required)"
    lines = [", ".join(tables)]
    conditions = list(dict.fromkeys(join_condition(fk) for fk in all_edges))
    if conditions:
        lines.append("joins:")
        lines.extend(conditions)
    return "\n".join(lines)


class TestJoinPathMatchesReference:
    def test_random_graphs_concrete_and_union_selections(self):
        rng = random.Random(2718)
        names = ["alpha", "Beta", "GAMMA", "delta", "Epsilon", "zeta"]
        spelled = lambda name: name.swapcase() if rng.random() < 0.3 else name  # noqa: E731
        joined_paths = joined_unions = 0
        for _ in range(500):
            tables = rng.sample(names, rng.randint(1, len(names)))
            # Repeated columns repeat conditions; a key may reference its own table.
            keys = [
                ForeignKeyEdge(
                    spelled(rng.choice(tables)),
                    f"c{rng.randint(0, 3)}",
                    spelled(rng.choice(tables)),
                    rng.choice(["id", "ID"]),
                )
                for _ in range(rng.randint(0, 12))
            ]
            split = rng.randint(0, len(keys))
            # The graph groups the same keys by pair, induced then augmented.
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
            paths = tuple(JoinPath(seq, graph.join_conditions(seq)) for seq in sequences)
            union = frozenset(table for path in paths for table in path.tables)
            path_id = rng.choice([None, *range(1, len(paths) + 2)])
            concrete = path_id is not None and path_id <= len(paths)
            result = LinkResult(
                sources=(),
                destinations=(),
                candidates=CandidateSet(paths, union),
                chosen_tables=frozenset(paths[path_id - 1].tables) if concrete else union,
                chosen_path_id=path_id,
                induced_fk_edges=tuple(keys[:split]),
                augmented_join_edges=tuple(keys[split:]),
            )
            rendered = render_join_path(result)
            assert rendered == reference_join_path(result), result
            joined_paths += concrete and rendered.endswith(")") and "no joins" not in rendered
            joined_unions += not concrete and "joins:" in rendered
        assert joined_paths > 50
        assert joined_unions > 50
