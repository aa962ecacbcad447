import random

import pytest

from schema_linker.errors import ParseError, UnknownTableError
from schema_linker.llm import EndpointExtraction
from schema_linker.pathfinder import MODE_PRESETS, link
from schema_linker.schema_model import (
    ColumnDef,
    FkProvenance,
    ForeignKeyEdge,
    Schema,
    TableDef,
    augment_sparse_graph,
    build_graph,
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
            MODE_PRESETS["mode4"],
            scripted(("orders",), ("customers",)),
        )
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
            MODE_PRESETS["mode7"],
            scripted(("orders",), ("customers",)),
        )
        assert (
            render_join_path(result)
            == "customers, orders\njoins:\norders.customer_id = customers.customer_id"
        )

    def test_single_table_needs_no_joins(self, retail_schema, retail_graph):
        result = link(
            "q",
            retail_schema,
            retail_graph,
            MODE_PRESETS["mode7"],
            scripted(("customers",), ("customers",)),
        )
        assert render_join_path(result) == "customers (no joins required)"

    def test_zero_length_path_needs_no_joins(self, retail_schema, retail_graph):
        result = link(
            "q",
            retail_schema,
            retail_graph,
            MODE_PRESETS["mode4"],
            scripted(("customers",), ("customers",)),
        )
        assert result.chosen_path_id == 1
        assert render_join_path(result) == "customers (no joins required)"

    def test_multi_hop_path_conditions_in_order(self, retail_schema, retail_graph):
        result = link(
            "q",
            retail_schema,
            retail_graph,
            MODE_PRESETS["mode4"],
            scripted(("customers",), ("products",)),
            path_oracle=lambda question, lines: 1,
        )
        assert render_join_path(result) == (
            "customers -> orders -> order_items -> products "
            "(orders.customer_id = customers.customer_id, "
            "order_items.order_id = orders.order_id, "
            "order_items.product_id = products.product_id)"
        )
