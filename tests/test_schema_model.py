import sqlite3

import pytest

from schema_linker import write_schema_document
from schema_linker.errors import (
    DanglingForeignKeyError,
    DuplicateTableError,
    NotADatabaseError,
    ParseError,
)
from schema_linker.schema_model import (
    ColumnDef,
    FkProvenance,
    ForeignKeyEdge,
    GraphEdge,
    Schema,
    TableDef,
    augment_sparse_graph,
    build_graph,
    ingest_schema_document,
    ingest_sqlite,
    is_id_like_column,
    schema_from_document,
    schema_to_document,
)

from toy_corpus import TOY_ADJACENCY


def make_table(name, *columns):
    return TableDef(name=name, columns=tuple(ColumnDef(name=c) for c in columns))


class TestDefinitions:
    def test_duplicate_columns_rejected_case_insensitively(self):
        with pytest.raises(ValueError):
            TableDef(name="t", columns=(ColumnDef(name="Id"), ColumnDef(name="id")))

    def test_duplicate_tables_rejected(self):
        with pytest.raises(DuplicateTableError):
            Schema(database_id="d", tables=(make_table("A", "x"), make_table("a", "y")))

    def test_fk_to_unknown_table_rejected(self):
        with pytest.raises(DanglingForeignKeyError):
            Schema(
                database_id="d",
                tables=(make_table("a", "x"),),
                foreign_keys=(ForeignKeyEdge("a", "x", "ghost", "x"),),
            )

    def test_fk_to_unknown_column_rejected(self):
        with pytest.raises(DanglingForeignKeyError):
            Schema(
                database_id="d",
                tables=(make_table("a", "x"), make_table("b", "y")),
                foreign_keys=(ForeignKeyEdge("a", "x", "b", "nope"),),
            )

    def test_resolve_table_is_case_insensitive(self, retail_schema):
        assert retail_schema.resolve_table("CUSTOMERS") == "customers"
        assert retail_schema.resolve_table("no_such") is None

    def test_graph_edge_invariants(self):
        fk = ForeignKeyEdge("a", "x", "b", "y")
        with pytest.raises(ValueError):
            GraphEdge(tables=("a", "A"), justifications=(fk,))
        with pytest.raises(ValueError):
            GraphEdge(tables=("a", "b"), justifications=())


class TestSqliteIngest:
    def test_toy_database_shape(self, retail_schema):
        assert retail_schema.database_id == "retail"
        assert sorted(retail_schema.table_names) == [
            "customers",
            "order_items",
            "orders",
            "products",
            "reviews",
            "suppliers",
        ]
        customers = retail_schema.table("customers")
        assert [c.name for c in customers.columns] == ["customer_id", "name", "city"]
        assert customers.columns[0].is_primary_key
        assert not customers.columns[1].is_primary_key
        assert customers.columns[0].declared_type.upper() == "INTEGER"

    def test_toy_foreign_keys(self, retail_schema):
        fks = {
            (fk.from_table, fk.from_column, fk.to_table, fk.to_column)
            for fk in retail_schema.foreign_keys
        }
        assert fks == {
            ("products", "supplier_id", "suppliers", "supplier_id"),
            ("orders", "customer_id", "customers", "customer_id"),
            ("order_items", "order_id", "orders", "order_id"),
            ("order_items", "product_id", "products", "product_id"),
            ("reviews", "order_id", "orders", "order_id"),
            ("reviews", "product_id", "products", "product_id"),
        }
        assert all(
            fk.provenance is FkProvenance.DECLARED_FK
            for fk in retail_schema.foreign_keys
        )
        assert retail_schema.warnings == ()

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ingest_sqlite(tmp_path / "absent.sqlite")

    def test_zero_byte_file_is_empty_database(self, tmp_path):
        path = tmp_path / "empty.sqlite"
        path.touch()
        schema = ingest_sqlite(path)
        assert schema.database_id == "empty"
        assert schema.tables == ()

    def test_non_database_file_rejected(self, tmp_path):
        path = tmp_path / "junk.sqlite"
        path.write_bytes(b"definitely not a database, just sixteen+ bytes")
        with pytest.raises(NotADatabaseError):
            ingest_sqlite(path)

    def test_implicit_fk_target_resolves_to_primary_key(self, tmp_path):
        path = tmp_path / "implicit.sqlite"
        con = sqlite3.connect(path)
        con.executescript(
            """
            CREATE TABLE parent (pid INTEGER PRIMARY KEY, label TEXT);
            CREATE TABLE child (
                cid INTEGER PRIMARY KEY,
                parent_ref INTEGER REFERENCES parent
            );
            """
        )
        con.close()
        schema = ingest_sqlite(path)
        (fk,) = schema.foreign_keys
        assert (fk.from_table, fk.from_column) == ("child", "parent_ref")
        assert (fk.to_table, fk.to_column) == ("parent", "pid")

    def test_internal_tables_excluded(self, tmp_path):
        path = tmp_path / "auto.sqlite"
        con = sqlite3.connect(path)
        con.executescript(
            """
            CREATE TABLE log (id INTEGER PRIMARY KEY AUTOINCREMENT, body TEXT);
            INSERT INTO log (body) VALUES ('x');
            """
        )
        con.commit()
        con.close()
        schema = ingest_sqlite(path)
        assert schema.table_names == ("log",)

    def test_fk_to_missing_table_dropped_with_warning(self, tmp_path):
        path = tmp_path / "dangling.sqlite"
        con = sqlite3.connect(path)
        # sqlite records the clause even though "ghost" never gets created
        con.executescript(
            """
            CREATE TABLE child (
                cid INTEGER PRIMARY KEY,
                gid INTEGER REFERENCES ghost(gid)
            );
            """
        )
        con.close()
        schema = ingest_sqlite(path)
        assert schema.foreign_keys == ()
        assert len(schema.warnings) == 1
        assert "ghost" in schema.warnings[0]


class TestGraph:
    def test_toy_adjacency_matches_foreign_keys(self, retail_graph):
        assert retail_graph.edge_count == 6
        adjacency = {
            node: set(neighbors)
            for node, neighbors in retail_graph.adjacency.items()
        }
        assert adjacency == TOY_ADJACENCY

    def test_neighbors_are_name_sorted(self, retail_graph):
        assert retail_graph.adjacency["orders"] == (
            "customers",
            "order_items",
            "reviews",
        )

    def test_edge_lookup_is_case_insensitive(self, retail_graph):
        assert retail_graph.edge_between("ORDERS", "Customers") is not None
        assert retail_graph.edge_between("customers", "suppliers") is None

    def test_parallel_keys_merge_into_one_edge(self):
        schema = Schema(
            database_id="d",
            tables=(make_table("a", "x", "y"), make_table("b", "x", "y")),
            foreign_keys=(
                ForeignKeyEdge("a", "x", "b", "x"),
                ForeignKeyEdge("b", "y", "a", "y"),
            ),
        )
        graph = build_graph(schema)
        assert graph.edge_count == 1
        assert len(graph.edges[0].justifications) == 2

    def test_self_referencing_key_adds_no_edge(self):
        schema = Schema(
            database_id="d",
            tables=(
                TableDef(
                    name="employee",
                    columns=(ColumnDef("eid"), ColumnDef("manager")),
                ),
            ),
            foreign_keys=(ForeignKeyEdge("employee", "manager", "employee", "eid"),),
        )
        graph = build_graph(schema)
        assert graph.edge_count == 0
        assert graph.nodes == ("employee",)


class TestIdLikeColumns:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("id", True),
            ("ID", True),
            ("customer_id", True),
            ("id_card", True),
            ("ref_id_code", True),
            ("idea", False),
            ("paid", False),
            ("video", False),
            ("identity", False),
        ],
    )
    def test_token_boundary_rule(self, name, expected):
        assert is_id_like_column(name) is expected


class TestAugmentation:
    def sparse_schema(self):
        return Schema(
            database_id="sparse",
            tables=(
                make_table("alpha", "node_id", "label"),
                make_table("beta", "node_id", "value"),
                make_table("gamma", "other", "label"),
            ),
        )

    def test_dense_graph_unchanged(self, retail_schema, retail_graph):
        assert augment_sparse_graph(retail_graph, retail_schema) is retail_graph

    def test_shared_id_columns_linked(self):
        schema = self.sparse_schema()
        graph = augment_sparse_graph(build_graph(schema), schema)
        assert graph.edge_count == 1
        edge = graph.edges[0]
        assert edge.tables == ("alpha", "beta")
        (fk,) = edge.justifications
        assert fk.provenance is FkProvenance.ID_AUGMENTED
        assert (fk.from_column, fk.to_column) == ("node_id", "node_id")

    def test_shared_non_id_columns_ignored(self):
        # alpha and gamma share only "label", which is not a join key
        schema = self.sparse_schema()
        graph = augment_sparse_graph(build_graph(schema), schema)
        assert graph.edge_between("alpha", "gamma") is None

    def test_shared_id_substring_column_adds_no_edge(self):
        schema = Schema(
            database_id="d",
            tables=(make_table("a", "video"), make_table("b", "video")),
        )
        assert augment_sparse_graph(build_graph(schema), schema).edge_count == 0

    def test_declared_pairs_not_duplicated(self):
        schema = Schema(
            database_id="d",
            tables=(make_table("a", "k_id"), make_table("b", "k_id")),
            foreign_keys=(ForeignKeyEdge("a", "k_id", "b", "k_id"),),
        )
        graph = augment_sparse_graph(build_graph(schema), schema)
        assert graph.edge_count == 1
        assert all(
            fk.provenance is FkProvenance.DECLARED_FK
            for fk in graph.edges[0].justifications
        )

    def test_two_edge_graph_is_left_alone(self):
        schema = Schema(
            database_id="d",
            tables=(
                make_table("a", "x_id"),
                make_table("b", "x_id", "y_id"),
                make_table("c", "y_id"),
                make_table("d", "x_id"),
            ),
            foreign_keys=(
                ForeignKeyEdge("a", "x_id", "b", "x_id"),
                ForeignKeyEdge("b", "y_id", "c", "y_id"),
            ),
        )
        graph = augment_sparse_graph(build_graph(schema), schema)
        # d shares x_id with a and b but the declared graph is dense enough
        assert graph.edge_count == 2


class TestDocumentRoundTrip:
    def test_round_trip_preserves_shape(self, retail_schema, tmp_path):
        path = write_schema_document(retail_schema, tmp_path / "retail.json")
        loaded = ingest_schema_document(path)
        assert loaded.database_id == retail_schema.database_id
        assert loaded.table_names == retail_schema.table_names
        for table in retail_schema.tables:
            twin = loaded.table(table.name)
            assert [(c.name, c.is_primary_key) for c in twin.columns] == [
                (c.name, c.is_primary_key) for c in table.columns
            ]
        assert loaded.foreign_keys == retail_schema.foreign_keys

    def test_export_drops_augmented_keys(self):
        schema = Schema(
            database_id="d",
            tables=(make_table("a", "x_id"), make_table("b", "x_id")),
            foreign_keys=(
                ForeignKeyEdge(
                    "a", "x_id", "b", "x_id", provenance=FkProvenance.ID_AUGMENTED
                ),
            ),
        )
        assert schema_to_document(schema)["foreign_keys"] == []

    def test_missing_field_reports_context(self):
        with pytest.raises(ParseError, match=r"tables\[0\]"):
            schema_from_document({"db_id": "d", "tables": [{"columns": []}]})

    def test_wrong_type_reports_context(self):
        with pytest.raises(ParseError, match="'tables'"):
            schema_from_document({"db_id": "d", "tables": {"a": 1}})

    def test_missing_db_id(self):
        with pytest.raises(ParseError, match="db_id"):
            schema_from_document({"tables": []})

    def test_blank_column_name_reports_its_position(self):
        doc = {"db_id": "d", "tables": [{"name": "t", "columns": [{"name": "x"}, {"name": "  "}]}]}
        with pytest.raises(
            ParseError, match=r"^doc\.json: tables\[0\]\.columns\[1\]: column name must be"
        ):
            schema_from_document(doc, source="doc.json")

    def test_duplicate_columns_become_parse_error(self):
        doc = {
            "db_id": "d",
            "tables": [
                {"name": "t", "columns": [{"name": "x"}, {"name": "X"}]}
            ],
        }
        with pytest.raises(ParseError):
            schema_from_document(doc)
