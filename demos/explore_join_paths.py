"""Walkthrough: from a SQLite file to ranked join-path candidates.

Builds a small retail database, derives the table graph from its declared
foreign keys, and shows what the path search produces for a question that
needs a multi-hop join ("how many units of each product has Alice
ordered?"). Everything here runs offline; no model is involved.
"""

import sqlite3
import tempfile
from pathlib import Path

from schema_linker import all_shortest_paths, build_candidates, preset
from schema_linker.pathfinder import render_candidate_lines
from schema_linker.schema_model import augment_sparse_graph, build_graph, ingest_sqlite
from schema_linker.sql_analysis import render_filtered_schema

DDL = """
CREATE TABLE customers (
    customer_id INTEGER PRIMARY KEY,
    name TEXT,
    city TEXT
);
CREATE TABLE suppliers (
    supplier_id INTEGER PRIMARY KEY,
    supplier_name TEXT,
    country TEXT
);
CREATE TABLE products (
    product_id INTEGER PRIMARY KEY,
    product_name TEXT,
    price REAL,
    supplier_id INTEGER,
    FOREIGN KEY (supplier_id) REFERENCES suppliers(supplier_id)
);
CREATE TABLE orders (
    order_id INTEGER PRIMARY KEY,
    customer_id INTEGER,
    order_date TEXT,
    FOREIGN KEY (customer_id) REFERENCES customers(customer_id)
);
CREATE TABLE order_items (
    item_id INTEGER PRIMARY KEY,
    order_id INTEGER,
    product_id INTEGER,
    quantity INTEGER,
    FOREIGN KEY (order_id) REFERENCES orders(order_id),
    FOREIGN KEY (product_id) REFERENCES products(product_id)
);
CREATE TABLE reviews (
    review_id INTEGER PRIMARY KEY,
    order_id INTEGER,
    product_id INTEGER,
    rating INTEGER,
    FOREIGN KEY (order_id) REFERENCES orders(order_id),
    FOREIGN KEY (product_id) REFERENCES products(product_id)
);
"""


def main() -> None:
    with tempfile.TemporaryDirectory() as scratch:
        db_path = Path(scratch) / "retail.sqlite"
        connection = sqlite3.connect(db_path)
        connection.executescript(DDL)
        connection.close()

        schema = ingest_sqlite(db_path)
        graph = augment_sparse_graph(build_graph(schema), schema)

        print(f"tables: {', '.join(schema.table_names)}")
        print(
            f"declared foreign keys: {len(schema.foreign_keys)}, "
            f"graph edges: {graph.edge_count}"
        )
        print()
        print("adjacency:")
        for table in graph.nodes:
            print(f"  {table:12s} -> {', '.join(graph.adjacency[table])}")

        # Pretend the endpoint extractor nominated these two tables for
        # "How many units of each product has Alice ordered?": the customer
        # name filters rows, the product table carries the output column.
        sources, destinations = ["customers"], ["products"]
        print()
        print(f"shortest paths {sources[0]} -> {destinations[0]}:")
        for path in all_shortest_paths(graph, sources[0], destinations[0]):
            print(f"  {' -> '.join(path.tables)}")

        candidates = build_candidates(graph, sources, destinations, preset("mode4"))
        print()
        print("what the path selector is shown (mode4, union appended):")
        for line in render_candidate_lines(candidates, include_union=True):
            print(f"  {line}")

        print()
        print("filtered schema for the union of those candidates:")
        print(render_filtered_schema(schema, candidates.union_tables))


if __name__ == "__main__":
    main()
