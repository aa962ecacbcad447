"""Walkthrough: scoring predicted table sets and predicted SQL.

Gold table sets are extracted straight out of gold SQL, predictions are
compared case-insensitively, and the recall-weighted F6 sits beside F1 in
every aggregate block. The execution check runs both queries against a
read-only connection and compares result multisets, so row order never
matters but duplicates do. Runs offline.
"""

import json
import sqlite3
import tempfile
from pathlib import Path

from schema_linker.metrics import (
    aggregate,
    execution_match,
    make_eval_record,
    schema_metrics,
)
from schema_linker.schema_model import ingest_sqlite
from schema_linker.sql_analysis import extract_tables

DDL = """
CREATE TABLE customers (
    customer_id INTEGER PRIMARY KEY,
    name TEXT,
    city TEXT
);
CREATE TABLE orders (
    order_id INTEGER PRIMARY KEY,
    customer_id INTEGER,
    order_date TEXT,
    FOREIGN KEY (customer_id) REFERENCES customers(customer_id)
);
INSERT INTO customers VALUES (1, 'Alice', 'Paris'), (2, 'Bob', 'Berlin'), (3, 'Cara', 'Paris');
INSERT INTO orders VALUES (1, 1, '2024-01-15'), (2, 1, '2024-02-10'), (3, 2, '2024-01-20');
"""

# (question id, gold SQL the dataset ships, tables a linker predicted)
CASES = [
    (
        "q1",
        "SELECT name FROM customers WHERE city = 'Paris'",
        {"customers"},
    ),
    (
        "q2",
        "SELECT c.name FROM customers c JOIN orders o ON c.customer_id = o.customer_id",
        {"customers", "orders"},
    ),
    (
        "q3",
        "SELECT o.order_date FROM customers c JOIN orders o ON c.customer_id = o.customer_id "
        "WHERE c.name = 'Bob'",
        {"orders"},  # dropped a needed table: recall, and especially F6, pay
    ),
]


def main() -> None:
    with tempfile.TemporaryDirectory() as scratch:
        db_path = Path(scratch) / "demo.sqlite"
        connection = sqlite3.connect(db_path)
        connection.executescript(DDL)
        connection.close()
        schema = ingest_sqlite(db_path)

        records = []
        for question_id, gold_sql, predicted in CASES:
            gold = extract_tables(gold_sql, schema)
            metrics = schema_metrics(predicted, gold.tables)
            records.append(make_eval_record(question_id, gold.tables, predicted))
            print(f"{question_id}: gold={sorted(gold.tables)} predicted={sorted(predicted)}")
            print(
                f"  precision={metrics.precision:.3f} recall={metrics.recall:.3f} "
                f"f1={metrics.f1:.3f} f6={metrics.f6:.3f} exact={metrics.exact_match}"
            )

        print()
        print("aggregate (macro averages plus the cross-check F variants):")
        print(json.dumps(aggregate(records), indent=2, sort_keys=True))

        gold = "SELECT name FROM customers ORDER BY name"
        reordered = "SELECT name FROM customers ORDER BY name DESC"
        wrong_column = "SELECT city FROM customers"
        print()
        print("execution comparison against the gold query:")
        print(f"  reordered rows still match: {execution_match(reordered, gold, db_path)}")
        print(f"  different column set: {execution_match(wrong_column, gold, db_path)}")


if __name__ == "__main__":
    main()
