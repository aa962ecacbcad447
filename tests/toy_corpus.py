"""Six-table retail fixture: database, questions, and a scripted backend.

The corpus is designed against the brute-force path oracle: each question
names source/destination tables whose shortest-path union covers the gold
tables (so a forced-union run reaches full recall), with one question that
deliberately over-selects so exact-match stays below 100%.
"""

from __future__ import annotations

import itertools
import json
import sqlite3
import threading
import time
from pathlib import Path

from schema_linker.harness import POOL_AFTER_WAIT_S
from schema_linker.llm import CompletionRequest, PromptId
from schema_linker.llm import SYSTEM_PROMPTS

DB_ID = "retail"

TOY_DDL = """
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

INSERT INTO customers VALUES (1, 'Alice', 'Paris'), (2, 'Bob', 'Berlin'), (3, 'Cara', 'Paris');
INSERT INTO suppliers VALUES (1, 'Acme Corp', 'Germany'), (2, 'Globex', 'France');
INSERT INTO products VALUES (1, 'Widget', 9.99, 1), (2, 'Gadget', 24.5, 2), (3, 'Doohickey', 5.0, 1);
INSERT INTO orders VALUES (1, 1, '2024-01-15'), (2, 1, '2024-02-10'), (3, 2, '2024-01-20'), (4, 3, '2023-12-05');
INSERT INTO order_items VALUES (1, 1, 1, 2), (2, 1, 2, 1), (3, 2, 1, 1), (4, 3, 3, 5), (5, 4, 2, 2);
INSERT INTO reviews VALUES (1, 1, 1, 5), (2, 3, 3, 4), (3, 2, 1, 1), (4, 4, 2, 3);
"""

# The adjacency implied by the declared foreign keys, for oracle cross-checks.
TOY_ADJACENCY: dict[str, set[str]] = {
    "customers": {"orders"},
    "orders": {"customers", "order_items", "reviews"},
    "order_items": {"orders", "products"},
    "products": {"order_items", "suppliers", "reviews"},
    "suppliers": {"products"},
    "reviews": {"orders", "products"},
}

CORPUS = [
    {
        "question_id": 1,
        "question": "Which customers placed orders in January 2024?",
        "evidence": None,
        "difficulty": "simple",
        "src": "orders,customers",
        "dst": "customers",
        "gold_tables": {"customers", "orders"},
        "SQL": (
            "SELECT c.name FROM customers AS c INNER JOIN orders AS o "
            "ON c.customer_id = o.customer_id WHERE o.order_date LIKE '2024-01%'"
        ),
    },
    {
        "question_id": 2,
        "question": "What is the average rating for the product named Widget?",
        "evidence": "product names are stored in products.product_name",
        "difficulty": "simple",
        "src": "products",
        "dst": "reviews",
        "gold_tables": {"reviews", "products"},
        "SQL": (
            "SELECT AVG(r.rating) FROM reviews r JOIN products p "
            "ON r.product_id = p.product_id WHERE p.product_name = 'Widget'"
        ),
    },
    {
        "question_id": 3,
        "question": "How many units of each product has Alice ordered?",
        "evidence": None,
        "difficulty": "challenging",
        "src": "customers",
        "dst": "products",
        "gold_tables": {"customers", "orders", "order_items", "products"},
        "SQL": (
            "SELECT p.product_name, SUM(oi.quantity) FROM customers c "
            "JOIN orders o ON c.customer_id = o.customer_id "
            "JOIN order_items oi ON o.order_id = oi.order_id "
            "JOIN products p ON oi.product_id = p.product_id "
            "WHERE c.name = 'Alice' GROUP BY p.product_name"
        ),
    },
    {
        "question_id": 4,
        "question": "Which supplier provides the product named Gadget?",
        "evidence": None,
        "difficulty": "simple",
        "src": "products",
        "dst": "suppliers",
        "gold_tables": {"suppliers", "products"},
        "SQL": (
            "SELECT s.supplier_name FROM suppliers AS s JOIN products AS p "
            "ON s.supplier_id = p.supplier_id WHERE p.product_name = 'Gadget'"
        ),
    },
    {
        "question_id": 5,
        "question": "How many distinct orders include the product named Widget?",
        "evidence": None,
        "difficulty": "moderate",
        "src": "products",
        "dst": "order_items",
        "gold_tables": {"order_items", "products"},
        "SQL": (
            "SELECT COUNT(DISTINCT oi.order_id) FROM order_items oi "
            "JOIN products p ON oi.product_id = p.product_id "
            "WHERE p.product_name = 'Widget'"
        ),
    },
    {
        "question_id": 6,
        "question": "Which countries do the suppliers of five-star-rated products come from?",
        "evidence": "five-star means rating = 5",
        "difficulty": "moderate",
        "src": "reviews",
        "dst": "suppliers,products",
        "gold_tables": {"suppliers", "products", "reviews"},
        "SQL": (
            "SELECT DISTINCT s.country FROM suppliers s "
            "JOIN products p ON s.supplier_id = p.supplier_id "
            "JOIN reviews r ON r.product_id = p.product_id WHERE r.rating = 5"
        ),
    },
    {
        "question_id": 7,
        "question": "List the names of customers living in Paris.",
        "evidence": None,
        "difficulty": "simple",
        "src": "customers",
        "dst": "customers",
        "gold_tables": {"customers"},
        "SQL": "SELECT name FROM customers WHERE city = 'Paris'",
    },
    {
        "question_id": 8,
        "question": "Show the order dates and ratings for reviews left on Bob's orders.",
        "evidence": None,
        "difficulty": "moderate",
        "src": "customers",
        "dst": "reviews",
        "gold_tables": {"customers", "orders", "reviews"},
        "SQL": (
            "SELECT o.order_date, r.rating FROM customers c "
            "JOIN orders o ON c.customer_id = o.customer_id "
            "JOIN reviews r ON r.order_id = o.order_id WHERE c.name = 'Bob'"
        ),
    },
    {
        "question_id": 9,
        "question": "What is the average price of products that received a rating of 1?",
        "evidence": None,
        "difficulty": "moderate",
        "src": "reviews",
        "dst": "products",
        "gold_tables": {"products", "reviews"},
        "SQL": (
            "SELECT AVG(p.price) FROM products p JOIN reviews r "
            "ON r.product_id = p.product_id WHERE r.rating = 1"
        ),
    },
    {
        "question_id": 10,
        "question": "How many line items does order 1 contain?",
        "evidence": None,
        "difficulty": "simple",
        "src": "order_items",
        "dst": "order_items",
        "gold_tables": {"order_items"},
        "SQL": "SELECT COUNT(*) FROM order_items WHERE order_id = 1",
    },
]


def build_database(path: Path) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.exists():
        path.unlink()
    connection = sqlite3.connect(path)
    try:
        connection.executescript(TOY_DDL)
        connection.commit()
    finally:
        connection.close()
    return path


def write_corpus(root: Path) -> tuple[Path, Path]:
    """Write dataset.json and the schema root; returns (dataset, schema_root)."""
    root.mkdir(parents=True, exist_ok=True)
    schema_root = root / "schemas"
    build_database(schema_root / DB_ID / f"{DB_ID}.sqlite")
    dataset_path = root / "dataset.json"
    rows = [
        {
            "question_id": row["question_id"],
            "db_id": DB_ID,
            "question": row["question"],
            "evidence": row["evidence"] or "",
            "SQL": row["SQL"],
            "difficulty": row["difficulty"],
        }
        for row in CORPUS
    ]
    dataset_path.write_text(json.dumps(rows, indent=2) + "\n", encoding="utf-8")
    return dataset_path, schema_root


def corpus_row_by_question(question: str) -> dict:
    for row in CORPUS:
        if row["question"] == question:
            return row
    raise KeyError(f"no corpus row for question {question!r}")


def _candidate_line_tables(line: str) -> set[str]:
    body = line.split(": ", 1)[1]
    if body.startswith("UNION {"):
        inner = body[len("UNION {") : -1]
        return {part.strip() for part in inner.split(",")}
    body = body.split(" (", 1)[0]
    return {part.strip() for part in body.split("->")}


class ScriptedBackend:
    """Deterministic stand-in for a live model endpoint.

    Answers endpoint prompts with the corpus script, path-selection prompts
    by picking the first candidate matching the question's gold tables, and
    generation prompts with the gold SQL in a code fence. Per-question
    overrides let tests inject wrong or unusable replies.
    """

    def __init__(
        self,
        sql_overrides: dict[int, str] | None = None,
        endpoint_overrides: dict[int, str] | None = None,
    ):
        self.sql_overrides = sql_overrides or {}
        self.endpoint_overrides = endpoint_overrides or {}
        self.requests: list[CompletionRequest] = []
        self.threads: set[int] = set()  # the ident of every thread that sent a request

    def _question_from(self, user_text: str) -> str:
        for line in user_text.splitlines():
            if line.startswith("Question: "):
                return line[len("Question: ") :]
        raise AssertionError(f"no question line in request: {user_text[:80]!r}")

    def complete(self, request: CompletionRequest) -> str:
        self.requests.append(request)
        self.threads.add(threading.get_ident())
        question = self._question_from(request.user_text)
        row = corpus_row_by_question(question)
        if request.system_text == SYSTEM_PROMPTS[PromptId.SRC_DST]:
            override = self.endpoint_overrides.get(row["question_id"])
            if override is not None:
                return override
            return f"src={row['src']}, dst={row['dst']}"
        if request.system_text == SYSTEM_PROMPTS[PromptId.PATH_SELECT]:
            lines = [
                line
                for line in request.user_text.splitlines()
                if line.startswith("path_id=")
            ]
            pick = 1
            for i, line in enumerate(lines, start=1):
                if _candidate_line_tables(line) == row["gold_tables"]:
                    pick = i
                    break
            return f"Final Answer: path_id: {pick}"
        # Generation prompt: the filled system text keeps this prefix.
        assert request.system_text.startswith(
            "ROLE & OBJECTIVE\nYou are an expert in SQLite query generation."
        )
        override = self.sql_overrides.get(row["question_id"])
        if override is not None:
            return override
        return f"Here is the query:\n```sql\n{row['SQL']}\n```\n"


FIRST_REPLY_S = 2 * POOL_AFTER_WAIT_S


class SlowStartBackend(ScriptedBackend):
    """A ScriptedBackend whose first reply waits ``FIRST_REPLY_S``, as a real endpoint's does.

    That wait is longer than the harness allows before it starts its
    threads, so a record run with more than one worker hands the questions
    after its first to a pool.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.arrivals = itertools.count()

    def complete(self, request: CompletionRequest) -> str:
        if next(self.arrivals) == 0:
            time.sleep(FIRST_REPLY_S)
        return super().complete(request)
