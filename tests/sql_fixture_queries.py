"""Hand-labeled table extraction fixtures against the retail schema.

Each entry was labeled by reading the query, not by running the extractor;
the expected sets are the schema tables the statement actually reads from.
"""

# (label, sql, expected table set, expected unresolved names)
EXTRACTION_FIXTURES = [
    (
        "single_table",
        "SELECT name FROM customers",
        {"customers"},
        (),
    ),
    (
        "alias_with_as",
        "SELECT c.name FROM customers AS c",
        {"customers"},
        (),
    ),
    (
        "bare_alias",
        "SELECT c.name FROM customers c WHERE c.city = 'Paris'",
        {"customers"},
        (),
    ),
    (
        "inner_join",
        "SELECT c.name FROM customers AS c INNER JOIN orders AS o "
        "ON c.customer_id = o.customer_id WHERE o.order_date LIKE '2024-01%'",
        {"customers", "orders"},
        (),
    ),
    (
        "comma_list",
        "SELECT * FROM customers, orders "
        "WHERE customers.customer_id = orders.customer_id",
        {"customers", "orders"},
        (),
    ),
    (
        "comma_after_on",
        "SELECT * FROM customers c JOIN orders o "
        "ON c.customer_id = o.customer_id, reviews",
        {"customers", "orders", "reviews"},
        (),
    ),
    (
        "left_join_using",
        "SELECT * FROM orders LEFT JOIN reviews USING (order_id)",
        {"orders", "reviews"},
        (),
    ),
    (
        "cross_join",
        "SELECT * FROM customers CROSS JOIN suppliers",
        {"customers", "suppliers"},
        (),
    ),
    (
        "natural_join",
        "SELECT * FROM orders NATURAL JOIN reviews",
        {"orders", "reviews"},
        (),
    ),
    (
        "derived_table",
        "SELECT t.n FROM (SELECT name AS n FROM customers) t",
        {"customers"},
        (),
    ),
    (
        "in_subquery",
        "SELECT name FROM customers "
        "WHERE customer_id IN (SELECT customer_id FROM orders)",
        {"customers", "orders"},
        (),
    ),
    (
        "scalar_subquery_in_select",
        "SELECT name, (SELECT COUNT(*) FROM orders o "
        "WHERE o.customer_id = customers.customer_id) FROM customers",
        {"customers", "orders"},
        (),
    ),
    (
        "cte_name_excluded",
        "WITH recent AS (SELECT * FROM orders WHERE order_date > '2024-01-01') "
        "SELECT * FROM recent JOIN customers "
        "ON recent.customer_id = customers.customer_id",
        {"customers", "orders"},
        (),
    ),
    (
        "recursive_cte_only",
        "WITH RECURSIVE seq(n) AS "
        "(SELECT 1 UNION ALL SELECT n + 1 FROM seq WHERE n < 5) "
        "SELECT n FROM seq",
        set(),
        (),
    ),
    (
        "cte_with_column_list",
        "WITH top_products(pid, total) AS "
        "(SELECT product_id, SUM(quantity) FROM order_items GROUP BY product_id) "
        "SELECT p.product_name FROM top_products t "
        "JOIN products p ON p.product_id = t.pid",
        {"order_items", "products"},
        (),
    ),
    (
        "cte_materialized",
        "WITH c AS MATERIALIZED (SELECT * FROM customers) SELECT * FROM c",
        {"customers"},
        (),
    ),
    (
        "cte_not_materialized",
        "WITH c AS NOT MATERIALIZED (SELECT * FROM customers) "
        "SELECT * FROM c, orders",
        {"customers", "orders"},
        (),
    ),
    (
        "double_quoted_names",
        'SELECT * FROM "customers" JOIN "orders" '
        'ON "customers".customer_id = "orders".customer_id',
        {"customers", "orders"},
        (),
    ),
    (
        "backtick_name",
        "SELECT * FROM `customers`",
        {"customers"},
        (),
    ),
    (
        "bracket_name",
        "SELECT * FROM [order_items]",
        {"order_items"},
        (),
    ),
    (
        "dotted_qualifier",
        "SELECT * FROM main.customers",
        {"customers"},
        (),
    ),
    (
        "dotted_quoted",
        'SELECT * FROM main."orders"',
        {"orders"},
        (),
    ),
    (
        "self_join_once",
        "SELECT a.name, b.name FROM customers a JOIN customers b "
        "ON a.city = b.city AND a.customer_id < b.customer_id",
        {"customers"},
        (),
    ),
    (
        "union_set_operation",
        "SELECT name FROM customers UNION SELECT supplier_name FROM suppliers",
        {"customers", "suppliers"},
        (),
    ),
    (
        "unresolved_reported",
        "SELECT * FROM customers JOIN shipments "
        "ON customers.customer_id = shipments.customer_id",
        {"customers"},
        ("shipments",),
    ),
    (
        "case_insensitive_resolution",
        "SELECT * FROM CUSTOMERS JOIN Orders "
        "ON CUSTOMERS.customer_id = Orders.customer_id",
        {"customers", "orders"},
        (),
    ),
    (
        "parenthesized_join_group",
        "SELECT * FROM (customers JOIN orders "
        "ON customers.customer_id = orders.customer_id)",
        {"customers", "orders"},
        (),
    ),
    (
        "comments_ignored",
        "SELECT * FROM customers -- trailing note\n"
        "/* block note */ JOIN orders ON customers.customer_id = orders.customer_id",
        {"customers", "orders"},
        (),
    ),
    (
        "keyword_inside_string",
        "SELECT * FROM customers WHERE name = 'from orders'",
        {"customers"},
        (),
    ),
    (
        "exists_subquery",
        "SELECT * FROM products p WHERE EXISTS "
        "(SELECT 1 FROM reviews r WHERE r.product_id = p.product_id "
        "AND r.rating = 5)",
        {"products", "reviews"},
        (),
    ),
    (
        "doubly_nested_derived",
        "SELECT * FROM (SELECT * FROM (SELECT * FROM order_items) x) y",
        {"order_items"},
        (),
    ),
    (
        "values_derived_table",
        "SELECT * FROM (VALUES (1), (2)) v JOIN customers ON 1 = 1",
        {"customers"},
        (),
    ),
    (
        "count_star_reads_no_column",
        "SELECT COUNT(*) FROM customers",
        {"customers"},
        (),
    ),
    (
        "constant_over_comma_list",
        "SELECT 1 FROM customers c, orders",
        {"customers", "orders"},
        (),
    ),
    (
        "exists_without_outer_from",
        "SELECT EXISTS (SELECT 1 FROM orders)",
        {"orders"},
        (),
    ),
    (
        "unknown_unqualified_column",
        "SELECT ghost_column FROM customers JOIN orders "
        "ON customers.customer_id = orders.customer_id",
        {"customers", "orders"},
        (),
    ),
    (
        "joined_only_by_using",
        "SELECT name FROM customers JOIN orders USING (customer_id)",
        {"customers", "orders"},
        (),
    ),
    (
        "natural_join_reads_no_column",
        "SELECT 1 FROM orders NATURAL JOIN reviews",
        {"orders", "reviews"},
        (),
    ),
    (
        "scalar_subquery_without_where",
        "SELECT (SELECT COUNT(*) FROM orders) FROM customers",
        {"customers", "orders"},
        (),
    ),
    (
        "cte_body_ends_in_alias",
        "WITH c AS (SELECT * FROM orders o) SELECT * FROM customers JOIN c ON 1 = 1",
        {"customers", "orders"},
        (),
    ),
    (
        "unused_cte_reads_nothing",
        "WITH c AS (SELECT * FROM orders) SELECT name FROM customers",
        {"customers"},
        (),
    ),
    (
        "cte_named_like_a_table_reads_no_column",
        "WITH orders AS (SELECT 1 AS n) SELECT COUNT(*) FROM orders",
        set(),
        (),
    ),
    (
        "qualified_table_beside_a_cte_of_its_name",
        "WITH orders AS (SELECT 1 AS n) SELECT COUNT(*) FROM orders, main.orders",
        {"orders"},
        (),
    ),
    (
        "table_count_beside_a_cte_of_its_name_in_another_scope",
        "SELECT (SELECT COUNT(*) FROM orders) FROM customers "
        "WHERE EXISTS (WITH orders AS (SELECT 1 AS n) SELECT n FROM orders)",
        {"customers", "orders"},
        (),
    ),
]

# Statements with no FROM clause at all; extraction must raise, not guess.
NO_FROM_QUERIES = [
    "SELECT 1",
    "SELECT 1 + 2 AS total",
    "INSERT INTO customers VALUES (9, 'Zoe', 'Lyon')",
    "SELECT 'from orders'",
    "SELECT 1 -- FROM orders",
]
