"""SQL table-reference extraction and prompt-facing text rendering.

The extractor is a purpose-built tokenizer plus clause scanner, not a full
SQL parser: it finds table names in FROM and JOIN positions at any nesting
depth, excludes common-table-expression names, and drops aliases. That
covers the SELECT/CTE subset that gold queries and generated queries use;
anything beyond it is gated by the extraction fixture suite.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from .errors import ParseError, UnknownTableError
from .schema_model import ForeignKeyEdge, Schema, TableDef, join_condition

if TYPE_CHECKING:
    from .pathfinder import LinkResult


@dataclass(frozen=True)
class TableReferenceSet:
    """Tables a query reads from, in the schema's canonical casing."""

    tables: frozenset[str]
    unresolved: tuple[str, ...] = ()


@dataclass(frozen=True)
class _Token:
    kind: str  # "word", "name" (quoted identifier), "string", "number", "punct"
    text: str


_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<line_comment>--[^\n]*)
    | (?P<block_comment>/\*.*?\*/)
    | (?P<string>'(?:[^']|'')*')
    | (?P<dquote>"(?:[^"]|"")*")
    | (?P<backtick>`(?:[^`]|``)*`)
    | (?P<bracket>\[[^\]]*\])
    | (?P<word>[A-Za-z_][A-Za-z0-9_$]*)
    | (?P<number>\d+(?:\.\d*)?|\.\d+)
    | (?P<punct>.)
    """,
    re.DOTALL | re.VERBOSE,
)


def _tokenize(sql: str) -> list[_Token]:
    tokens: list[_Token] = []
    for match in _TOKEN_RE.finditer(sql):
        kind = match.lastgroup
        text = match.group()
        if kind in ("ws", "line_comment", "block_comment"):
            continue
        if kind == "string":
            tokens.append(_Token("string", text))
        elif kind == "dquote":
            tokens.append(_Token("name", text[1:-1].replace('""', '"')))
        elif kind == "backtick":
            tokens.append(_Token("name", text[1:-1].replace("``", "`")))
        elif kind == "bracket":
            tokens.append(_Token("name", text[1:-1]))
        elif kind == "word":
            tokens.append(_Token("word", text))
        elif kind == "number":
            tokens.append(_Token("number", text))
        else:
            tokens.append(_Token("punct", text))
    return tokens


def _is_word(token: _Token, *values: str) -> bool:
    return token.kind == "word" and token.text.upper() in values


def _match_paren(tokens: list[_Token], open_index: int) -> int:
    """Index of the ')' matching the '(' at open_index (or the list end)."""
    depth = 0
    for i in range(open_index, len(tokens)):
        token = tokens[i]
        if token.kind == "punct":
            if token.text == "(":
                depth += 1
            elif token.text == ")":
                depth -= 1
                if depth == 0:
                    return i
    return len(tokens)


_SUBQUERY_STARTERS = ("SELECT", "WITH", "VALUES")
_JOIN_QUALIFIERS = ("LEFT", "RIGHT", "FULL", "INNER", "OUTER", "CROSS", "NATURAL")
_CLAUSE_EXIT = (
    "WHERE",
    "GROUP",
    "ORDER",
    "HAVING",
    "LIMIT",
    "OFFSET",
    "UNION",
    "EXCEPT",
    "INTERSECT",
    "WINDOW",
)


def _collect_cte_names(tokens: list[_Token]) -> set[str]:
    """Casefolded names defined by WITH clauses anywhere in the statement."""
    names: set[str] = set()
    count = len(tokens)
    for i, token in enumerate(tokens):
        if not _is_word(token, "WITH"):
            continue
        j = i + 1
        if j < count and _is_word(tokens[j], "RECURSIVE"):
            j += 1
        while j < count:
            if tokens[j].kind not in ("word", "name"):
                break
            candidate = tokens[j].text
            j += 1
            if j < count and tokens[j].kind == "punct" and tokens[j].text == "(":
                j = _match_paren(tokens, j) + 1  # explicit column list
            if not (j < count and _is_word(tokens[j], "AS")):
                break
            j += 1
            if j < count and _is_word(tokens[j], "NOT"):
                j += 1
            if j < count and _is_word(tokens[j], "MATERIALIZED"):
                j += 1
            if not (j < count and tokens[j].kind == "punct" and tokens[j].text == "("):
                break
            names.add(candidate.casefold())
            j = _match_paren(tokens, j) + 1
            if j < count and tokens[j].kind == "punct" and tokens[j].text == ",":
                j += 1
                continue
            break
    return names


def _scan_range(tokens: list[_Token], lo: int, hi: int, refs: list[str]) -> None:
    i = lo
    while i < hi:
        if _is_word(tokens[i], "FROM", "JOIN"):
            i = _parse_from_clause(tokens, i + 1, hi, refs)
        else:
            i += 1


def _capture_table(tokens: list[_Token], j: int, hi: int, refs: list[str]) -> int:
    parts = [tokens[j].text]
    j += 1
    while (
        j + 1 < hi
        and tokens[j].kind == "punct"
        and tokens[j].text == "."
        and tokens[j + 1].kind in ("word", "name")
    ):
        parts.append(tokens[j + 1].text)
        j += 2
    refs.append(parts[-1])  # a dotted prefix is a database qualifier
    return j


def _parse_from_clause(tokens: list[_Token], j: int, hi: int, refs: list[str]) -> int:
    """Parse table references after a FROM or JOIN token; return the end index."""
    want_table = True
    while j < hi:
        token = tokens[j]
        if token.kind == "punct":
            if token.text == "(":
                end = min(_match_paren(tokens, j), hi)
                if want_table:
                    inner = tokens[j + 1] if j + 1 < end else None
                    if inner is not None and _is_word(inner, *_SUBQUERY_STARTERS):
                        _scan_range(tokens, j + 1, end, refs)  # derived table
                    else:
                        _parse_from_clause(tokens, j + 1, end, refs)  # join group
                    want_table = False
                else:
                    # Function call or condition group; may hide a subquery.
                    _scan_range(tokens, j + 1, end, refs)
                j = end + 1
                continue
            if token.text == ",":
                want_table = True  # clause-level comma resumes the table list
                j += 1
                continue
            if token.text == ";":
                return j
            j += 1
            continue
        if token.kind == "word":
            word = token.text.upper()
            if word == "JOIN":
                want_table = True
                j += 1
                continue
            if word in _JOIN_QUALIFIERS:
                j += 1
                continue
            if word in ("ON", "USING"):
                want_table = False
                j += 1
                continue
            if word in _CLAUSE_EXIT:
                return j
            if word == "AS":
                j += 2  # skip the alias that follows
                continue
            if want_table and word not in _SUBQUERY_STARTERS:
                j = _capture_table(tokens, j, hi, refs)
                want_table = False
                continue
            j += 1  # bare alias or condition content
            continue
        if token.kind == "name" and want_table:
            j = _capture_table(tokens, j, hi, refs)
            want_table = False
            continue
        j += 1
    return j


def extract_tables(sql: str, schema: Schema) -> TableReferenceSet:
    """Extract the set of schema tables a query reads from.

    Raises ParseError when the text has no FROM clause at all. Names that
    match neither the schema nor a CTE are reported as unresolved rather
    than silently dropped.
    """
    tokens = _tokenize(sql)
    if not any(_is_word(token, "FROM") for token in tokens):
        raise ParseError("no FROM clause found in query text")
    cte_names = _collect_cte_names(tokens)
    refs: list[str] = []
    _scan_range(tokens, 0, len(tokens), refs)

    resolved: dict[str, str] = {}
    unresolved: list[str] = []
    seen_unresolved: set[str] = set()
    for raw in refs:
        key = raw.casefold()
        if key in cte_names:
            continue
        canonical = schema.resolve_table(raw)
        if canonical is not None:
            resolved[canonical.casefold()] = canonical
        elif key not in seen_unresolved:
            seen_unresolved.add(key)
            unresolved.append(raw)
    return TableReferenceSet(
        tables=frozenset(resolved.values()), unresolved=tuple(unresolved)
    )


_PLAIN_IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def _quote_ident(name: str) -> str:
    if _PLAIN_IDENT_RE.match(name):
        return name
    return '"' + name.replace('"', '""') + '"'


def table_ddl(table: TableDef) -> tuple[str, str]:
    """A table's "CREATE TABLE name (" line and its column lines, for ``Schema.ddl``."""
    lines: list[str] = []
    for col in table.columns:
        entry = f"    {_quote_ident(col.name)}"
        if col.declared_type:
            entry += f" {col.declared_type}"
        if col.is_primary_key:
            entry += " PRIMARY KEY"
        lines.append(entry)
    return f"CREATE TABLE {_quote_ident(table.name)} (\n", ",\n".join(lines)


def foreign_key_ddl(fk: ForeignKeyEdge) -> str:
    """The key's line in its source table's block."""
    return (
        f"    FOREIGN KEY ({_quote_ident(fk.from_column)}) "
        f"REFERENCES {_quote_ident(fk.to_table)}({_quote_ident(fk.to_column)})"
    )


def render_filtered_schema(
    schema: Schema,
    chosen_tables: Iterable[str],
    induced_fk_edges: Iterable[ForeignKeyEdge],
) -> str:
    """Render the chosen tables as compact DDL-like text for prompts.

    Tables appear in case-insensitive name order; each block lists columns
    in schema order and then, in their given order, the induced foreign
    keys whose source is that table and whose target is chosen. Rendering
    the full table set with all declared keys reproduces the whole-schema
    serialization byte for byte. Keys outside ``schema.ddl`` are formatted here.
    """
    tables, key_lines = schema.ddl
    chosen: set[str] = set()
    for name in chosen_tables:
        key = name.casefold()
        if key not in tables:
            raise UnknownTableError(f"unknown table {name!r}")
        chosen.add(key)

    fk_lines: dict[str, list[str]] = {}
    for fk in induced_fk_edges:
        if fk.to_table.casefold() in chosen:
            line = key_lines.get(fk) or foreign_key_ddl(fk)
            fk_lines.setdefault(fk.from_table.casefold(), []).append(line)

    blocks: list[str] = []
    for key in sorted(chosen):
        header, columns = tables[key]
        body = ",\n".join(filter(None, (columns, *fk_lines.get(key, ()))))
        blocks.append(f"{header}{body}\n);")
    return "\n\n".join(blocks)


def render_schema(schema: Schema) -> str:
    """Whole-schema serialization used by src/dst and baseline prompts.

    The text is rendered once per ``Schema`` object and memoised on it.
    """
    return schema.rendered


def render_join_path(result: "LinkResult") -> str:
    """Describe the chosen tables and how they join, for a generation prompt.

    A concrete path renders as "A -> B (A.x = B.y)"; a union selection
    renders the sorted table list followed by one line per induced join
    condition; a lone table is marked as needing no joins.
    """
    all_edges = tuple(result.induced_fk_edges) + tuple(result.augmented_join_edges)
    path = result.chosen_path()
    if path is not None:
        if path.length == 0:
            return f"{path.tables[0]} (no joins required)"
        arrow = " -> ".join(path.tables)
        conditions: list[str] = []
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
