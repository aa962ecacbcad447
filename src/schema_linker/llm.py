"""Prompt rendering, reply parsing, and the completion client stack.

Every completion goes through a transcript cache keyed by a digest of the
full request. Record mode forwards novel requests to a live
OpenAI-compatible backend and persists the replies; replay mode answers
exclusively from the cache, so evaluation runs are deterministic and
network-free. A cache miss in replay mode is fatal by design.
"""

from __future__ import annotations

import functools
import hashlib
import json
import logging
import os
import re
import threading
import time
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path
from typing import Protocol, Sequence

from .errors import (
    BackendError,
    CacheMissError,
    EmptyAfterFilteringError,
    OutOfRangeError,
    ReplyParseError,
)
from .jsonl import JsonlAppender, read_jsonl
from .schema_model import Schema
from .sql_analysis import render_schema

log = logging.getLogger(__name__)

API_URL_ENV = "SCHEMA_LINKER_API_URL"
API_KEY_ENV = "SCHEMA_LINKER_API_KEY"


class PromptId(str, Enum):
    SRC_DST = "src_dst"
    PATH_SELECT = "path_select"
    SQL_GEN_LINKED = "sql_gen_linked"
    SQL_GEN_BASELINE = "sql_gen_baseline"


SYSTEM_PROMPTS: dict[PromptId, str] = {
    PromptId.SRC_DST: """\
ROLE & OBJECTIVE
You are a senior data engineer who analyses SQL schemas and maps user questions precisely to source tables (filtering) and destination tables (final result columns).

TASK
Identify:
- Source table(s) (src): contain columns used in filters/conditions.
- Destination table(s) (dst): contain columns returned in the answer.

INSTRUCTIONS
1. Internally inspect every table to determine
   - which tables participate in filtering, and
   - which tables supply the requested output columns.
   Briefly justify your choice internally but do not include that justification in the final answer.
2. Output exactly one line in the following format:
   src=TableA,TableB, dst=TableC,TableD
""",
    PromptId.PATH_SELECT: """\
ROLE & OBJECTIVE
You are a database expert tasked with selecting the optimal join path to answer user questions using a provided SQL schema.

TASK
Choose the single most appropriate join path from a list of candidates that correctly connects the relevant tables.

INSTRUCTIONS
1. Internally inspect each path to determine:
   - whether it connects all necessary tables,
   - whether joins are complete and valid,
   - and whether it satisfies the intent of the question.
   Briefly justify your decision internally but do not include any reasoning in the final output.
2. Output one line in the following format:
   Final Answer: path_id: <ID>
""",
    PromptId.SQL_GEN_LINKED: """\
ROLE & OBJECTIVE
You are an expert in SQLite query generation. Your task is to generate a valid query to answer a user question based on the given schema and join path.

INPUTS
- Schema:
{schema}
- Join Path: {join_path_string}
- Question Context: {evidence_string}

INSTRUCTIONS
1. Use the provided schema and join path to construct a valid SQLite query.
2. Ensure the query correctly answers the user's question.
3. Format the query clearly and confirm it adheres to SQLite syntax.
""",
    PromptId.SQL_GEN_BASELINE: """\
ROLE & OBJECTIVE
You are an expert in SQLite query generation. Your task is to produce a valid query that answers a user's question using the provided schema.

INPUTS
- Schema:
{schema}
- Question Context: {evidence_string}

INSTRUCTIONS
1. Generate a correct SQLite query that answers the user question.
2. Ensure the query is syntactically valid and aligns with the schema.
3. Format the query clearly and cleanly.
""",
}

RETRY_NUDGE = (
    "Reminder: reply with exactly one line in the form "
    "src=TableA,TableB, dst=TableC,TableD using only table names from the schema."
)


@dataclass(frozen=True)
class CompletionRequest:
    model_name: str
    system_text: str
    user_text: str
    temperature: float


def _normalize_newlines(text: str) -> str:
    return text.replace("\r\n", "\n").replace("\r", "\n")


_QUESTION_MARKER = "Question: "


def _canonical_blob(model_name: str, system_text: str, user_text: str, temperature: float) -> str:
    payload = {
        "model": model_name,
        "system": _normalize_newlines(system_text),
        "user": _normalize_newlines(user_text),
        "temperature": temperature,
    }
    return json.dumps(payload, sort_keys=True, ensure_ascii=True, separators=(",", ":"))


@functools.lru_cache(maxsize=128)
def _head_state(model_name: str, system_text: str, temperature: str, head: str):
    """SHA-256 state that has absorbed the blob up to the end of head + marker.

    ``sort_keys`` puts "user" last, so the blob ends with the user string
    and ``"}``; the state stops just before both closing characters.
    """
    blob = _canonical_blob(model_name, system_text, head + _QUESTION_MARKER, float(temperature))
    return hashlib.sha256(blob[:-2].encode("utf-8"))


def request_digest(request: CompletionRequest) -> str:
    """Stable content digest identifying a request in the transcript cache.

    It is the SHA-256 of the request's canonical JSON. The part of the user
    text before its last "Question: " (a schema, the same for every question
    on it) is hashed once per distinct head; each request hashes only its
    tail. JSON escapes one code point at a time and the marker ends with a
    space, so escaping and newline normalisation never straddle the split.
    """
    temperature = round(float(request.temperature), 6)
    head, _, tail = request.user_text.rpartition(_QUESTION_MARKER)
    if not head:
        blob = _canonical_blob(
            request.model_name, request.system_text, request.user_text, temperature
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()
    # repr, not the float: 0.0 and -0.0 are one key but dump differently.
    state = _head_state(request.model_name, request.system_text, repr(temperature), head).copy()
    state.update((json.dumps(_normalize_newlines(tail))[1:] + "}").encode("utf-8"))
    return state.hexdigest()


_PLACEHOLDER_RE = re.compile(r"\{(\w+)\}")


def _fill(template: str, values: dict[str, str]) -> str:
    # One pass: inserted text is never searched; a name without a value stays.
    return _PLACEHOLDER_RE.sub(lambda match: values.get(match[1], match[0]), template)


def render_src_dst_prompt(
    question: str,
    schema: Schema,
    evidence: str | None = None,
    *,
    model_name: str,
    temperature: float,
) -> CompletionRequest:
    """Prompt asking for source and destination tables for a question."""
    parts = [
        f"Database: {schema.database_id}",
        "",
        "Schema:",
        render_schema(schema),
        "",
        f"Question: {question}",
    ]
    if evidence:
        parts.append(f"Evidence: {evidence}")
    return CompletionRequest(
        model_name=model_name,
        system_text=SYSTEM_PROMPTS[PromptId.SRC_DST],
        user_text="\n".join(parts),
        temperature=temperature,
    )


def render_path_select_prompt(
    question: str,
    candidate_lines: Sequence[str],
    *,
    model_name: str,
    temperature: float,
) -> CompletionRequest:
    """Prompt asking the model to pick one candidate join path."""
    user_text = (
        f"Question: {question}\n\nCandidate join paths:\n" + "\n".join(candidate_lines)
    )
    return CompletionRequest(
        model_name=model_name,
        system_text=SYSTEM_PROMPTS[PromptId.PATH_SELECT],
        user_text=user_text,
        temperature=temperature,
    )


def render_sql_gen_prompt(
    question: str,
    schema_text: str,
    *,
    join_path_text: str | None = None,
    evidence: str | None = None,
    baseline: bool = False,
    model_name: str,
    temperature: float,
) -> CompletionRequest:
    """Prompt asking for a SQLite query, with or without a join path."""
    prompt_id = PromptId.SQL_GEN_BASELINE if baseline else PromptId.SQL_GEN_LINKED
    values = {
        "schema": schema_text,
        "evidence_string": evidence if evidence else "(none)",
    }
    if not baseline:
        values["join_path_string"] = join_path_text or "(single table, no joins)"
    return CompletionRequest(
        model_name=model_name,
        system_text=_fill(SYSTEM_PROMPTS[prompt_id], values),
        user_text=f"Question: {question}",
        temperature=temperature,
    )


@dataclass(frozen=True)
class EndpointExtraction:
    """Parsed source/destination nomination for one question."""

    sources: tuple[str, ...]
    destinations: tuple[str, ...]
    warnings: tuple[str, ...] = ()
    degraded: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "sources", tuple(self.sources))
        object.__setattr__(self, "destinations", tuple(self.destinations))
        object.__setattr__(self, "warnings", tuple(self.warnings))
        if not self.sources or not self.destinations:
            raise ValueError("an extraction needs at least one table on each side")


_SRC_RE = re.compile(r"\bsrc\s*=\s*(.*?)(?=\bdst\s*=|$)", re.IGNORECASE)
_DST_RE = re.compile(r"\bdst\s*=\s*(.*?)(?=\bsrc\s*=|$)", re.IGNORECASE)


def _split_names(raw: str) -> list[str]:
    names = []
    for token in raw.split(","):
        # Quoting and trailing punctuation can nest either way around.
        token, previous = token.strip(), None
        while token != previous:
            previous = token
            token = token.strip("\"'`[]").rstrip(".;:!").strip()
        if token:
            names.append(token)
    return names


def parse_src_dst_reply(reply: str, schema: Schema) -> EndpointExtraction:
    """Parse a source/destination reply against the schema.

    The last complete src/dst pair in the reply wins (models sometimes
    restate their answer). Unknown names are dropped with a warning; a pair
    that leaves either side empty is an EMPTY_AFTER_FILTERING error, and a
    reply without any pair at all is a NO_PARSE error.
    """
    lines = reply.splitlines()
    pairs: list[tuple[str, str]] = []
    for i, line in enumerate(lines):
        src_match = _SRC_RE.search(line)
        dst_match = _DST_RE.search(line)
        if src_match and dst_match:
            pairs.append((src_match.group(1), dst_match.group(1)))
            continue
        if src_match and i + 1 < len(lines):
            follow = _DST_RE.search(lines[i + 1])
            if follow and not _SRC_RE.search(lines[i + 1]):
                pairs.append((src_match.group(1), follow.group(1)))
            continue
        if dst_match and i + 1 < len(lines):
            follow = _SRC_RE.search(lines[i + 1])
            if follow and not _DST_RE.search(lines[i + 1]):
                pairs.append((follow.group(1), dst_match.group(1)))
    if not pairs:
        raise ReplyParseError("no src=/dst= line found in reply")

    raw_sources, raw_destinations = pairs[-1]
    warnings: list[str] = []

    def resolve(raw: str) -> tuple[str, ...]:
        out: list[str] = []
        seen: set[str] = set()
        for name in _split_names(raw):
            canonical = schema.resolve_table(name)
            if canonical is None:
                warnings.append(f"unknown table {name!r} dropped from reply")
                continue
            key = canonical.casefold()
            if key not in seen:
                seen.add(key)
                out.append(canonical)
        return tuple(out)

    sources = resolve(raw_sources)
    destinations = resolve(raw_destinations)
    if not sources or not destinations:
        raise EmptyAfterFilteringError(
            "no usable table names remain after matching the reply to the schema"
        )
    return EndpointExtraction(
        sources=sources,
        destinations=destinations,
        warnings=tuple(warnings),
    )


def degraded_extraction(schema: Schema) -> EndpointExtraction:
    """Fallback used when no usable endpoints could be extracted."""
    names = tuple(schema.table_names)
    return EndpointExtraction(
        sources=names,
        destinations=names,
        warnings=("endpoint extraction failed; treating every table as src and dst",),
        degraded=True,
    )


_PATH_ID_RE = re.compile(r"path_?\s*id\s*[:=]\s*(\d+)", re.IGNORECASE)


def parse_path_select_reply(reply: str, max_id: int) -> int:
    """Extract the chosen path id; the last stated id wins."""
    if max_id < 1:
        raise ValueError("max_id must be at least 1")
    matches = _PATH_ID_RE.findall(reply)
    if not matches:
        raise ReplyParseError("no path_id found in reply")
    value = int(matches[-1])
    if not 1 <= value <= max_id:
        raise OutOfRangeError(f"path_id {value} outside 1..{max_id}")
    return value


class CompletionClient(Protocol):
    def complete(self, request: CompletionRequest) -> str: ...


class TranscriptCache:
    """Append-only JSON-lines store of digests and replies; ``put`` opens it until ``close``."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._entries: dict[str, str] = {
            record["digest"]: record["reply"]
            for record in read_jsonl(self.path, CacheMissError, "cache line", ("digest", "reply"))
        }
        self._appender: JsonlAppender | None = None

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, digest: str) -> str | None:
        with self._lock:
            return self._entries.get(digest)

    def put(self, digest: str, request: CompletionRequest, reply: str) -> None:
        """Store reply under ``digest``, which must be ``request_digest(request)``."""
        record = {
            "digest": digest,
            "model": request.model_name,
            "temperature": request.temperature,
            "system": request.system_text,
            "user": request.user_text,
            "reply": reply,
            "timestamp": datetime.now(timezone.utc).isoformat(),
        }
        with self._lock:
            if digest in self._entries:
                return
            if self._appender is None:
                self._appender = JsonlAppender(self.path)
            self._appender.write(record)
            self._entries[digest] = reply  # only once its line is written

    def close(self) -> None:
        with self._lock:
            if self._appender is not None:
                self._appender.close()
                self._appender = None


REQUEST_TIMEOUT_S = 120.0
MAX_ATTEMPTS = 3
BACKOFF_S = 1.0  # doubled after each further failed attempt


class HttpCompletionClient:
    """Chat-completions client for any OpenAI-compatible endpoint.

    Network failures, 429 and 5xx are retried with exponential backoff, or
    after a Retry-After given in seconds; other statuses fail immediately.
    Token usage reported by the backend is accumulated per calling thread,
    and pop_usage() drains the calling thread's total, so concurrent rows
    never see each other's tokens.
    """

    def __init__(self, api_url: str | None = None, api_key: str | None = None):
        self.api_url = api_url or os.environ.get(API_URL_ENV)
        self.api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV, "")
        if not self.api_url:
            raise BackendError(f"no API endpoint configured; set {API_URL_ENV}")
        self._usage = threading.local()  # its attributes are one thread's totals

    def complete(self, request: CompletionRequest) -> str:
        import http.client
        import urllib.error
        import urllib.request

        body = {
            "model": request.model_name,
            "messages": [
                {"role": "system", "content": request.system_text},
                {"role": "user", "content": request.user_text},
            ],
            "temperature": request.temperature,
        }
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        post = urllib.request.Request(self.api_url, json.dumps(body).encode(), headers)
        last_error: Exception | None = None
        wait = BACKOFF_S  # before the next attempt; a Retry-After replaces it once
        for attempt in range(MAX_ATTEMPTS):
            if attempt:
                time.sleep(wait)
                wait = BACKOFF_S * 2**attempt
            try:
                try:
                    response = urllib.request.urlopen(post, timeout=REQUEST_TIMEOUT_S)
                except urllib.error.HTTPError as exc:  # an OSError too: catch it first
                    response = exc  # a non-2xx status; its body is read below
                with response:
                    status, payload = response.status, response.read()
            except (OSError, http.client.HTTPException) as exc:  # also a truncated reply
                last_error = exc
                continue
            if status == 429 or status >= 500:
                last_error = BackendError(f"status {status}")
                retry_after = response.headers.get("Retry-After", "").strip()
                if retry_after.isdecimal():  # the HTTP-date form gets the usual backoff
                    wait = min(float(retry_after), REQUEST_TIMEOUT_S)
                continue
            if status != 200:
                raise BackendError(
                    f"request failed with status {status}: "
                    f"{payload.decode('utf-8', 'replace')[:200]}"
                )
            try:
                data = json.loads(payload)
                text = data["choices"][0]["message"]["content"]
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                raise BackendError(f"malformed completion response: {exc}") from exc
            if not isinstance(text, str):
                raise BackendError("completion content is not text")
            usage = data.get("usage")
            if isinstance(usage, dict):
                totals = vars(self._usage)
                for key, val in usage.items():
                    if isinstance(val, int):
                        totals[key] = totals.get(key, 0) + val
            return text
        raise BackendError(
            f"backend unreachable after {MAX_ATTEMPTS} attempts: {last_error}"
        )

    def pop_usage(self) -> dict[str, int]:
        usage = dict(vars(self._usage))
        vars(self._usage).clear()
        return usage


class CacheMode(str, Enum):
    RECORD = "record"
    REPLAY = "replay"


class CachingClient:
    """Serves completions from a transcript cache.

    Replay mode never touches the network; record mode forwards novel
    requests to the backend and persists exactly one entry per novel
    digest. Hit and backend-call counters are kept for diagnostics.
    """

    def __init__(
        self,
        cache: TranscriptCache,
        backend: CompletionClient | None = None,
        mode: CacheMode | str = CacheMode.REPLAY,
    ):
        self.cache = cache
        self.backend = backend
        self.mode = CacheMode(mode)
        if self.mode is CacheMode.RECORD and backend is None:
            raise ValueError("record mode needs a live backend")
        self._lock = threading.Lock()
        self.cache_hits = 0
        self.backend_calls = 0

    def complete(self, request: CompletionRequest) -> str:
        digest = request_digest(request)
        cached = self.cache.get(digest)
        if cached is not None:
            with self._lock:
                self.cache_hits += 1
            return cached
        if self.mode is CacheMode.REPLAY:
            raise CacheMissError(
                f"no cached reply for digest {digest[:12]} in replay mode"
            )
        reply = self.backend.complete(request)
        with self._lock:
            self.backend_calls += 1
        self.cache.put(digest, request, reply)
        return reply

    def pop_usage(self) -> dict[str, int]:
        if self.backend is not None and hasattr(self.backend, "pop_usage"):
            return self.backend.pop_usage()
        return {}


@dataclass(frozen=True)
class LlmEndpointOracle:
    """Source/destination nomination with retry-then-degrade on bad replies.

    An unusable first reply triggers one retry with a format reminder
    appended to the user text (a distinct, cacheable request). If that also
    fails, or no retry transcript exists in replay mode, the oracle degrades
    to nominating every table instead of failing the question.
    """

    client: CompletionClient
    model_name: str
    temperature: float

    def __call__(
        self, question: str, schema: Schema, evidence: str | None = None
    ) -> EndpointExtraction:
        request = render_src_dst_prompt(
            question,
            schema,
            evidence,
            model_name=self.model_name,
            temperature=self.temperature,
        )
        reply = self.client.complete(request)
        try:
            return parse_src_dst_reply(reply, schema)
        except (ReplyParseError, EmptyAfterFilteringError):
            pass
        nudged = replace(request, user_text=request.user_text + "\n\n" + RETRY_NUDGE)
        try:
            return parse_src_dst_reply(self.client.complete(nudged), schema)
        except CacheMissError:
            log.warning("no retry transcript available; degrading")
        except (ReplyParseError, EmptyAfterFilteringError):
            pass
        return degraded_extraction(schema)


@dataclass(frozen=True)
class LlmPathOracle:
    """Candidate selection; raises NO_PARSE or OUT_OF_RANGE on bad replies."""

    client: CompletionClient
    model_name: str
    temperature: float

    def __call__(self, question: str, candidate_lines: list[str]) -> int:
        request = render_path_select_prompt(
            question,
            candidate_lines,
            model_name=self.model_name,
            temperature=self.temperature,
        )
        reply = self.client.complete(request)
        return parse_path_select_reply(reply, max_id=len(candidate_lines))
