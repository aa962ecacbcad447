import errno
import json
import os
import random
import re
import socket
import subprocess
import sys
import threading
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

import schema_linker.llm
from schema_linker import CachingClient, HttpCompletionClient, RunConfig, TranscriptCache
from schema_linker.errors import (
    BackendError,
    CacheMissError,
    EmptyAfterFilteringError,
    OutOfRangeError,
    ReplyParseError,
)
from schema_linker.jsonl import JsonlAppender
from schema_linker.llm import (
    RETRY_NUDGE,
    SYSTEM_PROMPTS,
    CompletionRequest,
    LlmEndpointOracle,
    LlmPathOracle,
    PromptId,
    degraded_extraction,
    parse_path_select_reply,
    parse_src_dst_reply,
    render_path_select_prompt,
    render_sql_gen_prompt,
    render_src_dst_prompt,
    request_digest,
)
from schema_linker.pathfinder import build_candidates, preset, render_candidate_lines
from schema_linker.schema_model import build_graph
from schema_linker.sql_analysis import render_schema

from conftest import read_rows, reference_digest
from reference_render import wide_schema

RUN = RunConfig()
LINK = {"model_name": RUN.model, "temperature": RUN.link_temperature}
GENERATE = {"model_name": RUN.model, "temperature": RUN.generate_temperature}


def req(model="m", system="s", user="u", temperature=0.2):
    return CompletionRequest(
        model_name=model, system_text=system, user_text=user, temperature=temperature
    )


class TestRequestDigest:
    def test_deterministic(self):
        assert request_digest(req()) == request_digest(req())

    def test_newline_normalization(self):
        assert request_digest(req(user="a\r\nb")) == request_digest(req(user="a\nb"))
        assert request_digest(req(system="a\rb")) == request_digest(req(system="a\nb"))

    def test_temperature_rounded_to_six_places(self):
        assert request_digest(req(temperature=0.2)) == request_digest(
            req(temperature=0.2000000004)
        )
        assert request_digest(req(temperature=0.2)) != request_digest(
            req(temperature=0.3)
        )

    @pytest.mark.parametrize(
        "change",
        [
            {"model": "other"},
            {"system": "different"},
            {"user": "different"},
        ],
    )
    def test_every_field_participates(self, change):
        assert request_digest(req(**change)) != request_digest(req())


DIGEST_PIECES = [
    "a", "\r", "\n", "\r\n", '"', "\\", "é", "\U0001f600", "\ud800", "\x00",
    "Question: ", "\nQuestion: ",
]  # fmt: skip


def random_text(rng, most=12, pieces=DIGEST_PIECES):
    return "".join(rng.choices(pieces, k=rng.randint(0, most)))


def rendered_requests(schema, questions):
    """Every kind of request the pipeline renders for these questions on schema."""
    graph = build_graph(schema)
    names = list(schema.table_names)
    candidates = build_candidates(graph, names[:2], names[-2:], preset("mode4"))
    lines = render_candidate_lines(candidates, include_union=True)
    for text in questions:
        for question in (text, f"Question: {text}", f"{text}\r\nQuestion: again?\r"):
            for evidence in (None, "Question: x\r\nEvidence: y", "\r"):
                request = render_src_dst_prompt(question, schema, evidence, **LINK)
                yield request
                yield replace(request, user_text=request.user_text + "\n\n" + RETRY_NUDGE)
                yield render_path_select_prompt(question, lines, **LINK)
                for baseline in (False, True):
                    yield render_sql_gen_prompt(
                        question,
                        render_schema(schema),
                        join_path_text=lines[0],
                        evidence=evidence,
                        baseline=baseline,
                        **GENERATE,
                    )


class TestDigestMatchesReference:
    """The digest hashes a shared head once, yet equals the one-pass digest."""

    def test_random_requests(self):
        rng = random.Random(2718)
        models, systems = ["m", "modèle", ""], ["s", "a\r\nb\r", SYSTEM_PROMPTS[PromptId.SRC_DST]]
        temperatures = [0.2, 0.2000000004, 0.0, -0.0, 1, 0.3]
        # Repeated heads exercise memo hits; free draws overflow its bound.
        tail_pieces = [piece for piece in DIGEST_PIECES if "Question" not in piece]
        keys = [
            (rng.choice(models), rng.choice(systems), rng.choice(temperatures), random_text(rng))
            for _ in range(60)
        ]
        head_state = schema_linker.llm._head_state
        head_state.cache_clear()
        for _ in range(20_000):
            if rng.random() < 0.5:
                model, system, temperature, head = rng.choice(keys)
                user = head + "Question: " + random_text(rng, pieces=tail_pieces)
            else:
                model, system = rng.choice(models), rng.choice(systems)
                temperature, user = rng.choice(temperatures), random_text(rng, 24)
            request = req(model, system, user, temperature)
            assert request_digest(request) == reference_digest(request), request
        info = head_state.cache_info()
        assert info.hits > 5_000 and info.currsize <= info.maxsize

    def test_rendered_requests(self, questions, retail_schema):
        texts = [question.text for question in questions]
        head_state = schema_linker.llm._head_state
        head_state.cache_clear()
        count = 0
        for schema in (retail_schema, wide_schema(100, 200)):
            for request in rendered_requests(schema, texts):
                assert request_digest(request) == reference_digest(request), request
                count += 1
        assert count == 2 * len(texts) * 9 * 5
        assert head_state.cache_info().hits > 0


class TestPromptRendering:
    def test_src_dst_user_text(self, retail_schema):
        request = render_src_dst_prompt("Who ordered?", retail_schema, **LINK)
        assert request.system_text == SYSTEM_PROMPTS[PromptId.SRC_DST]
        assert request.user_text == (
            "Database: retail\n\nSchema:\n"
            + render_schema(retail_schema)
            + "\n\nQuestion: Who ordered?"
        )

    def test_src_dst_evidence_appended(self, retail_schema):
        request = render_src_dst_prompt(
            "Who?", retail_schema, evidence="dates are ISO strings", **LINK
        )
        assert request.user_text.endswith(
            "Question: Who?\nEvidence: dates are ISO strings"
        )

    def test_path_select_user_text(self):
        request = render_path_select_prompt(
            "Which?", ["path_id=1: a -> b", "path_id=2: UNION {a, b}"], **LINK
        )
        assert request.system_text == SYSTEM_PROMPTS[PromptId.PATH_SELECT]
        assert request.user_text == (
            "Question: Which?\n\nCandidate join paths:\n"
            "path_id=1: a -> b\npath_id=2: UNION {a, b}"
        )

    def test_sql_gen_linked_fills_placeholders(self):
        request = render_sql_gen_prompt(
            "How many?",
            "CREATE TABLE t (x);",
            join_path_text="a -> b (a.x = b.x)",
            evidence="x is a count",
            **GENERATE,
        )
        assert "{schema}" not in request.system_text
        assert "{join_path_string}" not in request.system_text
        assert "{evidence_string}" not in request.system_text
        assert "CREATE TABLE t (x);" in request.system_text
        assert "a -> b (a.x = b.x)" in request.system_text
        assert "x is a count" in request.system_text
        assert request.user_text == "Question: How many?"

    def test_sql_gen_defaults(self):
        request = render_sql_gen_prompt("q", "SCHEMA", **GENERATE)
        assert "- Join Path: (single table, no joins)" in request.system_text
        assert "- Question Context: (none)" in request.system_text

    def test_sql_gen_baseline_has_no_join_path(self):
        request = render_sql_gen_prompt("q", "SCHEMA", baseline=True, **GENERATE)
        assert "Join Path" not in request.system_text
        assert "SCHEMA" in request.system_text

    def test_schema_braces_survive_filling(self):
        # str.format would raise on stray braces in schema text
        request = render_sql_gen_prompt("q", 'CREATE TABLE "{weird}" (x);', **GENERATE)
        assert '"{weird}"' in request.system_text

    def test_placeholders_inside_inserted_text_stay_literal(self):
        request = render_sql_gen_prompt(
            "q",
            "CREATE TABLE t (x)",
            join_path_text="t (no joins required)",
            evidence="literal {join_path_string} here",
            **GENERATE,
        )
        assert "- Question Context: literal {join_path_string} here\n" in request.system_text
        request = render_sql_gen_prompt(
            "q", 'CREATE TABLE "{evidence_string}" (x)', evidence="e", baseline=True, **GENERATE
        )
        assert 'CREATE TABLE "{evidence_string}" (x)\n' in request.system_text
        assert "- Question Context: e\n" in request.system_text
        # The baseline template has no join path, so the value is never read.
        request = render_sql_gen_prompt("q", "{join_path_string}", baseline=True, **GENERATE)
        assert "\n{join_path_string}\n" in request.system_text


class TestSrcDstParsing:
    def test_single_line_reply(self, retail_schema):
        extraction = parse_src_dst_reply(
            "src=orders,customers, dst=customers", retail_schema
        )
        assert extraction.sources == ("orders", "customers")
        assert extraction.destinations == ("customers",)
        assert extraction.warnings == ()
        assert not extraction.degraded

    def test_src_then_dst_on_next_line(self, retail_schema):
        extraction = parse_src_dst_reply(
            "src=orders\ndst=customers", retail_schema
        )
        assert extraction.sources == ("orders",)
        assert extraction.destinations == ("customers",)

    def test_dst_then_src_on_next_line(self, retail_schema):
        extraction = parse_src_dst_reply(
            "dst=customers\nsrc=orders", retail_schema
        )
        assert extraction.sources == ("orders",)
        assert extraction.destinations == ("customers",)

    def test_last_pair_wins(self, retail_schema):
        reply = (
            "Considering src=products, dst=reviews first...\n"
            "Final: src=orders, dst=customers"
        )
        extraction = parse_src_dst_reply(reply, retail_schema)
        assert extraction.sources == ("orders",)
        assert extraction.destinations == ("customers",)

    def test_names_resolve_case_insensitively(self, retail_schema):
        extraction = parse_src_dst_reply("src=ORDERS, dst=Customers", retail_schema)
        assert extraction.sources == ("orders",)
        assert extraction.destinations == ("customers",)

    def test_quoting_and_punctuation_stripped(self, retail_schema):
        extraction = parse_src_dst_reply(
            'src="orders", `customers`, dst=[reviews].', retail_schema
        )
        assert extraction.sources == ("orders", "customers")
        assert extraction.destinations == ("reviews",)

    def test_unknown_names_dropped_with_warning(self, retail_schema):
        extraction = parse_src_dst_reply(
            "src=orders, shipments, dst=customers", retail_schema
        )
        assert extraction.sources == ("orders",)
        assert any("shipments" in w for w in extraction.warnings)

    def test_duplicates_collapse(self, retail_schema):
        extraction = parse_src_dst_reply(
            "src=orders, Orders, ORDERS, dst=customers", retail_schema
        )
        assert extraction.sources == ("orders",)

    def test_all_unknown_is_empty_after_filtering(self, retail_schema):
        with pytest.raises(EmptyAfterFilteringError):
            parse_src_dst_reply("src=ghosts, dst=phantoms", retail_schema)

    def test_no_pair_is_a_parse_error(self, retail_schema):
        with pytest.raises(ReplyParseError):
            parse_src_dst_reply("I cannot answer that.", retail_schema)

    def test_degraded_extraction_nominates_everything(self, retail_schema):
        extraction = degraded_extraction(retail_schema)
        assert extraction.degraded
        assert set(extraction.sources) == set(retail_schema.table_names)
        assert extraction.sources == extraction.destinations


class TestPathSelectParsing:
    @pytest.mark.parametrize(
        "reply,expected",
        [
            ("Final Answer: path_id: 2", 2),
            ("path_id=3", 3),
            ("Path ID: 1", 1),
            ("pathid: 2", 2),
            ("I pick path_id: 1 then revise to path_id: 3", 3),
        ],
    )
    def test_accepted_formats(self, reply, expected):
        assert parse_path_select_reply(reply, max_id=3) == expected

    def test_missing_id_is_parse_error(self):
        with pytest.raises(ReplyParseError):
            parse_path_select_reply("the first one looks right", max_id=3)

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            parse_path_select_reply("path_id: 9", max_id=3)
        with pytest.raises(OutOfRangeError):
            parse_path_select_reply("path_id: 0", max_id=3)

    def test_bad_max_id(self):
        with pytest.raises(ValueError):
            parse_path_select_reply("path_id: 1", max_id=0)


class TestTranscriptCache:
    def test_round_trip_and_persistence(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = TranscriptCache(path)
        request = req(user="hello")
        assert cache.get(request_digest(request)) is None
        cache.put(request_digest(request), request, "world")
        assert cache.get(request_digest(request)) == "world"
        reopened = TranscriptCache(path)
        assert reopened.get(request_digest(request)) == "world"
        assert len(reopened) == 1
        cache.close()

    def test_put_is_idempotent_per_digest(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = TranscriptCache(path)
        request = req()
        cache.put(request_digest(request), request, "first")
        cache.put(request_digest(request), request, "second")
        records = read_rows(cache.path)
        assert len(records) == 1
        assert records[0]["reply"] == "first"
        cache.close()

    def test_record_fields(self, tmp_path):
        cache = TranscriptCache(tmp_path / "c.jsonl")
        request = req(model="m1", system="sys", user="usr", temperature=0.25)
        cache.put(request_digest(request), request, "out")
        (record,) = read_rows(cache.path)
        assert record["digest"] == request_digest(request)
        assert record["model"] == "m1"
        assert record["system"] == "sys"
        assert record["user"] == "usr"
        assert record["temperature"] == 0.25
        assert record["reply"] == "out"
        assert "timestamp" in record
        cache.close()

    def test_unreadable_line_fails_load(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text('{"digest": "x", "reply": "y"}\nnot json\n', encoding="utf-8")
        with pytest.raises(CacheMissError):
            TranscriptCache(path)


    @pytest.mark.parametrize(
        "line, message",
        [
            ('{"reply": "y"}', "cache line lacks 'digest'"),
            ('{"digest": "x"}', "cache line lacks 'reply'"),
            ("[1, 2]", "cache line is not a JSON object"),
        ],
    )
    def test_record_without_digest_or_reply_fails_load(self, tmp_path, line, message):
        path = tmp_path / "broken.jsonl"
        path.write_text('{"digest": "x", "reply": "y"}\n' + line + "\n", encoding="utf-8")
        with pytest.raises(CacheMissError, match=f":2: {re.escape(message)}"):
            TranscriptCache(path)

    def test_corrupt_middle_line_fails_load(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text(
            'not json\n{"digest": "x", "reply": "y"}\n', encoding="utf-8"
        )
        with pytest.raises(CacheMissError, match=":1: unreadable cache line"):
            TranscriptCache(path)

    @pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\x85"])
    def test_line_separator_inside_a_reply_is_read(self, tmp_path, separator):
        # JSON allows these raw inside strings, as json.dumps(ensure_ascii=False) writes them.
        path = tmp_path / "cache.jsonl"
        reply = f"SELECT 1{separator}FROM t"
        path.write_text(
            json.dumps({"digest": "x", "reply": reply}, ensure_ascii=False)
            + '\n{"digest": "y", "reply": "z"}\n',
            encoding="utf-8",
        )
        cache = TranscriptCache(path)
        assert (len(cache), cache.get("x"), cache.get("y")) == (2, reply, "z")

    def test_torn_last_line_is_skipped_then_cut_before_the_next_put(
        self, tmp_path, caplog
    ):
        path = tmp_path / "cache.jsonl"
        cache = TranscriptCache(path)
        kept, lost, later = req(user="kept"), req(user="lost"), req(user="later")
        cache.put(request_digest(kept), kept, "one")
        cache.put(request_digest(lost), lost, "two")
        cache.close()
        text = path.read_text(encoding="utf-8")
        path.write_text(text[: len(text) - 20], encoding="utf-8")

        reopened = TranscriptCache(path)
        assert "torn final line" in caplog.text
        assert len(reopened) == 1
        assert reopened.get(request_digest(kept)) == "one"
        assert reopened.get(request_digest(lost)) is None

        reopened.put(request_digest(later), later, "three")
        reopened.close()
        caplog.clear()
        assert [r["reply"] for r in read_rows(path)] == ["one", "three"]
        assert "torn" not in caplog.text

    def test_complete_last_line_without_newline_gets_one(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        first = req(user="first")
        cache = TranscriptCache(path)
        cache.put(request_digest(first), first, "one")
        cache.close()
        path.write_text(path.read_text(encoding="utf-8").rstrip("\n"), encoding="utf-8")
        reopened = TranscriptCache(path)
        assert len(reopened) == 1
        second = req(user="second")
        reopened.put(request_digest(second), second, "two")
        reopened.close()
        lines = path.read_text(encoding="utf-8").splitlines(True)
        assert [json.loads(line)["reply"] for line in lines] == ["one", "two"]
        assert all(line.endswith("\n") for line in lines)

    def test_a_failed_put_stores_nothing(self, tmp_path, monkeypatch):
        def full_disk(appender, record):
            raise OSError(errno.ENOSPC, "No space left on device")

        cache = TranscriptCache(tmp_path / "cache.jsonl")
        request = req(user="lost")
        with monkeypatch.context() as patch:
            patch.setattr(JsonlAppender, "write", full_disk)
            with pytest.raises(OSError):
                cache.put(request_digest(request), request, "never written")
        assert cache.get(request_digest(request)) is None
        cache.put(request_digest(request), request, "written")
        cache.close()
        assert TranscriptCache(cache.path).get(request_digest(request)) == "written"


class CountingBackend:
    def __init__(self, reply="pong"):
        self.reply = reply
        self.calls = 0

    def complete(self, request):
        self.calls += 1
        return self.reply


class TestCachingClient:
    def test_record_mode_requires_backend(self, tmp_path):
        with pytest.raises(ValueError):
            CachingClient(TranscriptCache(tmp_path / "c.jsonl"), mode="record")

    def test_replay_miss_is_fatal(self, tmp_path):
        client = CachingClient(TranscriptCache(tmp_path / "c.jsonl"), mode="replay")
        request = req()
        with pytest.raises(CacheMissError) as info:
            client.complete(request)
        assert request_digest(request)[:12] in str(info.value)

    def test_record_then_hit(self, tmp_path):
        backend = CountingBackend()
        client = CachingClient(
            TranscriptCache(tmp_path / "c.jsonl"), backend=backend, mode="record"
        )
        request = req()
        assert client.complete(request) == "pong"
        assert client.complete(request) == "pong"
        assert backend.calls == 1
        assert client.backend_calls == 1
        assert client.cache_hits == 1
        client.cache.close()

    def test_recorded_transcript_replays(self, tmp_path):
        path = tmp_path / "c.jsonl"
        recorder = CachingClient(
            TranscriptCache(path), backend=CountingBackend("answer"), mode="record"
        )
        recorder.complete(req())
        recorder.cache.close()
        replayer = CachingClient(TranscriptCache(path), mode="replay")
        assert replayer.complete(req()) == "answer"
        assert replayer.cache_hits == 1


class ScriptedClient:
    """Returns queued replies; an Exception instance in the queue is raised."""

    def __init__(self, *replies):
        self.replies = list(replies)
        self.seen: list[CompletionRequest] = []

    def complete(self, request):
        self.seen.append(request)
        item = self.replies.pop(0)
        if isinstance(item, Exception):
            raise item
        return item


class TestEndpointOracle:
    def test_clean_reply_needs_one_call(self, retail_schema):
        client = ScriptedClient("src=orders, dst=customers")
        extraction = LlmEndpointOracle(client, **LINK)("q", retail_schema, None)
        assert extraction.sources == ("orders",)
        assert len(client.seen) == 1

    def test_retry_appends_nudge_and_recovers(self, retail_schema):
        client = ScriptedClient("no answer", "src=orders, dst=customers")
        extraction = LlmEndpointOracle(client, **LINK)("q", retail_schema, None)
        assert extraction.sources == ("orders",)
        assert not extraction.degraded
        assert len(client.seen) == 2
        first, second = client.seen
        assert second.user_text == first.user_text + "\n\n" + RETRY_NUDGE
        assert request_digest(first) != request_digest(second)

    def test_two_bad_replies_degrade(self, retail_schema):
        client = ScriptedClient("nope", "still nope")
        extraction = LlmEndpointOracle(client, **LINK)("q", retail_schema, None)
        assert extraction.degraded
        assert len(client.seen) == 2
        assert set(extraction.sources) == set(retail_schema.table_names)

    def test_replay_cache_miss_on_retry_degrades(self, retail_schema):
        client = ScriptedClient("nope", CacheMissError("digest absent"))
        extraction = LlmEndpointOracle(client, **LINK)("q", retail_schema, None)
        assert extraction.degraded

    def test_backend_errors_propagate(self, retail_schema):
        client = ScriptedClient(BackendError("boom"))
        with pytest.raises(BackendError):
            LlmEndpointOracle(client, **LINK)("q", retail_schema, None)


class TestPathOracle:
    def test_returns_selected_id(self):
        client = ScriptedClient("Final Answer: path_id: 2")
        oracle = LlmPathOracle(client, **LINK)
        assert oracle("q", ["path_id=1: a", "path_id=2: b"]) == 2
        (request,) = client.seen
        assert "path_id=1: a" in request.user_text

    def test_out_of_range_propagates(self):
        client = ScriptedClient("path_id: 7")
        with pytest.raises(OutOfRangeError):
            LlmPathOracle(client, **LINK)("q", ["path_id=1: a", "path_id=2: b"])

    def test_garbage_propagates_parse_error(self):
        client = ScriptedClient("hmm")
        with pytest.raises(ReplyParseError):
            LlmPathOracle(client, **LINK)("q", ["path_id=1: a"])


HANG = object()  # a scripted response that never comes


@pytest.fixture
def status_endpoint():
    """Start a chat-completions server answering with scripted responses.

    Each request takes the next response from the list and the last one
    repeats. A response is an HTTP status, whose 200 carries the reply "ok";
    a ``(status, headers, body)`` triple; or ``HANG``, which holds the
    request open until the test ends. ``hits`` counts the requests.
    """
    servers = []
    release = threading.Event()

    def start(*responses):
        hits = []

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                self.rfile.read(int(self.headers["Content-Length"]))
                hits.append(self.path)
                response = responses[min(len(hits), len(responses)) - 1]
                if response is HANG:
                    release.wait(timeout=30)
                    return
                if isinstance(response, int):
                    payload = {"choices": [{"message": {"content": "ok"}}]}
                    body = payload if response == 200 else {"error": response}
                    response = (response, {}, json.dumps(body).encode())
                status, headers, blob = response
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                for name, value in headers.items():
                    self.send_header(name, value)
                self.send_header("Content-Length", str(len(blob)))
                self.end_headers()
                self.wfile.write(blob)

            def log_message(self, *args):
                pass

        server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        servers.append(server)
        # A short poll keeps shutdown() from waiting the default half second.
        threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        ).start()
        url = f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions"
        return HttpCompletionClient(url), hits

    yield start
    release.set()
    for server in servers:
        server.shutdown()
        server.server_close()


@pytest.fixture
def sleeps(monkeypatch):
    """Backoff waits, recorded instead of slept."""
    waited: list[float] = []
    monkeypatch.setattr(schema_linker.llm.time, "sleep", waited.append)
    return waited


class TestHttpRetry:
    def test_server_error_then_success(self, status_endpoint, sleeps):
        client, hits = status_endpoint(503, 200)
        assert client.complete(req()) == "ok"
        assert len(hits) == 2
        assert sleeps == [1.0]

    def test_server_error_every_attempt_gives_up(self, status_endpoint, sleeps):
        client, hits = status_endpoint(503)
        with pytest.raises(BackendError, match="unreachable after 3 attempts"):
            client.complete(req())
        assert len(hits) == 3
        assert sleeps == [1.0, 2.0]

    def test_client_error_fails_fast(self, status_endpoint, sleeps):
        client, hits = status_endpoint(400, 200)
        with pytest.raises(BackendError, match="status 400"):
            client.complete(req())
        assert len(hits) == 1
        assert sleeps == []

    def test_refused_connection_is_retried(self, sleeps):
        with socket.socket() as probe:  # a port that nothing listens on once closed
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        client = HttpCompletionClient(f"http://127.0.0.1:{port}/v1/chat/completions")
        with pytest.raises(BackendError, match="unreachable after 3 attempts"):
            client.complete(req())
        assert sleeps == [1.0, 2.0]  # one backoff before each retry

    @pytest.mark.parametrize(
        "headers, waited",
        [
            ({"Retry-After": "7"}, [7.0]),
            ({}, [1.0]),
            ({"Retry-After": "600"}, [120.0]),  # capped at the request timeout
            ({"Retry-After": "Wed, 21 Oct 2015 07:28:00 GMT"}, [1.0]),
            ({"Retry-After": "-3"}, [1.0]),
        ],
        ids=["seconds", "absent", "capped", "http-date", "negative"],
    )
    def test_rate_limit_is_retried(self, status_endpoint, sleeps, headers, waited):
        client, hits = status_endpoint((429, headers, b"{}"), 200)
        assert client.complete(req()) == "ok"
        assert len(hits) == 2
        assert sleeps == waited

    def test_rate_limit_every_attempt_gives_up(self, status_endpoint, sleeps):
        client, hits = status_endpoint((429, {"Retry-After": "5"}, b"{}"))
        with pytest.raises(BackendError, match="unreachable after 3 attempts: status 429"):
            client.complete(req())
        assert len(hits) == 3
        assert sleeps == [5.0, 5.0]

    def test_success_status_other_than_200_fails_fast(self, status_endpoint, sleeps):
        client, hits = status_endpoint(202, 200)
        with pytest.raises(BackendError, match="status 202"):
            client.complete(req())
        assert len(hits) == 1
        assert sleeps == []

    @pytest.mark.parametrize("body", [b"not json", b'{"choices": []}'])
    def test_malformed_body_fails_fast(self, status_endpoint, sleeps, body):
        client, hits = status_endpoint((200, {}, body))
        with pytest.raises(BackendError, match="malformed"):
            client.complete(req())
        assert len(hits) == 1
        assert sleeps == []

    def test_timeout_is_retried(self, status_endpoint, sleeps, monkeypatch):
        monkeypatch.setattr(schema_linker.llm, "REQUEST_TIMEOUT_S", 0.2)
        client, hits = status_endpoint(HANG)
        with pytest.raises(BackendError, match="unreachable after 3 attempts: .*timed out"):
            client.complete(req())
        assert len(hits) == 3
        assert sleeps == [1.0, 2.0]


def test_import_loads_no_http_stack():
    """Replay never sends a request, so importing the package must not
    load an HTTP client; record mode imports one when it posts."""
    code = (
        "import sys, schema_linker, schema_linker.cli\n"
        "print(sorted(m for m in ('requests', 'urllib.request', 'http.client')"
        " if m in sys.modules))"
    )
    src = str(Path(schema_linker.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert done.stdout.strip() == "[]"
