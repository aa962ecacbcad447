import itertools
import json
import random
import re
import sys
import threading
import time
from collections import Counter
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from types import SimpleNamespace

import pytest

import schema_linker.jsonl

from schema_linker import harness, llm, pathfinder
from schema_linker import (
    CachingClient,
    RunConfig,
    SchemaRepository,
    TranscriptCache,
    ingest_dataset,
    run_evaluation,
    run_generation,
    run_linking,
    run_sweep,
    write_schema_document,
)
from schema_linker.errors import BackendError, EmptyInputError, NoSchemasFoundError, ParseError
from schema_linker.harness import CSV_COLUMNS, GRID_COLUMNS, Question, extract_sql_reply
from schema_linker.llm import (
    API_URL_ENV,
    RETRY_NUDGE,
    SYSTEM_PROMPTS,
    CompletionRequest,
    PromptId,
    render_sql_gen_prompt,
)
from schema_linker.pathfinder import Selection
from schema_linker.schema_model import SQLITE_MAGIC, Schema, SchemaGraph

from conftest import ALL_MODES, read_rows, reference_digest
from reference_render import reference_render, wide_schema
from toy_corpus import (
    CORPUS,
    DB_ID,
    ScriptedBackend,
    SlowStartBackend,
    build_database,
    corpus_row_by_question,
    first_reply_s,
    write_corpus,
)

EXPECTED_MODE7_CHOSEN = {
    "1": {"customers", "orders"},
    "2": {"products", "reviews"},
    "3": {"customers", "order_items", "orders", "products", "reviews"},
    "4": {"products", "suppliers"},
    "5": {"order_items", "products"},
    "6": {"products", "reviews", "suppliers"},
    "7": {"customers"},
    "8": {"customers", "orders", "reviews"},
    "9": {"products", "reviews"},
    "10": {"order_items"},
}


def replay_client(cache_path):
    return CachingClient(TranscriptCache(cache_path), mode="replay")


def by_prompt(requests, prompt_id):
    if prompt_id in (PromptId.SRC_DST, PromptId.PATH_SELECT):
        return [r for r in requests if r.system_text == SYSTEM_PROMPTS[prompt_id]]
    raise AssertionError(prompt_id)


class TestIngestDataset:
    def test_toy_corpus_loads(self, questions):
        assert len(questions) == 10
        assert [q.question_id for q in questions] == [str(i) for i in range(1, 11)]
        assert all(q.db_id == DB_ID for q in questions)
        q2 = questions[1]
        assert q2.evidence == "product names are stored in products.product_name"
        assert questions[0].evidence is None  # empty string collapses to None
        assert questions[2].difficulty == "challenging"
        assert questions[0].gold_sql == CORPUS[0]["SQL"]

    def test_missing_file(self, tmp_path, schema_root):
        with pytest.raises(FileNotFoundError):
            ingest_dataset(tmp_path / "nope.json", schema_root)

    def test_invalid_json(self, tmp_path, schema_root):
        path = tmp_path / "bad.json"
        path.write_text("[{", encoding="utf-8")
        with pytest.raises(ParseError):
            ingest_dataset(path, schema_root)

    def test_non_array_rejected(self, tmp_path, schema_root):
        path = tmp_path / "obj.json"
        path.write_text('{"question_id": 1}', encoding="utf-8")
        with pytest.raises(ParseError, match="array"):
            ingest_dataset(path, schema_root)

    def test_missing_field_reports_row(self, tmp_path, schema_root):
        path = tmp_path / "rows.json"
        path.write_text(
            json.dumps([{"question_id": 1, "db_id": DB_ID}]), encoding="utf-8"
        )
        with pytest.raises(ParseError, match=r"rows\.json\[0\]"):
            ingest_dataset(path, schema_root)

    def test_unknown_database_skipped_with_diagnostic(self, tmp_path, schema_root):
        rows = [
            {"question_id": 1, "db_id": DB_ID, "question": "q1"},
            {"question_id": 2, "db_id": "ghost", "question": "q2"},
        ]
        path = tmp_path / "d.json"
        path.write_text(json.dumps(rows), encoding="utf-8")
        questions, diagnostics = ingest_dataset(path, schema_root)
        assert [q.question_id for q in questions] == ["1"]
        assert len(diagnostics) == 1
        assert "ghost" in diagnostics[0]

    def test_no_schemas_at_all(self, tmp_path):
        rows = [{"question_id": 1, "db_id": "ghost", "question": "q"}]
        path = tmp_path / "d.json"
        path.write_text(json.dumps(rows), encoding="utf-8")
        with pytest.raises(NoSchemasFoundError):
            ingest_dataset(path, tmp_path / "schemas")

    def test_empty_dataset_is_fine(self, tmp_path, schema_root):
        path = tmp_path / "empty.json"
        path.write_text("[]", encoding="utf-8")
        assert ingest_dataset(path, schema_root) == ([], [])

    def test_duplicate_question_id_rejected(self, tmp_path, schema_root):
        rows = [
            {"question_id": 1, "db_id": DB_ID, "question": "q1"},
            {"question_id": 2, "db_id": DB_ID, "question": "q2"},
            {"question_id": "1", "db_id": "ghost", "question": "q3"},
        ]
        path = tmp_path / "d.json"
        path.write_text(json.dumps(rows), encoding="utf-8")
        with pytest.raises(ParseError, match=r"d\.json\[2\].*'1'.*d\.json\[0\]"):
            ingest_dataset(path, schema_root)

    def test_each_database_is_looked_up_once(self, tmp_path, schema_root, monkeypatch):
        db_ids = [DB_ID, "ghost", DB_ID, "ghost", DB_ID]
        rows = [
            {"question_id": i, "db_id": db_id, "question": f"q{i}"}
            for i, db_id in enumerate(db_ids, start=1)
        ]
        path = tmp_path / "d.json"
        path.write_text(json.dumps(rows), encoding="utf-8")
        looked_up, real_has = [], SchemaRepository.has

        def has(self, db_id):
            looked_up.append(db_id)
            return real_has(self, db_id)

        monkeypatch.setattr(SchemaRepository, "has", has)
        questions, diagnostics = ingest_dataset(path, schema_root)
        assert looked_up == [DB_ID, "ghost"]
        assert [q.question_id for q in questions] == ["1", "3", "5"]
        assert [message.split(":")[0] for message in diagnostics] == ["d.json[1]", "d.json[3]"]

    def test_require_gold_sql(self, tmp_path, schema_root):
        rows = [{"question_id": 1, "db_id": DB_ID, "question": "q"}]
        path = tmp_path / "d.json"
        path.write_text(json.dumps(rows), encoding="utf-8")
        questions, _ = ingest_dataset(path, schema_root)
        assert questions[0].gold_sql == ""
        with pytest.raises(ParseError, match="SQL"):
            ingest_dataset(path, schema_root, require_gold_sql=True)


class TestSchemaRepository:
    def test_sqlite_wins_over_document(self, tmp_path):
        root = tmp_path / "schemas"
        build_database(root / DB_ID / f"{DB_ID}.sqlite")
        write_schema_document(Schema(database_id=DB_ID), root / DB_ID / "schema.json")
        repo = SchemaRepository(root)
        assert len(repo.schema(DB_ID).tables) == 6

    def test_document_fallback(self, tmp_path, retail_schema):
        root = tmp_path / "schemas"
        write_schema_document(retail_schema, root / DB_ID / "schema.json")
        repo = SchemaRepository(root)
        assert repo.database_path(DB_ID) is None
        assert repo.schema(DB_ID).table_names == retail_schema.table_names
        assert repo.graph(DB_ID).edge_count == 6

    def test_missing_database(self, tmp_path):
        repo = SchemaRepository(tmp_path)
        assert not repo.has("ghost")
        with pytest.raises(FileNotFoundError):
            repo.schema("ghost")

    def test_caching_returns_same_objects(self, repo):
        assert repo.schema(DB_ID) is repo.schema(DB_ID)
        assert repo.graph(DB_ID) is repo.graph(DB_ID)

    def test_blank_column_name_is_a_parse_error_in_the_link_row(self, tmp_path):
        document = tmp_path / "schemas" / DB_ID / "schema.json"
        document.parent.mkdir(parents=True)
        columns = [{"name": "x"}, {"name": "  "}]
        document.write_text(
            json.dumps({"db_id": DB_ID, "tables": [{"name": "t", "columns": columns}]}),
            encoding="utf-8",
        )
        config = RunConfig(cache_path=tmp_path / "cache.jsonl")
        out = tmp_path / "link.jsonl"
        question = Question(question_id="1", db_id=DB_ID, text="q")
        run_linking(
            [question], config, SchemaRepository(tmp_path / "schemas"), out,
            client=replay_client(config.cache_path),
        )  # fmt: skip
        (row,) = read_rows(out)
        assert row["error"] == {
            "code": "PARSE_ERROR",
            "message": f"{document}: tables[0].columns[1]: column name must be non-empty",
        }


class TestRunLinking:
    def test_clean_run_outcome(self, mode_runs):
        run = mode_runs("mode7")
        assert run.outcome.completed == 10
        assert run.outcome.skipped == 0
        assert run.outcome.failed == 0
        assert len(run.rows) == 10

    def test_mode7_rows_choose_the_union(self, mode_runs):
        run = mode_runs("mode7")
        for qid, row in run.rows.items():
            assert set(row["chosen_tables"]) == EXPECTED_MODE7_CHOSEN[qid], qid
            assert row["chosen_tables"] == row["union_tables"]
            assert row["selection_rule"] == "forced_union"
            assert row["chosen_path_id"] is None
            assert row["error"] is None
            assert not row["degraded"]

    def test_row_carries_prompt_ready_text(self, mode_runs):
        row = mode_runs("mode7").rows["1"]
        assert "CREATE TABLE customers (" in row["filtered_schema"]
        assert "suppliers" not in row["filtered_schema"]
        assert row["join_path"].startswith("customers, orders")
        assert "full_schema" not in row
        assert row["mode"] == "mode7"
        assert row["sources"] == ["orders", "customers"]
        assert row["destinations"] == ["customers"]

    def test_endpoint_prompts_carry_evidence(self, mode_runs):
        run = mode_runs("mode7")
        src_dst = by_prompt(run.backend.requests, PromptId.SRC_DST)
        assert len(src_dst) == 10
        q2 = [r for r in src_dst if CORPUS[1]["question"] in r.user_text]
        assert len(q2) == 1
        assert (
            "Evidence: product names are stored in products.product_name"
            in q2[0].user_text
        )

    def test_selector_traffic_per_mode(self, mode_runs):
        # forced-union and forced-longest modes never consult the selector
        assert by_prompt(mode_runs("mode7").backend.requests, PromptId.PATH_SELECT) == []
        assert by_prompt(mode_runs("mode5").backend.requests, PromptId.PATH_SELECT) == []
        assert len(by_prompt(mode_runs("mode4").backend.requests, PromptId.PATH_SELECT)) == 3
        assert len(by_prompt(mode_runs("mode1").backend.requests, PromptId.PATH_SELECT)) == 1

    def test_no_union_mode_hides_the_union_line(self, mode_runs):
        selects = by_prompt(mode_runs("mode6").backend.requests, PromptId.PATH_SELECT)
        assert len(selects) == 3
        assert all("UNION {" not in r.user_text for r in selects)
        with_union = by_prompt(
            mode_runs("mode4").backend.requests, PromptId.PATH_SELECT
        )
        assert all("UNION {" in r.user_text for r in with_union)

    def test_selector_modes_recover_the_gold_tables(self, mode_runs):
        gold = {str(row["question_id"]): row["gold_tables"] for row in CORPUS}
        for mode in ("mode1", "mode2", "mode3", "mode4", "mode5"):
            run = mode_runs(mode)
            for qid, row in run.rows.items():
                assert set(row["chosen_tables"]) == gold[qid], (mode, qid)

    def test_rerun_is_a_full_skip(self, mode_runs, questions, repo):
        run = mode_runs("mode7")
        before = run.link_path.read_bytes()
        config = RunConfig(mode="mode7", cache_path=run.cache_path, workers=1)
        outcome = run_linking(
            questions, config, repo, run.link_path, client=replay_client(run.cache_path)
        )
        assert outcome.skipped == 10
        assert outcome.completed == 0
        assert run.link_path.read_bytes() == before

    def test_partial_file_resumes(self, mode_runs, questions, repo, tmp_path):
        run = mode_runs("mode7")
        partial = tmp_path / "partial.jsonl"
        lines = run.link_path.read_text(encoding="utf-8").splitlines(True)
        partial.write_text("".join(lines[:4]), encoding="utf-8")
        config = RunConfig(mode="mode7", cache_path=run.cache_path, workers=1)
        outcome = run_linking(
            questions, config, repo, partial, client=replay_client(run.cache_path)
        )
        assert outcome.skipped == 4
        assert outcome.completed == 6
        rows = read_rows(partial)
        assert {row["question_id"] for row in rows} == set(EXPECTED_MODE7_CHOSEN)

    def test_replay_against_empty_cache_records_misses(
        self, questions, repo, tmp_path
    ):
        config = RunConfig(
            mode="mode7", cache_path=tmp_path / "empty.jsonl", workers=1
        )
        out = tmp_path / "out.jsonl"
        outcome = run_linking(questions, config, repo, out, client=config.build_client())
        assert outcome.failed == 10
        for row in read_rows(out):
            assert row["error"]["code"] == "CACHE_MISS"

    def test_failed_rows_are_retried_on_resume(
        self, golden_pipeline, questions, repo, tmp_path
    ):
        config = RunConfig(mode="mode7", cache_path=tmp_path / "empty.jsonl", workers=1)
        out = tmp_path / "out.jsonl"
        missed = run_linking(
            questions, config, repo, out, client=replay_client(tmp_path / "empty.jsonl")
        )
        assert (missed.completed, missed.skipped, missed.failed) == (0, 0, 10)

        retried = run_linking(
            questions, config, repo, out, client=replay_client(golden_pipeline.cache_path)
        )
        assert (retried.completed, retried.skipped, retried.failed) == (10, 0, 0)
        again = run_linking(
            questions, config, repo, out, client=replay_client(golden_pipeline.cache_path)
        )
        assert (again.completed, again.skipped, again.failed) == (0, 10, 0)

        # the later successful row wins over the error row before it
        assert len(read_rows(out)) == 20
        gen_path = tmp_path / "gen.jsonl"
        generated = run_generation(
            out, config, client=replay_client(golden_pipeline.cache_path), out_path=gen_path
        )
        assert (generated.completed, generated.skipped, generated.failed) == (10, 0, 0)
        rows = read_rows(gen_path)
        assert len(rows) == 10
        assert all(row["error"] is None and row["predicted_sql"] for row in rows)

    def test_unknown_database_becomes_error_row(self, mode_runs, repo, tmp_path):
        run = mode_runs("mode7")
        ghost = Question(question_id="99", db_id="ghost", text="q")
        config = RunConfig(mode="mode7", cache_path=run.cache_path, workers=1)
        out = tmp_path / "out.jsonl"
        outcome = run_linking(
            [ghost], config, repo, out, client=replay_client(run.cache_path)
        )
        assert outcome.failed == 1
        (row,) = read_rows(out)
        assert row["error"]["code"] == "ERROR"
        assert "ghost" in row["error"]["message"]

    def test_worker_count_does_not_change_results(
        self, mode_runs, questions, repo, tmp_path
    ):
        run = mode_runs("mode4")
        outputs = []
        for workers in (1, 4):
            out = tmp_path / f"out_w{workers}.jsonl"
            config = RunConfig(
                mode="mode4", cache_path=run.cache_path, workers=workers
            )
            outcome = run_linking(
                questions, config, repo, out, client=replay_client(run.cache_path)
            )
            assert outcome.failed == 0
            rows = sorted(read_rows(out), key=lambda r: int(r["question_id"]))
            outputs.append(rows)
        assert outputs[0] == outputs[1]


class TestExtractSqlReply:
    def test_fenced_sql_block(self):
        for reply in (
            "Sure:\n```sql\nSELECT 1\n```\nDone.",
            "```sqlite\nSELECT 1\n```",
            "```SQLite\r\nSELECT 1\r\n```",
            "```sql SELECT 1```",
            "```sqlite SELECT 1```",
        ):
            assert extract_sql_reply(reply) == "SELECT 1", reply

    def test_fence_without_language_tag(self):
        assert extract_sql_reply("```\nSELECT 2\n```") == "SELECT 2"

    def test_first_nonempty_fence_wins(self):
        reply = "```\n\n```\n```sql\nSELECT 3\n```\n```sql\nSELECT 4\n```"
        assert extract_sql_reply(reply) == "SELECT 3"

    def test_bare_statement_fallback(self):
        reply = "The answer is SELECT name FROM customers WHERE city = 'Paris'"
        assert extract_sql_reply(reply) == (
            "SELECT name FROM customers WHERE city = 'Paris'"
        )

    def test_with_statement_fallback(self):
        reply = "WITH c AS (SELECT 1) SELECT * FROM c; thanks"
        assert extract_sql_reply(reply) == "WITH c AS (SELECT 1) SELECT * FROM c"

    def test_longest_statement_wins(self):
        reply = (
            "Either SELECT 1;\n"
            "or better: SELECT name FROM customers WHERE city = 'Paris';"
        )
        assert extract_sql_reply(reply) == (
            "SELECT name FROM customers WHERE city = 'Paris'"
        )

    def test_no_sql_at_all(self):
        assert extract_sql_reply("I cannot answer that.") is None


class TestRunGeneration:
    def test_golden_run_reproduces_gold_sql(self, golden_pipeline):
        assert golden_pipeline.gen_outcome.failed == 0
        assert golden_pipeline.gen_path.name == "link_generated.jsonl"
        rows = {r["question_id"]: r for r in read_rows(golden_pipeline.gen_path)}
        assert len(rows) == 10
        gold = {str(r["question_id"]): r["SQL"] for r in CORPUS}
        for qid, row in rows.items():
            assert row["predicted_sql"] == gold[qid]
            assert row["generation_error"] is None
            assert set(row["chosen_tables"]) == EXPECTED_MODE7_CHOSEN[qid]

    def test_linked_prompt_embeds_filtered_schema_and_join_path(
        self, golden_pipeline
    ):
        generation = [
            r
            for r in golden_pipeline.backend.requests
            if r.system_text.startswith("ROLE & OBJECTIVE\nYou are an expert in SQLite")
        ]
        assert len(generation) == 10
        q1 = [r for r in generation if CORPUS[0]["question"] in r.user_text]
        assert len(q1) == 1
        system = q1[0].system_text
        assert "CREATE TABLE customers (" in system
        assert "CREATE TABLE suppliers (" not in system
        assert "- Join Path: customers, orders" in system

    def test_rerun_skips_everything(self, golden_pipeline):
        outcome = run_generation(
            golden_pipeline.link_path,
            golden_pipeline.config,
            client=replay_client(golden_pipeline.cache_path),
        )
        assert outcome.skipped == 10
        assert outcome.completed == 0

    def test_failed_generations_are_retried_on_resume(self, golden_pipeline, tmp_path):
        config = golden_pipeline.config
        out = tmp_path / "gen.jsonl"
        missed = run_generation(
            golden_pipeline.link_path,
            config,
            client=replay_client(tmp_path / "empty.jsonl"),
            out_path=out,
        )
        assert (missed.completed, missed.skipped, missed.failed) == (0, 0, 10)
        retried = run_generation(
            golden_pipeline.link_path,
            config,
            client=replay_client(golden_pipeline.cache_path),
            out_path=out,
        )
        assert (retried.completed, retried.skipped, retried.failed) == (10, 0, 0)
        again = run_generation(
            golden_pipeline.link_path,
            config,
            client=replay_client(golden_pipeline.cache_path),
            out_path=out,
        )
        assert (again.completed, again.skipped, again.failed) == (0, 10, 0)

    def test_baseline_uses_full_schema_prompt(
        self, golden_pipeline, repo, tmp_path
    ):
        backend = ScriptedBackend()
        cache_path = tmp_path / "cache.jsonl"
        client = CachingClient(
            TranscriptCache(cache_path), backend=backend, mode="record"
        )
        config = RunConfig(
            mode="mode7",
            cache_path=cache_path,
            cache_mode="record",
            baseline=True,
            workers=1,
        )
        outcome = run_generation(
            golden_pipeline.link_path,
            config,
            client=client,
            out_path=tmp_path / "base.jsonl",
            repo=repo,
        )
        assert outcome.failed == 0
        assert all(
            "Join Path" not in r.system_text
            and "CREATE TABLE suppliers (" in r.system_text
            for r in backend.requests
        )

    def test_baseline_prompt_matches_stored_full_schema(
        self, golden_pipeline, repo, retail_schema, tmp_path
    ):
        # Link files used to carry the whole schema text as full_schema, and
        # baseline prompts were built from it. A file that still carries the
        # field must give the same requests, so recorded caches replay.
        full_schema = reference_render(
            retail_schema, retail_schema.table_names, retail_schema.foreign_keys
        )
        old_rows = [
            dict(row, full_schema=full_schema)
            for row in read_rows(golden_pipeline.link_path)
        ]
        link_path = tmp_path / "old_link.jsonl"
        link_path.write_text(
            "".join(json.dumps(row, sort_keys=True) + "\n" for row in old_rows),
            encoding="utf-8",
        )
        backend = ScriptedBackend()
        cache_path = tmp_path / "cache.jsonl"
        client = CachingClient(TranscriptCache(cache_path), backend=backend, mode="record")
        config = RunConfig(
            cache_path=cache_path, cache_mode="record", baseline=True, workers=1
        )
        run_generation(link_path, config, client=client, out_path=tmp_path / "b.jsonl", repo=repo)
        expected = [
            render_sql_gen_prompt(
                row["question"],
                row["full_schema"],
                join_path_text=None,
                evidence=row.get("evidence"),
                baseline=True,
                model_name=config.model,
                temperature=config.generate_temperature,
            )
            for row in old_rows
        ]
        assert backend.requests == expected

    def test_default_config_temperatures(self, questions, repo, tmp_path):
        backend = ScriptedBackend()
        cache_path = tmp_path / "cache.jsonl"
        client = CachingClient(TranscriptCache(cache_path), backend=backend, mode="record")
        config = RunConfig(mode="mode4", cache_path=cache_path, cache_mode="record")
        link_path = tmp_path / "link.jsonl"
        run_linking(questions, config, repo, link_path, client=client)
        linked = len(backend.requests)
        run_generation(link_path, config, client=client)
        generated = len(backend.requests)
        baseline = replace(config, baseline=True)
        run_generation(link_path, baseline, client=client, out_path=tmp_path / "b.jsonl", repo=repo)
        link_requests = backend.requests[:linked]
        assert {r.system_text for r in link_requests} == {
            SYSTEM_PROMPTS[PromptId.SRC_DST],
            SYSTEM_PROMPTS[PromptId.PATH_SELECT],
        }
        assert {r.temperature for r in link_requests} == {0.2}
        linked_sql, baseline_sql = backend.requests[linked:generated], backend.requests[generated:]
        assert len(linked_sql) == len(baseline_sql) == 10
        assert all("- Join Path: " in r.system_text for r in linked_sql)
        assert not any("Join Path" in r.system_text for r in baseline_sql)
        assert {r.temperature for r in linked_sql + baseline_sql} == {0.3}

    def test_baseline_needs_the_repository(self, golden_pipeline, tmp_path):
        config = RunConfig(cache_path=tmp_path / "c.jsonl", baseline=True, workers=1)
        with pytest.raises(ValueError, match="repo"):
            run_generation(golden_pipeline.link_path, config)

    def test_unusable_reply_is_a_generation_error(
        self, golden_pipeline, tmp_path
    ):
        backend = ScriptedBackend(sql_overrides={5: "I do not know."})
        cache_path = tmp_path / "cache.jsonl"
        client = CachingClient(
            TranscriptCache(cache_path), backend=backend, mode="record"
        )
        config = RunConfig(
            mode="mode7", cache_path=cache_path, cache_mode="record", workers=1
        )
        outcome = run_generation(
            golden_pipeline.link_path,
            config,
            client=client,
            out_path=tmp_path / "gen.jsonl",
        )
        assert outcome.failed == 1
        rows = {r["question_id"]: r for r in read_rows(tmp_path / "gen.jsonl")}
        assert rows["5"]["predicted_sql"] is None
        assert rows["5"]["generation_error"]["code"] == "GENERATION_FAILED"
        assert rows["4"]["generation_error"] is None

    def test_upstream_error_rows_are_not_prompted(self, tmp_path):
        link_path = tmp_path / "link.jsonl"
        row = {
            "question_id": "1",
            "db_id": DB_ID,
            "question": "q",
            "error": {"code": "CACHE_MISS", "message": "x"},
        }
        link_path.write_text(json.dumps(row) + "\n", encoding="utf-8")
        backend = ScriptedBackend()
        config = RunConfig(
            mode="mode7", cache_path=tmp_path / "c.jsonl", cache_mode="record", workers=1
        )
        client = CachingClient(
            TranscriptCache(tmp_path / "c.jsonl"), backend=backend, mode="record"
        )
        outcome = run_generation(
            link_path, config, client=client, out_path=tmp_path / "gen.jsonl"
        )
        assert outcome.failed == 1
        assert backend.requests == []
        (out_row,) = read_rows(tmp_path / "gen.jsonl")
        assert out_row["generation_error"]["message"] == "linking failed upstream"

    def test_empty_link_output_rejected(self, golden_pipeline, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.touch()
        with pytest.raises(EmptyInputError):
            run_generation(empty, golden_pipeline.config)


GENERATED_KEYS = {
    "question_id",
    "db_id",
    "mode",
    "error",
    "chosen_tables",
    "predicted_sql",
    "generation_error",
    "prompt_kind",
    "model",
}


class UsageBackend(ScriptedBackend):
    """A scripted backend that reports five tokens for each reply."""

    def __init__(self):
        super().__init__()
        self.unreported = 0

    def complete(self, request):
        self.unreported += 5
        return super().complete(request)

    def pop_usage(self):
        spent, self.unreported = self.unreported, 0
        return {"total_tokens": spent} if spent else {}


def record_generation(link_path, out_path, *, repo=None, backend=None, **settings) -> list[dict]:
    """Generate from link_path in record mode into a fresh cache; return the rows written."""
    cache_path = out_path.with_name(out_path.stem + "_cache.jsonl")
    backend = backend or ScriptedBackend()
    client = CachingClient(TranscriptCache(cache_path), backend=backend, mode="record")
    config = RunConfig(cache_path=cache_path, cache_mode="record", workers=1, **settings)
    run_generation(link_path, config, client=client, out_path=out_path, repo=repo)
    return read_rows(out_path)


def write_rows(path: Path, rows: list[dict]) -> Path:
    path.write_text("".join(json.dumps(row, sort_keys=True) + "\n" for row in rows), "utf-8")
    return path


class TestGeneratedRows:
    """A generated row holds what generation made, not a copy of its link row."""

    def test_linked_and_baseline_rows_differ_in_prompt_kind(
        self, golden_pipeline, repo, tmp_path
    ):
        linked = read_rows(golden_pipeline.gen_path)
        baseline = record_generation(
            golden_pipeline.link_path, tmp_path / "base.jsonl", repo=repo, baseline=True
        )
        assert len(linked) == len(baseline) == 10
        for linked_row, baseline_row in zip(linked, baseline):
            assert set(linked_row) == set(baseline_row) == GENERATED_KEYS
            assert linked_row["prompt_kind"] == "linked"
            assert baseline_row["prompt_kind"] == "baseline"
            assert linked_row["model"] == golden_pipeline.config.model
            differing = {key for key in GENERATED_KEYS if linked_row[key] != baseline_row[key]}
            assert differing == {"prompt_kind"}

    def test_failed_link_row_keeps_its_error(self, questions, repo, tmp_path):
        link_path = tmp_path / "link.jsonl"
        config = RunConfig(mode="mode7", cache_path=tmp_path / "empty.jsonl")
        run_linking(questions[:2], config, repo, link_path, client=replay_client(config.cache_path))
        links = read_rows(link_path)
        assert all(row["error"] for row in links)
        rows = record_generation(link_path, tmp_path / "gen.jsonl")
        assert len(rows) == 2
        for link_row, row in zip(links, rows):
            assert set(row) == GENERATED_KEYS - {"chosen_tables"}
            assert (row["mode"], row["error"]) == ("mode7", link_row["error"])
            assert row["generation_error"]["message"] == "linking failed upstream"
            assert row["prompt_kind"] == "linked"

    def test_record_row_carries_its_generation_tokens(self, golden_pipeline, tmp_path):
        rows = record_generation(
            golden_pipeline.link_path, tmp_path / "gen.jsonl", backend=UsageBackend()
        )
        assert len(rows) == 10
        for row in rows:
            assert set(row) == GENERATED_KEYS | {"generation_token_usage"}
            assert row["generation_token_usage"] == {"total_tokens": 5}


class TestOldGeneratedFiles:
    """Generated files whose rows copy their whole link row still resume and evaluate."""

    @pytest.fixture
    def files(self, golden_pipeline, tmp_path):
        """The golden run's generated rows, question 5 failed, in the old and the new shape."""
        links = {row["question_id"]: row for row in read_rows(golden_pipeline.link_path)}
        failed = {
            "predicted_sql": None,
            "generation_error": {"code": "GENERATION_FAILED", "message": "no SQL found in reply"},
        }
        new = [
            dict(row, **failed) if row["question_id"] == "5" else row
            for row in read_rows(golden_pipeline.gen_path)
        ]
        old = [
            {
                **links[row["question_id"]],
                "predicted_sql": row["predicted_sql"],
                "generation_error": row["generation_error"],
            }
            for row in new
        ]
        return SimpleNamespace(
            old=write_rows(tmp_path / "old.jsonl", old), new=write_rows(tmp_path / "new.jsonl", new)
        )

    def test_old_file_retries_only_its_failed_row(self, golden_pipeline, files):
        outcome = run_generation(
            golden_pipeline.link_path,
            golden_pipeline.config,
            client=replay_client(golden_pipeline.cache_path),
            out_path=files.old,
        )
        assert (outcome.completed, outcome.skipped, outcome.failed) == (1, 9, 0)
        *_, retried = read_rows(files.old)
        assert retried["question_id"] == "5"
        assert retried["predicted_sql"] == CORPUS[4]["SQL"]

    def test_old_and_new_files_give_identical_reports(self, files, questions, repo, tmp_path):
        reports = [
            run_evaluation(path, questions, repo, check_execution=True, report_dir=tmp_path / name)
            for name, path in (("old", files.old), ("new", files.new))
        ]
        assert reports[0].summary["overall"]["execution_accuracy"] == pytest.approx(0.9)
        for report in ("summary_path", "per_question_path"):
            old, new = (getattr(produced, report).read_bytes() for produced in reports)
            assert old == new, report


def as_set(rows: list[dict]) -> set[str]:
    return {json.dumps(row, sort_keys=True) for row in rows}


@pytest.fixture
def no_pool(monkeypatch):
    """Makes building a thread pool in the harness fail the run."""

    def refuse(*args, **kwargs):
        raise AssertionError("the harness built a thread pool")

    monkeypatch.setattr(harness, "ThreadPoolExecutor", refuse)


class TestRowRunner:
    def test_replay_runs_on_the_calling_thread(
        self, golden_pipeline, questions, repo, tmp_path, monkeypatch
    ):
        def no_pool(*args, **kwargs):
            raise AssertionError("replay built a thread pool")

        monkeypatch.setattr(schema_linker.harness, "ThreadPoolExecutor", no_pool)
        config = RunConfig(mode="mode7", cache_path=golden_pipeline.cache_path, workers=4)
        client = replay_client(golden_pipeline.cache_path)
        threads = threading.active_count()
        link_path = tmp_path / "link.jsonl"
        linked = run_linking(list(reversed(questions)), config, repo, link_path, client=client)
        generated = run_generation(link_path, config, client=client)
        assert threading.active_count() == threads
        assert (linked.failed, generated.failed) == (0, 0)
        order = [question.question_id for question in reversed(questions)]
        assert [row["question_id"] for row in read_rows(link_path)] == order
        assert [row["question_id"] for row in read_rows(generated.path)] == order

    def test_record_overlaps_requests(self, golden_pipeline, questions, repo, tmp_path):
        class Overlapping(SlowStartBackend):
            """Holds the first two requests of other threads until both are in flight."""

            def __init__(self):
                super().__init__()
                self.caller = threading.get_ident()
                self.held = itertools.count()
                self.both_in_flight = threading.Barrier(2, timeout=10)

            def complete(self, request):
                if threading.get_ident() != self.caller and next(self.held) < 2:
                    self.both_in_flight.wait()
                return super().complete(request)

        cache_path = tmp_path / "cache.jsonl"
        backend = Overlapping()
        client = CachingClient(TranscriptCache(cache_path), backend=backend, mode="record")
        config = RunConfig(mode="mode7", cache_path=cache_path, cache_mode="record", workers=4)
        link_path = tmp_path / "link.jsonl"
        linked = run_linking(questions, config, repo, link_path, client=client)
        generated = run_generation(link_path, config, client=client)
        assert (linked.failed, generated.failed) == (0, 0)
        assert next(backend.held) > 2  # both held requests got through
        assert as_set(read_rows(link_path)) == as_set(read_rows(golden_pipeline.link_path))
        assert as_set(read_rows(generated.path)) == as_set(read_rows(golden_pipeline.gen_path))

    def test_record_without_waits_runs_on_the_calling_thread(
        self, questions, repo, tmp_path, no_pool
    ):
        cache_path = tmp_path / "cache.jsonl"
        backend = ScriptedBackend()
        client = CachingClient(TranscriptCache(cache_path), backend=backend, mode="record")
        config = RunConfig(mode="mode4", cache_path=cache_path, cache_mode="record", workers=4)
        threads = threading.active_count()
        link_path = tmp_path / "link.jsonl"
        linked = run_linking(questions, config, repo, link_path, client=client)
        generated = run_generation(link_path, config, client=client)
        run_sweep(questions, config, repo, tmp_path / "sweep", client=client)
        assert (linked.failed, generated.failed) == (0, 0)
        assert client.backend_calls > client.cache_hits > 0
        assert backend.threads == {threading.get_ident()}
        assert threading.active_count() == threads

    def test_record_after_a_wait_overlaps_the_rest_in_question_order(
        self, questions, repo, tmp_path
    ):
        workers = 4

        class Gathering(SlowStartBackend):
            """Holds the first requests of other threads until one per worker is in flight."""

            def __init__(self):
                super().__init__()
                self.caller = threading.get_ident()
                self.held = itertools.count()
                self.all_in_flight = threading.Barrier(workers, timeout=10)
                self.asked_by_caller: set[str] = set()

            def complete(self, request):
                if threading.get_ident() == self.caller:
                    self.asked_by_caller.add(self._question_from(request.user_text))
                elif next(self.held) < workers:
                    self.all_in_flight.wait()
                return super().complete(request)

        cache_path = tmp_path / "cache.jsonl"
        backend = Gathering()
        client = CachingClient(TranscriptCache(cache_path), backend=backend, mode="record")
        config = RunConfig(
            mode="mode4", cache_path=cache_path, cache_mode="record", workers=workers
        )
        order = list(reversed(questions))
        link_path = tmp_path / "link.jsonl"
        linked = run_linking(order, config, repo, link_path, client=client)
        assert linked.failed == 0
        assert next(backend.held) > workers  # every held request got through
        assert backend.asked_by_caller == {order[0].text}
        assert len(backend.threads) == workers + 1
        rows = read_rows(link_path)
        assert [row["question_id"] for row in rows] == [question.question_id for question in order]

    def test_replay_stays_on_the_calling_thread_after_a_wait(
        self, golden_pipeline, questions, repo, tmp_path, monkeypatch, no_pool
    ):
        client = replay_client(golden_pipeline.cache_path)
        real_complete, calls = client.complete, itertools.count()

        def slow_first(request):
            if next(calls) == 0:
                time.sleep(first_reply_s())
            return real_complete(request)

        monkeypatch.setattr(client, "complete", slow_first)
        config = RunConfig(mode="mode7", cache_path=golden_pipeline.cache_path, workers=4)
        linked = run_linking(questions, config, repo, tmp_path / "link.jsonl", client=client)
        assert linked.failed == 0
        assert next(calls) > 1
        assert read_rows(tmp_path / "link.jsonl") == read_rows(golden_pipeline.link_path)

    def test_record_digests_each_request_once_and_opens_the_cache_once_per_run(
        self, questions, repo, tmp_path, monkeypatch
    ):
        cache_path = tmp_path / "cache.jsonl"
        digested = []
        real_digest = llm.request_digest
        monkeypatch.setattr(
            llm, "request_digest", lambda request: digested.append(request) or real_digest(request)
        )
        appends = []
        real_open = Path.open

        def tracking_open(path, mode="r", *args, **kwargs):
            handle = real_open(path, mode, *args, **kwargs)
            if path == cache_path and "a" in mode:
                appends.append(handle)
            return handle

        monkeypatch.setattr(Path, "open", tracking_open)
        client = CachingClient(
            TranscriptCache(cache_path), backend=ScriptedBackend(), mode="record"
        )
        config = RunConfig(mode="mode7", cache_path=cache_path, cache_mode="record", workers=1)
        link_path = tmp_path / "link.jsonl"
        run_linking(questions, config, repo, link_path, client=client)
        assert client.backend_calls == len(questions)
        assert len(digested) == client.cache_hits + client.backend_calls
        assert len(appends) == 1 and appends[0].closed

        run_generation(link_path, config, client=client)
        assert len(appends) == 2 and appends[1].closed
        run_sweep(questions, config, repo, tmp_path / "sweep", client=client)
        assert 2 < len(appends) <= 2 + len(ALL_MODES)
        assert all(handle.closed for handle in appends)
        assert len(digested) == client.cache_hits + client.backend_calls


class EvidenceBackend:
    """Answers each endpoint prompt with the reply its question's evidence holds.

    Evidence "retry:<reply>" gets an unusable first reply and <reply> on the
    nudged retry. Path selection picks the first candidate, and generation
    answers a constant query.
    """

    def __init__(self):
        self.requests = []

    def complete(self, request):
        self.requests.append(request)
        if request.system_text == SYSTEM_PROMPTS[PromptId.SRC_DST]:
            nudged = request.user_text.endswith(RETRY_NUDGE)
            wanted = request.user_text.removesuffix("\n\n" + RETRY_NUDGE)
            wanted = wanted.rpartition("Evidence: ")[2]
            if wanted.startswith("retry:"):
                return wanted.removeprefix("retry:") if nudged else "no tables"
            return wanted
        if request.system_text == SYSTEM_PROMPTS[PromptId.PATH_SELECT]:
            return "Final Answer: path_id: 1"
        return "```sql\nSELECT 1\n```"


@pytest.fixture
def two_shops(tmp_path):
    """The toy questions spread over two copies of the toy database."""
    schema_root = tmp_path / "schemas"
    databases = ("shop_a", "shop_b")
    for db_id in databases:
        build_database(schema_root / db_id / f"{db_id}.sqlite")
    questions = [
        Question(str(row["question_id"]), databases[i % 2], row["question"], row["evidence"])
        for i, row in enumerate(CORPUS)
    ]
    return SchemaRepository(schema_root), questions


class TestRequestDigestMemo:
    """The digest memoises each schema's prompt head and keeps its old value."""

    def test_cache_recorded_with_the_one_pass_digest_replays(self, tmp_path, monkeypatch):
        schema = wide_schema(100, 200)
        write_schema_document(schema, tmp_path / "schemas" / "wide" / "schema.json")
        repo = SchemaRepository(tmp_path / "schemas")
        rng = random.Random(5)
        questions = []
        for i in range(6):
            src, dst = rng.sample(schema.table_names, 2)
            text = f"Which rows join {src}\r\nand {dst}?"
            text += "\r\nQuestion: why?" if i == 1 else ""
            evidence = ("retry:" if i == 2 else "") + f"src={src}, dst={dst}"
            questions.append(Question(str(i), "wide", text, evidence))
        cache_path = tmp_path / "cache.jsonl"
        config = RunConfig(mode="mode4", cache_path=cache_path, cache_mode="record", workers=1)
        backend = EvidenceBackend()
        recorder = CachingClient(TranscriptCache(cache_path), backend=backend, mode="record")
        with monkeypatch.context() as patched:
            patched.setattr(llm, "request_digest", reference_digest)
            run_linking(questions, config, repo, tmp_path / "link.jsonl", client=recorder)
            recorded = run_generation(tmp_path / "link.jsonl", config, client=recorder)
        assert sum(RETRY_NUDGE in request.user_text for request in backend.requests) == 1
        assert by_prompt(backend.requests, PromptId.PATH_SELECT)

        llm._head_state.cache_clear()
        replayer = replay_client(cache_path)
        config = replace(config, cache_mode="replay")
        linked = run_linking(questions, config, repo, tmp_path / "replay.jsonl", client=replayer)
        generated = run_generation(tmp_path / "replay.jsonl", config, client=replayer)
        assert (linked.failed, generated.failed) == (0, 0)
        assert replayer.cache_hits == recorder.backend_calls == len(backend.requests)
        assert read_rows(tmp_path / "replay.jsonl") == read_rows(tmp_path / "link.jsonl")
        assert read_rows(generated.path) == read_rows(recorded.path)
        assert llm._head_state.cache_info().hits > 0

    def test_record_workers_store_the_one_pass_digest(self, two_shops, tmp_path):
        repo, questions = two_shops
        cache_path = tmp_path / "cache.jsonl"
        backend = SlowStartBackend()
        client = CachingClient(TranscriptCache(cache_path), backend=backend, mode="record")
        config = RunConfig(mode="mode4", cache_path=cache_path, cache_mode="record", workers=4)
        linked = run_linking(questions, config, repo, tmp_path / "link.jsonl", client=client)
        generated = run_generation(tmp_path / "link.jsonl", config, client=client)
        assert (linked.failed, generated.failed) == (0, 0)
        assert len(backend.threads) > 1
        records = read_rows(cache_path)
        assert len(records) == client.backend_calls
        assert {"Database: shop_a", "Database: shop_b"} <= {
            record["user"].split("\n", 1)[0] for record in records
        }
        for record in records:
            request = CompletionRequest(
                record["model"], record["system"], record["user"], record["temperature"]
            )
            assert record["digest"] == reference_digest(request), record["user"][-80:]

    def test_memo_holds_one_head_per_database(self, two_shops, tmp_path):
        repo, questions = two_shops
        head_state = llm._head_state
        head_state.cache_clear()
        cache_path = tmp_path / "cache.jsonl"
        backend = ScriptedBackend(endpoint_overrides={1: "no tables here"})
        client = CachingClient(TranscriptCache(cache_path), backend=backend, mode="record")
        config = RunConfig(mode="mode4", cache_path=cache_path, cache_mode="record", workers=1)
        run_linking(questions, config, repo, tmp_path / "link.jsonl", client=client)
        endpoint = by_prompt(backend.requests, PromptId.SRC_DST)
        assert sum(RETRY_NUDGE in request.user_text for request in endpoint) == 1
        assert by_prompt(backend.requests, PromptId.PATH_SELECT)
        linked = head_state.cache_info()
        # One miss per database's head; nudged retries and path selection add none.
        assert (linked.currsize, linked.misses) == (2, 2)
        assert linked.hits + linked.misses == len(endpoint)

        generated = run_generation(tmp_path / "link.jsonl", config, client=client)
        assert generated.failed == 0
        assert head_state.cache_info() == linked
        assert linked.currsize <= linked.maxsize == 128


FAILING_QUESTION = 3
NO_SQL_QUESTION = 5


@pytest.fixture
def usage_endpoint():
    """Start a chat-completions server whose usage names the question.

    Each reply reports one unit under "q<question_id>", and ``spent`` counts
    the replies per tag. Question FAILING_QUESTION gets an unusable
    endpoint reply, and its retry is refused with HTTP 400, so its row
    fails after spending one unit. Question NO_SQL_QUESTION gets a
    generation reply without SQL. With ``hold`` set, the first request
    waits ``first_reply_s()``, so a record run starts its threads after that
    question; then the first ``hold`` requests of other questions wait
    until all of them are in flight, and ``overlapped`` lists their tags.
    """
    servers = []

    def start(hold: int = 0) -> SimpleNamespace:
        backend = ScriptedBackend(
            sql_overrides={NO_SQL_QUESTION: "I cannot write that query."},
            endpoint_overrides={FAILING_QUESTION: "I cannot tell."},
        )
        spent = Counter()
        lock = threading.Lock()
        arrivals, holds = itertools.count(), itertools.count()
        held = threading.Barrier(max(hold, 1), timeout=10)
        first, overlapped = [], []  # the first request's tag; the held requests' tags

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
                system, user = (message["content"] for message in body["messages"])
                question = re.search(r"^Question: (.*)$", user, re.MULTILINE).group(1)
                tag = f"q{corpus_row_by_question(question)['question_id']}"
                if hold and next(arrivals) == 0:  # its question runs alone
                    first.append(tag)
                    time.sleep(first_reply_s())
                elif hold and tag not in first and next(holds) < hold:
                    held.wait()
                    overlapped.append(tag)
                if RETRY_NUDGE in user:
                    status, payload = 400, {"error": "refused"}
                else:
                    request = CompletionRequest(
                        body["model"], system, user, body["temperature"]
                    )
                    reply = backend.complete(request)
                    with lock:
                        spent[tag] += 1
                    status = 200
                    payload = {"choices": [{"message": {"content": reply}}], "usage": {tag: 1}}
                blob = json.dumps(payload).encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
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
        return SimpleNamespace(url=url, spent=spent, overlapped=overlapped)

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()


class TestTokenUsage:
    """A row carries exactly the tokens its own requests spent."""

    @pytest.mark.parametrize("workers,hold", [(1, 0), (4, 4)])
    def test_each_row_holds_its_own_tokens(
        self, usage_endpoint, questions, repo, tmp_path, monkeypatch, workers, hold
    ):
        endpoint = usage_endpoint(hold)
        monkeypatch.setenv(API_URL_ENV, endpoint.url)
        config = RunConfig(
            mode="mode4",
            cache_path=tmp_path / "cache.jsonl",
            cache_mode="record",
            workers=workers,
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, to expose shared counts
        try:
            outcome = run_linking(questions, config, repo, tmp_path / "link.jsonl")
        finally:
            sys.setswitchinterval(interval)
        rows = read_rows(tmp_path / "link.jsonl")
        assert outcome.failed == 1
        assert len(endpoint.overlapped) == hold
        assert [row["question_id"] for row in rows if row["error"]] == [str(FAILING_QUESTION)]
        tags = {question.question_id: f"q{question.question_id}" for question in questions}
        assert {row["question_id"]: row.get("token_usage") for row in rows} == {
            question_id: {tag: endpoint.spent[tag]} for question_id, tag in tags.items()
        }

    @pytest.mark.parametrize("workers,hold", [(1, 0), (4, 4)])
    def test_generated_rows_hold_their_own_tokens(
        self, usage_endpoint, questions, repo, tmp_path, monkeypatch, workers, hold
    ):
        link_path = tmp_path / "link.jsonl"
        config = RunConfig(
            mode="mode4",
            cache_path=tmp_path / "cache.jsonl",
            cache_mode="record",
            workers=workers,
        )
        monkeypatch.setenv(API_URL_ENV, usage_endpoint().url)
        run_linking(questions, config, repo, link_path)
        endpoint = usage_endpoint(hold)  # counts the generation requests alone
        monkeypatch.setenv(API_URL_ENV, endpoint.url)
        outcome = run_generation(link_path, config)
        rows = read_rows(outcome.path)
        assert outcome.failed == 2
        assert len(endpoint.overlapped) == hold
        # The link stage's tokens stay in the link file.
        assert all("token_usage" in row for row in read_rows(link_path))
        assert not any("token_usage" in row for row in rows)
        # The failed link row makes no request; the reply without SQL still spent one.
        tags = {
            question.question_id: f"q{question.question_id}"
            for question in questions
            if question.question_id != str(FAILING_QUESTION)
        }
        assert endpoint.spent == Counter(tags.values())
        assert {row["question_id"]: row.get("generation_token_usage") for row in rows} == {
            str(FAILING_QUESTION): None,
            **{question_id: {tag: 1} for question_id, tag in tags.items()},
        }
        failures = {row["question_id"]: row["generation_error"] for row in rows}
        assert failures[str(NO_SQL_QUESTION)]["code"] == "GENERATION_FAILED"
        assert failures[str(FAILING_QUESTION)]["message"] == "linking failed upstream"

    @pytest.mark.parametrize("workers,hold", [(1, 0), (4, 4)])
    def test_sweep_rows_hold_their_own_tokens(
        self, usage_endpoint, questions, repo, tmp_path, monkeypatch, workers, hold
    ):
        endpoint = usage_endpoint(hold)
        monkeypatch.setenv(API_URL_ENV, endpoint.url)
        config = RunConfig(
            cache_path=tmp_path / "cache.jsonl", cache_mode="record", workers=workers
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            run_sweep(questions, config, repo, tmp_path / "sweep")
        finally:
            sys.setswitchinterval(interval)
        assert len(endpoint.overlapped) == hold
        # The first mode's row holds the endpoint request; a later row holds
        # only a selector request that no earlier mode of its question sent.
        asked = {question.question_id: set() for question in questions}
        total, repeats = Counter(), 0
        for mode in ALL_MODES:
            settings = pathfinder.preset(mode)
            asks = settings.selection in (Selection.SELECTOR, Selection.SELECTOR_NO_UNION)
            for row in read_rows(tmp_path / "sweep" / f"link_{mode}.jsonl"):
                question_id = row["question_id"]
                spent = mode == ALL_MODES[0]
                if asks and not row["error"] and len(row["paths"]) > 1:
                    prompt = (str(row["paths"]), settings.selection)
                    spent += prompt not in asked[question_id]
                    repeats += prompt in asked[question_id]
                    asked[question_id].add(prompt)
                expected = {f"q{question_id}": spent} if spent else None
                assert row.get("token_usage") == expected, (mode, question_id)
                total.update(row.get("token_usage") or {})
        assert repeats and len(asked["1"]) > 1  # shared prompts; one question asks in two modes
        assert total == endpoint.spent


def torn(lines: list[str], keep: int) -> str:
    """The first ``keep`` lines plus half of the next, as a killed run leaves them."""
    return "".join(lines[:keep]) + lines[keep][: len(lines[keep]) // 2]


def assert_reads_cleanly(path, rows: int, caplog) -> None:
    caplog.clear()
    lines = path.read_text(encoding="utf-8").splitlines(True)
    assert len(lines) == rows
    assert all(line.endswith("\n") and json.loads(line) for line in lines)
    assert len(read_rows(path)) == rows
    assert "torn" not in caplog.text


class TestTornLastLine:
    def test_torn_row_is_skipped_with_a_warning(self, mode_runs, tmp_path, caplog):
        lines = mode_runs("mode7").link_path.read_text(encoding="utf-8").splitlines(True)
        path = tmp_path / "link.jsonl"
        path.write_text(torn(lines, 3), encoding="utf-8")
        assert [row["question_id"] for row in read_rows(path)] == [
            json.loads(line)["question_id"] for line in lines[:3]
        ]
        assert "torn final line" in caplog.text

    def test_corrupt_middle_line_still_fails(self, mode_runs, tmp_path):
        lines = mode_runs("mode7").link_path.read_text(encoding="utf-8").splitlines(True)
        path = tmp_path / "link.jsonl"
        path.write_text(
            "".join(lines[:2]) + '{"question_id": \n' + "".join(lines[2:4]), encoding="utf-8"
        )
        with pytest.raises(ParseError, match=":3: unreadable run output"):
            read_rows(path)

    def test_line_separator_inside_a_row_is_read(
        self, mode_runs, questions, repo, tmp_path
    ):
        run = mode_runs("mode7")
        rows = read_rows(run.link_path)
        rows[2]["question"] += "\u2028second line\u2029third\x85"
        path = tmp_path / "link.jsonl"
        path.write_text(
            "".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows), encoding="utf-8"
        )
        assert read_rows(path) == rows
        config = RunConfig(mode="mode7", cache_path=run.cache_path, workers=1)
        outcome = run_linking(questions, config, repo, path, client=replay_client(run.cache_path))
        assert (outcome.completed, outcome.skipped, outcome.failed) == (0, 10, 0)
        report = run_evaluation(path, questions, repo, report_dir=tmp_path / "r")
        assert report.summary["rows_evaluated"] == 10

    def test_linking_resumes_after_a_torn_row(
        self, mode_runs, questions, repo, tmp_path, caplog
    ):
        run = mode_runs("mode7")
        lines = run.link_path.read_text(encoding="utf-8").splitlines(True)
        partial = tmp_path / "partial.jsonl"
        partial.write_text(torn(lines, 3), encoding="utf-8")
        config = RunConfig(mode="mode7", cache_path=run.cache_path, workers=1)
        outcome = run_linking(
            questions, config, repo, partial, client=replay_client(run.cache_path)
        )
        assert (outcome.completed, outcome.skipped, outcome.failed) == (7, 3, 0)
        assert_reads_cleanly(partial, 10, caplog)

    def test_complete_row_without_newline_is_kept(
        self, mode_runs, questions, repo, tmp_path, caplog
    ):
        run = mode_runs("mode7")
        lines = run.link_path.read_text(encoding="utf-8").splitlines(True)
        partial = tmp_path / "partial.jsonl"
        partial.write_text("".join(lines[:4]).rstrip("\n"), encoding="utf-8")
        config = RunConfig(mode="mode7", cache_path=run.cache_path, workers=1)
        outcome = run_linking(
            questions, config, repo, partial, client=replay_client(run.cache_path)
        )
        assert (outcome.completed, outcome.skipped, outcome.failed) == (6, 4, 0)
        assert_reads_cleanly(partial, 10, caplog)

    def test_generation_and_evaluation_after_a_torn_row(
        self, golden_pipeline, questions, repo, tmp_path, caplog
    ):
        lines = golden_pipeline.gen_path.read_text(encoding="utf-8").splitlines(True)
        partial = tmp_path / "gen.jsonl"
        partial.write_text(torn(lines, 5), encoding="utf-8")
        report = run_evaluation(
            partial, questions, repo, check_execution=True, report_dir=tmp_path / "r"
        )
        assert report.summary["missing_rows"]["count"] == 5
        outcome = run_generation(
            golden_pipeline.link_path,
            golden_pipeline.config,
            client=replay_client(golden_pipeline.cache_path),
            out_path=partial,
        )
        assert (outcome.completed, outcome.skipped, outcome.failed) == (5, 5, 0)
        assert_reads_cleanly(partial, 10, caplog)

    def test_recording_and_replay_after_a_torn_cache_entry(
        self, mode_runs, questions, repo, tmp_path, caplog
    ):
        run = mode_runs("mode7")
        lines = run.cache_path.read_text(encoding="utf-8").splitlines(True)
        cache_path = tmp_path / "cache.jsonl"
        cache_path.write_text(torn(lines, len(lines) - 1), encoding="utf-8")
        config = RunConfig(mode="mode7", cache_path=cache_path, workers=1)
        backend = ScriptedBackend()
        recorded = run_linking(
            questions,
            config,
            repo,
            tmp_path / "recorded.jsonl",
            client=CachingClient(TranscriptCache(cache_path), backend=backend, mode="record"),
        )
        assert (recorded.completed, recorded.failed) == (10, 0)
        assert len(backend.requests) == 1  # only the torn entry is asked again
        caplog.clear()
        cache_lines = cache_path.read_text(encoding="utf-8").splitlines(True)
        assert len(cache_lines) == len(lines)
        assert all(line.endswith("\n") and json.loads(line) for line in cache_lines)
        replayed = run_linking(
            questions,
            config,
            repo,
            tmp_path / "replayed.jsonl",
            client=replay_client(cache_path),
        )
        assert (replayed.completed, replayed.failed) == (10, 0)
        assert "torn" not in caplog.text


class TestRunEvaluation:
    def test_schema_level_summary(self, golden_pipeline, questions, repo, tmp_path):
        report = run_evaluation(
            golden_pipeline.link_path, questions, repo, report_dir=tmp_path
        )
        overall = report.summary["overall"]
        assert report.summary["rows_evaluated"] == 10
        assert overall["count"] == 10
        assert overall["recall"] == 1.0
        assert overall["exact_match_rate"] == pytest.approx(0.9)
        assert overall["precision"] == pytest.approx(0.98)
        assert "execution_accuracy" not in overall
        assert report.summary["missing_rows"]["count"] == 0
        assert report.summary["extraction_failures"]["count"] == 0

    def test_execution_check_on_golden_run(
        self, golden_pipeline, questions, repo, tmp_path
    ):
        report = run_evaluation(
            golden_pipeline.gen_path,
            questions,
            repo,
            check_execution=True,
            report_dir=tmp_path,
        )
        overall = report.summary["overall"]
        assert overall["execution_count"] == 10
        assert overall["execution_accuracy"] == 1.0

    def test_wrong_sql_fails_execution_only(
        self, golden_pipeline, questions, repo, tmp_path
    ):
        # same linking, one deliberately wrong predicted query
        backend = ScriptedBackend(
            sql_overrides={5: "```sql\nSELECT COUNT(*) FROM order_items\n```"}
        )
        cache_path = tmp_path / "cache.jsonl"
        client = CachingClient(
            TranscriptCache(cache_path), backend=backend, mode="record"
        )
        config = RunConfig(
            mode="mode7", cache_path=cache_path, cache_mode="record", workers=1
        )
        gen_path = tmp_path / "gen.jsonl"
        run_generation(golden_pipeline.link_path, config, client=client, out_path=gen_path)
        report = run_evaluation(
            gen_path, questions, repo, check_execution=True, report_dir=tmp_path / "r"
        )
        overall = report.summary["overall"]
        assert overall["execution_accuracy"] == pytest.approx(0.9)
        assert overall["recall"] == 1.0  # schema metrics unaffected

    def test_row_without_sql_is_an_execution_miss(
        self, golden_pipeline, questions, repo, tmp_path
    ):
        backend = ScriptedBackend(sql_overrides={5: "I cannot write that query."})
        cache_path = tmp_path / "cache.jsonl"
        client = CachingClient(TranscriptCache(cache_path), backend=backend, mode="record")
        config = RunConfig(mode="mode7", cache_path=cache_path, cache_mode="record", workers=1)
        gen_path = tmp_path / "gen.jsonl"
        run_generation(golden_pipeline.link_path, config, client=client, out_path=gen_path)
        assert read_rows(gen_path)[4]["predicted_sql"] is None
        report = run_evaluation(
            gen_path, questions, repo, check_execution=True, report_dir=tmp_path / "r"
        )
        overall = report.summary["overall"]
        assert overall["execution_count"] == 10
        assert overall["execution_accuracy"] == pytest.approx(0.9)
        q5 = report.per_question_path.read_text(encoding="utf-8").splitlines()[5]
        assert q5.startswith("5,") and q5.endswith(",false")

        link_only = run_evaluation(
            golden_pipeline.link_path,
            questions,
            repo,
            check_execution=True,
            report_dir=tmp_path / "l",
        )
        assert "execution_count" not in link_only.summary["overall"]

    def test_per_question_csv_shape(self, golden_pipeline, questions, repo, tmp_path):
        report = run_evaluation(
            golden_pipeline.link_path, questions, repo, report_dir=tmp_path
        )
        lines = report.per_question_path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 11
        first = lines[1].split(",")
        assert first[0] == "1"
        assert first[3] == "customers|orders"
        assert first[4] == "customers|orders"
        assert first[5] == "1.000000"
        assert first[9] == "true"
        assert first[10] == ""
        q3 = lines[3].split(",")
        assert q3[0] == "3"
        assert q3[4] == "customers|order_items|orders|products|reviews"
        assert q3[9] == "false"

    def test_digit_like_ids_sort_after_decimal_ones(
        self, golden_pipeline, questions, repo, tmp_path
    ):
        # "²" passes str.isdigit, yet int() rejects it.
        rows = {row["question_id"]: row for row in read_rows(golden_pipeline.link_path)}
        renamed = {"1": "²", "2": "10", "3": "2"}
        relabelled = [
            replace(question, question_id=renamed[question.question_id])
            for question in questions
            if question.question_id in renamed
        ]
        report = run_evaluation(
            {new: dict(rows[old], question_id=new) for old, new in renamed.items()},
            relabelled,
            repo,
            report_dir=tmp_path,
        )
        lines = report.per_question_path.read_text(encoding="utf-8").splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["2", "10", "²"]
        assert report.summary["rows_evaluated"] == 3

    def test_reports_are_byte_stable(self, golden_pipeline, questions, repo, tmp_path):
        first = run_evaluation(
            golden_pipeline.gen_path,
            questions,
            repo,
            report_dir=tmp_path / "a",
        )
        second = run_evaluation(
            golden_pipeline.gen_path,
            questions,
            repo,
            report_dir=tmp_path / "b",
        )
        assert (
            first.summary_path.read_bytes() == second.summary_path.read_bytes()
        )
        assert (
            first.per_question_path.read_bytes()
            == second.per_question_path.read_bytes()
        )

    def test_missing_rows_are_reported(self, golden_pipeline, questions, repo, tmp_path):
        trimmed = tmp_path / "trimmed.jsonl"
        lines = golden_pipeline.link_path.read_text(encoding="utf-8").splitlines(True)
        trimmed.write_text("".join(lines[:-1]), encoding="utf-8")
        report = run_evaluation(trimmed, questions, repo, report_dir=tmp_path / "r")
        assert report.summary["missing_rows"]["count"] == 1
        assert report.summary["rows_evaluated"] == 9

    def test_unparseable_gold_sql_is_excluded(
        self, golden_pipeline, questions, repo, tmp_path
    ):
        from dataclasses import replace

        tweaked = [
            replace(q, gold_sql="SELECT 1") if q.question_id == "7" else q
            for q in questions
        ]
        report = run_evaluation(
            golden_pipeline.link_path, tweaked, repo, report_dir=tmp_path
        )
        assert report.summary["rows_evaluated"] == 9
        failures = report.summary["extraction_failures"]
        assert failures["count"] == 1
        assert failures["rows"][0]["question_id"] == "7"

    def test_unresolved_gold_table_is_an_extraction_failure(
        self, golden_pipeline, questions, repo, tmp_path
    ):
        from dataclasses import replace

        gold_sql = (
            "SELECT * FROM customers JOIN shipments "
            "ON customers.customer_id = shipments.customer_id"
        )
        tweaked = [
            replace(q, gold_sql=gold_sql) if q.question_id == "7" else q
            for q in questions
        ]
        report = run_evaluation(
            golden_pipeline.link_path, tweaked, repo, report_dir=tmp_path
        )
        summary = json.loads(report.summary_path.read_text(encoding="utf-8"))
        assert summary["rows_evaluated"] == 9
        assert summary["extraction_failures"]["rows"] == [
            {
                "question_id": "7",
                "reason": "gold SQL names unknown tables: shipments",
            }
        ]

    def test_gold_sql_reading_no_table_is_an_extraction_failure(
        self, golden_pipeline, questions, repo, tmp_path
    ):
        tweaked = [
            replace(q, gold_sql="SELECT 1 FROM (SELECT 2)") if q.question_id == "7" else q
            for q in questions
        ]
        report = run_evaluation(golden_pipeline.link_path, tweaked, repo, report_dir=tmp_path)
        assert report.summary["rows_evaluated"] == 9
        assert report.summary["extraction_failures"]["rows"] == [
            {"question_id": "7", "reason": "gold SQL reads no schema table"}
        ]

    def test_failing_gold_execution_is_reported(
        self, golden_pipeline, questions, repo, tmp_path
    ):
        from dataclasses import replace

        tweaked = [
            replace(q, gold_sql="SELECT ghost_column FROM customers")
            if q.question_id == "7"
            else q
            for q in questions
        ]
        report = run_evaluation(
            golden_pipeline.gen_path,
            tweaked,
            repo,
            check_execution=True,
            report_dir=tmp_path,
        )
        failures = report.summary["gold_execution_failures"]
        assert failures["count"] == 1
        assert failures["rows"][0]["question_id"] == "7"
        assert report.summary["overall"]["execution_count"] == 9

    def test_no_evaluable_rows_rejected(self, golden_pipeline, repo, tmp_path):
        with pytest.raises(EmptyInputError):
            run_evaluation(
                golden_pipeline.link_path, [], repo, report_dir=tmp_path
            )


class TestRowsInHand:
    """A run's latest rows, as the runner returns them, score as its file does."""

    @pytest.fixture
    def kept(self, monkeypatch):
        """Each file's latest rows that every ``_run_rows`` call returned, in call order."""
        kept = []
        real_run_rows = harness._run_rows

        def run_rows(*args):
            outcomes, latest = real_run_rows(*args)
            kept.extend(latest)
            return outcomes, latest

        monkeypatch.setattr(harness, "_run_rows", run_rows)
        return kept

    @pytest.mark.parametrize("check_execution", [False, True])
    def test_reports_match_the_file_read_back(
        self, golden_pipeline, questions, repo, tmp_path, kept, check_execution
    ):
        # Question 11 has no transcript, so its link row fails and its
        # generated row is not prompted. Question 1's earlier failed row is
        # retried, so the link file holds two rows for it.
        asked = list(questions) + [
            Question("11", DB_ID, "Which supplier is the oldest?", gold_sql=CORPUS[3]["SQL"])
        ]
        link_path, gen_path = tmp_path / "link.jsonl", tmp_path / "gen.jsonl"
        earlier = {"question_id": "1", "db_id": DB_ID, "error": {"code": "BACKEND_ERROR"}}
        link_path.write_text(json.dumps(earlier) + "\n", encoding="utf-8")
        config = RunConfig(mode="mode7", cache_path=golden_pipeline.cache_path)
        client = replay_client(golden_pipeline.cache_path)
        linked = run_linking(asked, config, repo, link_path, client=client)
        generated = run_generation(link_path, config, client=client, out_path=gen_path)
        assert (linked.completed, linked.failed, generated.failed) == (10, 1, 1)
        assert [row["question_id"] for row in read_rows(link_path)].count("1") == 2

        assert len(kept) == 2
        for path, rows in zip((link_path, gen_path), kept):
            assert list(rows.items()) == list(harness._latest_rows(path).items())
            from_file = run_evaluation(
                path, asked, repo, check_execution=check_execution, report_dir=tmp_path / "file"
            )
            in_hand = run_evaluation(
                rows, asked, repo, check_execution=check_execution, report_dir=tmp_path / "hand"
            )
            assert in_hand.summary == from_file.summary
            for report in ("summary_path", "per_question_path"):
                produced = getattr(in_hand, report).read_bytes()
                assert produced == getattr(from_file, report).read_bytes(), (path.name, report)
        if check_execution:
            assert in_hand.summary["overall"]["execution_count"] == 11
            assert in_hand.summary["overall"]["execution_accuracy"] == pytest.approx(10 / 11)


class TestEvaluationAcrossDatabases:
    """Execution checks run grouped by database; reports keep question order."""

    DATABASES = ["shop_a", "shop_b", "shop_c"]
    EXTRACTION_FAILURES = ["2", "3"]  # on shop_c, then shop_a
    GOLD_FAILURES = ["5", "6"]  # on shop_c, then shop_a
    WRONG_PREDICTION = "7"

    @pytest.fixture
    def interleaved(self, tmp_path):
        schema_root = tmp_path / "schemas"
        for db_id in self.DATABASES:
            build_database(schema_root / db_id / f"{db_id}.sqlite")
        questions, rows = [], []
        for i in range(1, 13):
            source = CORPUS[i % len(CORPUS)]
            question_id = str(i)
            gold_sql = source["SQL"]
            if question_id in self.EXTRACTION_FAILURES:
                gold_sql = "SELECT 1"
            elif question_id in self.GOLD_FAILURES:
                gold_sql = "SELECT ghost_column FROM customers"
            predicted_sql = "SELECT 0" if question_id == self.WRONG_PREDICTION else source["SQL"]
            questions.append(
                Question(
                    question_id=question_id,
                    db_id=self.DATABASES[i % len(self.DATABASES)],
                    text=source["question"],
                    gold_sql=gold_sql,
                )
            )
            rows.append(
                {
                    "question_id": question_id,
                    "chosen_tables": sorted(source["gold_tables"]),
                    "predicted_sql": predicted_sql,
                }
            )
        run_output = tmp_path / "gen.jsonl"
        run_output.write_text(
            "".join(json.dumps(row) + "\n" for row in reversed(rows)), encoding="utf-8"
        )
        return SimpleNamespace(
            schema_root=schema_root, questions=questions, run_output=run_output
        )

    def evaluate(self, interleaved, repo, report_dir):
        return run_evaluation(
            interleaved.run_output,
            interleaved.questions,
            repo,
            check_execution=True,
            report_dir=report_dir,
        )

    def test_failures_are_listed_in_question_order(self, interleaved, tmp_path):
        report = self.evaluate(
            interleaved, SchemaRepository(interleaved.schema_root), tmp_path / "r"
        )
        summary = report.summary
        assert [
            row["question_id"] for row in summary["extraction_failures"]["rows"]
        ] == self.EXTRACTION_FAILURES
        assert [
            row["question_id"] for row in summary["gold_execution_failures"]["rows"]
        ] == self.GOLD_FAILURES
        lines = report.per_question_path.read_text(encoding="utf-8").splitlines()[1:]
        cells = [line.split(",") for line in lines]
        assert [cell[0] for cell in cells] == [
            str(i) for i in range(1, 13) if str(i) not in self.EXTRACTION_FAILURES
        ]
        for cell in cells:
            assert cell[1] == self.DATABASES[int(cell[0]) % len(self.DATABASES)]
            expected = (
                ""
                if cell[0] in self.GOLD_FAILURES
                else str(cell[0] != self.WRONG_PREDICTION).lower()
            )
            assert cell[10] == expected, cell
        assert summary["overall"]["execution_count"] == 8

    def test_each_database_is_opened_once(
        self, interleaved, tmp_path, sqlite_connections
    ):
        repo = SchemaRepository(interleaved.schema_root)
        for db_id in self.DATABASES:
            repo.schema(db_id)
        sqlite_connections.opened.clear()
        self.evaluate(interleaved, repo, tmp_path / "r")
        assert sorted(sqlite_connections.opened) == sorted(
            f"file:{repo.database_path(db_id)}?mode=ro" for db_id in self.DATABASES
        )
        assert sqlite_connections.open == 0

    def test_at_most_one_connection_is_open(
        self, interleaved, tmp_path, sqlite_connections
    ):
        self.evaluate(
            interleaved, SchemaRepository(interleaved.schema_root), tmp_path / "r"
        )
        assert len(sqlite_connections.opened) == 6  # a schema load and a check per database
        assert sqlite_connections.peak == 1
        assert sqlite_connections.open == 0


class TestSchemasThatFailToLoad:
    """A database whose schema fails to load costs its own questions, not the run."""

    BROKEN = "broken"
    BROKEN_QUESTIONS = ["2", "5"]

    @staticmethod
    def unreadable_sqlite(directory: Path) -> str:
        directory.mkdir(parents=True)
        (directory / "broken.sqlite").write_bytes(SQLITE_MAGIC + b"\xff" * 4080)
        return "unreadable SQLite database"

    @staticmethod
    def dangling_key_document(directory: Path) -> str:
        directory.mkdir(parents=True)
        document = {
            "db_id": "broken",
            "tables": [{"name": "t", "columns": [{"name": "x"}]}],
            "foreign_keys": [
                {"from_table": "t", "from_column": "x", "to_table": "ghost", "to_column": "x"}
            ],
        }
        (directory / "schema.json").write_text(json.dumps(document), encoding="utf-8")
        return "foreign key references unknown table 'ghost'"

    @pytest.fixture(params=["unreadable_sqlite", "dangling_key_document"])
    def corpus(self, request, tmp_path):
        """The toy corpus with two questions moved to a database that fails to load."""
        root = tmp_path / "schemas"
        build_database(root / DB_ID / f"{DB_ID}.sqlite")
        reason = getattr(self, request.param)(root / self.BROKEN)
        questions = [
            Question(
                question_id=str(row["question_id"]),
                db_id=self.BROKEN if str(row["question_id"]) in self.BROKEN_QUESTIONS else DB_ID,
                text=row["question"],
                gold_sql=row["SQL"],
            )
            for row in CORPUS
        ]
        return SimpleNamespace(repo=SchemaRepository(root), questions=questions, reason=reason)

    def test_evaluation_lists_their_questions_as_extraction_failures(self, corpus, tmp_path):
        rows = {
            question.question_id: {"question_id": question.question_id, "chosen_tables": ["orders"]}
            for question in corpus.questions
        }
        summary = run_evaluation(
            rows, corpus.questions, corpus.repo, report_dir=tmp_path / "r"
        ).summary
        failures = summary["extraction_failures"]["rows"]
        assert [failure["question_id"] for failure in failures] == self.BROKEN_QUESTIONS
        assert all(corpus.reason in failure["reason"] for failure in failures)
        assert summary["rows_evaluated"] == len(CORPUS) - len(self.BROKEN_QUESTIONS)

    def test_sweep_still_writes_its_grid(self, corpus, tmp_path):
        cache_path = tmp_path / "cache.jsonl"
        client = CachingClient(
            TranscriptCache(cache_path), backend=ScriptedBackend(), mode="record"
        )
        config = RunConfig(cache_path=cache_path, cache_mode="record", workers=1)
        result = run_sweep(
            corpus.questions, config, corpus.repo, tmp_path / "sweep",
            modes=["mode4", "mode7"], client=client,
        )  # fmt: skip
        assert [row["mode"] for row in result["rows"]] == ["mode4", "mode7"]
        broken = len(self.BROKEN_QUESTIONS)
        assert all(row["count"] == len(CORPUS) - broken for row in result["rows"])
        assert all(outcome.failed == broken for outcome in result["outcomes"].values())
        assert len(result["grid_csv"].read_text(encoding="utf-8").splitlines()) == 3


class TestRunSweep:
    def test_subset_sweep(self, questions, repo, tmp_path):
        backend = ScriptedBackend()
        cache_path = tmp_path / "cache.jsonl"
        client = CachingClient(
            TranscriptCache(cache_path), backend=backend, mode="record"
        )
        base = RunConfig(cache_path=cache_path, cache_mode="record", workers=1)
        result = run_sweep(
            questions,
            base,
            repo,
            tmp_path / "sweep",
            modes=["mode5", "force-union"],
            client=client,
        )
        assert [row["mode"] for row in result["rows"]] == ["mode5", "mode7"]
        for row in result["rows"]:
            assert row["count"] == 10
            assert row["recall"] == 1.0
        by_mode = {row["mode"]: row for row in result["rows"]}
        assert by_mode["mode5"]["exact_match_rate"] == 1.0
        assert by_mode["mode7"]["exact_match_rate"] == pytest.approx(0.9)
        assert (tmp_path / "sweep" / "link_mode5.jsonl").is_file()
        assert (tmp_path / "sweep" / "mode7" / "summary.json").is_file()
        grid_lines = result["grid_csv"].read_text(encoding="utf-8").splitlines()
        assert grid_lines[0] == ",".join(GRID_COLUMNS)
        assert len(grid_lines) == 3
        assert json.loads(result["grid_json"].read_text(encoding="utf-8")) == result[
            "rows"
        ]

    def test_empty_mode_list_is_rejected(self, questions, repo, tmp_path):
        base = RunConfig(cache_path=tmp_path / "cache.jsonl")
        with pytest.raises(ValueError, match="no modes given"):
            run_sweep(questions, base, repo, tmp_path / "sweep", modes=[])
        assert not (tmp_path / "sweep").exists()

    def test_full_grid_covers_all_modes(self, questions, repo, tmp_path):
        backend = ScriptedBackend()
        cache_path = tmp_path / "cache.jsonl"
        client = CachingClient(
            TranscriptCache(cache_path), backend=backend, mode="record"
        )
        base = RunConfig(cache_path=cache_path, cache_mode="record", workers=1)
        result = run_sweep(questions, base, repo, tmp_path / "sweep", client=client)
        assert [row["mode"] for row in result["rows"]] == [
            f"mode{i}" for i in range(1, 8)
        ]
        labels = [row["label"] for row in result["rows"]]
        assert labels == [
            "1-1",
            "1-n",
            "n-1",
            "n-n",
            "force-longest",
            "no-union",
            "force-union",
        ]
        assert all(row["recall"] == 1.0 for row in result["rows"])

    def test_duplicate_modes_run_once(self, questions, repo, tmp_path):
        cache_path = tmp_path / "cache.jsonl"
        client = CachingClient(
            TranscriptCache(cache_path), backend=ScriptedBackend(), mode="record"
        )
        base = RunConfig(cache_path=cache_path, cache_mode="record", workers=1)
        result = run_sweep(
            questions,
            base,
            repo,
            tmp_path / "sweep",
            modes=["mode7", "force-union", "mode1", "1-1"],
            client=client,
        )
        assert [row["mode"] for row in result["rows"]] == ["mode7", "mode1"]
        assert list(result["outcomes"]) == ["mode7", "mode1"]
        grid_lines = result["grid_csv"].read_text(encoding="utf-8").splitlines()
        assert [line.split(",")[0] for line in grid_lines[1:]] == ["mode7", "mode1"]
        assert len(read_rows(tmp_path / "sweep" / "link_mode7.jsonl")) == 10

    def test_outcomes_report_each_mode(self, questions, repo, tmp_path):
        base = RunConfig(cache_path=tmp_path / "empty.jsonl", cache_mode="replay")
        result = run_sweep(
            questions, base, repo, tmp_path / "sweep", modes=["mode1", "mode7"]
        )
        for mode in ("mode1", "mode7"):
            outcome = result["outcomes"][mode]
            assert outcome.path == tmp_path / "sweep" / f"link_{mode}.jsonl"
            assert (outcome.completed, outcome.skipped, outcome.failed) == (0, 0, 10)
            rows = read_rows(outcome.path)
            assert {row["error"]["code"] for row in rows} == {"CACHE_MISS"}
        grid = json.loads(result["grid_json"].read_text(encoding="utf-8"))
        assert all("outcomes" not in row and "failed" not in row for row in grid)


class RequestLog(CachingClient):
    """A client that keeps every request it is asked to complete."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.sent = []

    def complete(self, request):
        self.sent.append(request)
        return super().complete(request)


class TestSweepSharing:
    """A sweep does mode-independent work once per question."""

    @pytest.fixture(scope="class")
    def recorded(self, tmp_path_factory, questions, repo):
        """A record-mode sweep of every mode; question 3's endpoints degrade."""
        base = tmp_path_factory.mktemp("shared_sweep")
        cache_path = base / "cache.jsonl"
        client = RequestLog(
            TranscriptCache(cache_path),
            backend=ScriptedBackend(endpoint_overrides={3: "no tables here"}),
            mode="record",
        )
        config = RunConfig(cache_path=cache_path, cache_mode="record", workers=1)
        result = run_sweep(questions, config, repo, base / "sweep", client=client)
        return SimpleNamespace(
            dir=base / "sweep", cache_path=cache_path, client=client, result=result
        )

    def test_one_endpoint_request_per_question(self, recorded):
        sent = by_prompt(recorded.client.sent, PromptId.SRC_DST)
        # Question 3's unusable reply adds its one nudged retry.
        assert len(sent) == 11
        assert sum(RETRY_NUDGE in request.user_text for request in sent) == 1
        assert len({request.user_text for request in sent}) == 11
        assert all(o.failed == 0 for o in recorded.result["outcomes"].values())
        rows = read_rows(recorded.dir / "link_mode4.jsonl")
        assert [row["degraded"] for row in rows].count(True) == 1

    def test_failed_endpoint_request_is_sent_once(self, questions, repo, tmp_path):
        class DownForQuestion1(ScriptedBackend):
            failed = 0

            def complete(self, request):
                if request.system_text == SYSTEM_PROMPTS[PromptId.SRC_DST] and (
                    self._question_from(request.user_text) == CORPUS[0]["question"]
                ):
                    self.failed += 1
                    raise BackendError("endpoint unavailable")
                return super().complete(request)

        backend = DownForQuestion1()
        cache_path = tmp_path / "cache.jsonl"
        client = CachingClient(TranscriptCache(cache_path), backend=backend, mode="record")
        config = RunConfig(cache_path=cache_path, cache_mode="record", workers=1)
        result = run_sweep(questions, config, repo, tmp_path / "sweep", client=client)
        assert backend.failed == 1
        for mode in ALL_MODES:
            assert result["outcomes"][mode].failed == 1
            rows = read_rows(tmp_path / "sweep" / f"link_{mode}.jsonl")
            errors = {row["question_id"]: row["error"] for row in rows if row["error"]}
            assert errors == {"1": {"code": "BACKEND_ERROR", "message": "endpoint unavailable"}}

    def test_resumed_sweep_asks_once_per_question(self, recorded, questions, repo, tmp_path):
        out_dir = tmp_path / "sweep"
        out_dir.mkdir()
        for mode in ("mode1", "mode2", "mode3"):
            name = f"link_{mode}.jsonl"
            (out_dir / name).write_bytes((recorded.dir / name).read_bytes())
        client = RequestLog(TranscriptCache(recorded.cache_path), mode="replay")
        config = RunConfig(cache_path=recorded.cache_path)
        result = run_sweep(questions, config, repo, out_dir, client=client)
        assert len(by_prompt(client.sent, PromptId.SRC_DST)) == 11
        skipped = {mode: o.skipped for mode, o in result["outcomes"].items()}
        assert skipped == {mode: 10 if mode in ALL_MODES[:3] else 0 for mode in ALL_MODES}

    def test_resumed_sweep_counts_only_the_rows_it_writes(
        self, recorded, questions, repo, tmp_path
    ):
        # Question 11 has no transcript, so replay fails its row in every mode.
        asked = list(questions) + [
            Question("11", DB_ID, "Which supplier is the oldest?", gold_sql=CORPUS[3]["SQL"])
        ]
        out_dir = tmp_path / "sweep"
        out_dir.mkdir()

        def earlier(mode: str) -> list[str]:
            return (recorded.dir / f"link_{mode}.jsonl").read_text(encoding="utf-8").splitlines(True)

        stale = json.dumps({"question_id": "99", "mode": "mode2", "error": None}) + "\n"
        failed_4 = json.dumps({"question_id": "4", "mode": "mode3", "error": {"code": "X"}}) + "\n"
        (out_dir / "link_mode1.jsonl").write_text("".join(earlier("mode1")), encoding="utf-8")
        (out_dir / "link_mode2.jsonl").write_text(
            "".join(earlier("mode2")[:5]) + stale, encoding="utf-8"
        )
        (out_dir / "link_mode3.jsonl").write_text(
            "".join(earlier("mode3")) + failed_4, encoding="utf-8"
        )
        config = RunConfig(cache_path=recorded.cache_path)
        result = run_sweep(asked, config, repo, out_dir, client=replay_client(recorded.cache_path))
        counts = {
            mode: (o.completed, o.skipped, o.failed) for mode, o in result["outcomes"].items()
        }
        assert counts == {
            "mode1": (0, 10, 1),
            "mode2": (5, 5, 1),
            "mode3": (1, 9, 1),
            **{mode: (10, 0, 1) for mode in ALL_MODES[3:]},
        }
        assert [row["count"] for row in result["rows"]] == [11] * len(ALL_MODES)

    def test_sweep_reads_each_link_file_once(
        self, recorded, questions, repo, tmp_path, monkeypatch
    ):
        reads = Counter()
        real_read = harness.read_jsonl
        monkeypatch.setattr(
            harness, "read_jsonl", lambda path, *args: reads.update([path]) or real_read(path, *args)
        )
        config = RunConfig(cache_path=recorded.cache_path)
        out_dir = tmp_path / "sweep"
        run_sweep(questions, config, repo, out_dir, client=replay_client(recorded.cache_path))
        assert reads == Counter({out_dir / f"link_{mode}.jsonl": 1 for mode in ALL_MODES})
        for path in recorded.dir.rglob("*.*"):
            name = path.relative_to(recorded.dir)
            assert (out_dir / name).read_bytes() == path.read_bytes(), name

    def test_complete_sweep_asks_nothing(self, recorded, questions, repo, tmp_path):
        out_dir = tmp_path / "sweep"
        out_dir.mkdir()
        for path in recorded.dir.glob("link_*.jsonl"):
            (out_dir / path.name).write_bytes(path.read_bytes())
        client = RequestLog(TranscriptCache(recorded.cache_path), mode="replay")
        config = RunConfig(cache_path=recorded.cache_path)
        run_sweep(questions, config, repo, out_dir, client=client)
        assert client.sent == []

    def test_searches_and_gold_extraction_run_once(
        self, recorded, questions, repo, tmp_path, monkeypatch
    ):
        searched, extracted, joined = Counter(), Counter(), Counter()
        real_search = pathfinder._shortest_path_dag
        real_extract = harness.extract_tables
        real_join = SchemaGraph.join_conditions

        def search(graph, src, dst):
            searched[src, dst] += 1
            return real_search(graph, src, dst)

        def extract(sql, schema):
            extracted[sql] += 1
            return real_extract(sql, schema)

        def join(graph, tables):
            joined[id(graph), tuple(tables)] += 1
            return real_join(graph, tables)

        monkeypatch.setattr(pathfinder, "_shortest_path_dag", search)
        monkeypatch.setattr(harness, "extract_tables", extract)
        monkeypatch.setattr(SchemaGraph, "join_conditions", join)
        # The session repository already holds paths and gold sets from
        # earlier tests; a fresh one starts with none.
        fresh = SchemaRepository(repo.root)
        client = replay_client(recorded.cache_path)
        config = RunConfig(cache_path=recorded.cache_path)
        run_sweep(questions, config, fresh, tmp_path / "sweep", client=client)
        assert set(searched.values()) == {1}
        # Question 3 degrades to the whole schema and searches no pair.
        scripted = {
            frozenset((src, dst))
            for row in CORPUS
            if row["question_id"] != 3
            for src in row["src"].split(",")
            for dst in row["dst"].split(",")
        }
        assert {frozenset(pair) for pair in searched} <= scripted
        assert set(extracted.values()) == {1}
        assert len(extracted) == len(questions)
        # Each path the search kept got its join conditions once, and no render asked again.
        graph = fresh.graph(DB_ID)
        kept = {(id(graph), path.tables) for paths in graph.path_cache.values() for path in paths}
        assert kept and set(joined) == kept
        assert set(joined.values()) == {1}

        # The repository keeps all three, so later runs over it search, extract
        # and join nothing.
        first_searched, first_extracted = Counter(searched), Counter(extracted)
        first_joined = Counter(joined)
        run_sweep(questions, config, fresh, tmp_path / "again", client=client)
        link_path = tmp_path / "alone" / "link.jsonl"
        run_linking(questions, replace(config, mode="mode4"), fresh, link_path, client=client)
        run_evaluation(link_path, questions, fresh, report_dir=tmp_path / "alone" / "report")
        assert searched == first_searched
        assert extracted == first_extracted
        assert joined == first_joined

    def test_many_record_workers_share_safely(self, recorded, questions, repo, tmp_path):
        cache_path = tmp_path / "cache.jsonl"
        client = RequestLog(
            TranscriptCache(cache_path),
            backend=ScriptedBackend(endpoint_overrides={3: "no tables here"}),
            mode="record",
        )
        config = RunConfig(cache_path=cache_path, cache_mode="record", workers=8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            run_sweep(questions, config, repo, tmp_path / "sweep", client=client)
        finally:
            sys.setswitchinterval(interval)
        assert len(by_prompt(client.sent, PromptId.SRC_DST)) == 11
        files = sorted(recorded.dir.rglob("*.*"))
        assert len(files) == 23  # 7 link files, 7 x 2 reports, grid.csv, grid.json
        for path in files:
            name = path.relative_to(recorded.dir)
            assert (tmp_path / "sweep" / name).read_bytes() == path.read_bytes(), name

    def test_modes_fail_independently(self, questions, repo, tmp_path):
        cache_path = tmp_path / "cache.jsonl"
        recorder = CachingClient(TranscriptCache(cache_path), backend=ScriptedBackend(), mode="record")
        config = RunConfig(mode="mode7", cache_path=cache_path, cache_mode="record", workers=1)
        run_linking(questions, config, repo, tmp_path / "mode7.jsonl", client=recorder)
        replay = RunConfig(cache_path=cache_path)
        swept = tmp_path / "sweep"
        run_sweep(questions, replay, repo, swept, client=replay_client(cache_path))
        linked = read_rows(tmp_path / "mode7.jsonl")
        failures = 0
        for mode in ALL_MODES:
            rows = read_rows(swept / f"link_{mode}.jsonl")
            failed = {row["question_id"]: row["error"]["code"] for row in rows if row["error"]}
            expected = {}
            if mode not in ("mode5", "mode7"):  # only these two never ask the selector
                settings = pathfinder.preset(mode)
                for row in linked:
                    found = pathfinder.build_candidates(
                        repo.graph(row["db_id"]), row["sources"], row["destinations"], settings
                    )
                    if len(found.paths) > 1:
                        expected[row["question_id"]] = "CACHE_MISS"
            assert failed == expected, mode
            failures += len(failed)
            alone = tmp_path / "alone" / f"link_{mode}.jsonl"
            run_linking(
                questions, replace(replay, mode=mode), repo, alone, client=replay_client(cache_path)
            )
            assert alone.read_bytes() == (swept / f"link_{mode}.jsonl").read_bytes(), mode
        assert 0 < failures < 5 * len(questions)

    def test_sweep_matches_standalone_runs(self, recorded, questions, repo, tmp_path):
        # Question 11 has no transcript, so replay fails its row in every
        # mode; question 12 repeats question 1's text over unparseable gold.
        asked = list(questions) + [
            Question("11", DB_ID, "Which supplier is the oldest?", gold_sql=CORPUS[3]["SQL"]),
            Question("12", DB_ID, CORPUS[0]["question"], gold_sql="SELECT 1"),
        ]
        config = RunConfig(cache_path=recorded.cache_path)
        swept = tmp_path / "sweep"
        result = run_sweep(
            asked, config, repo, swept, client=replay_client(recorded.cache_path)
        )
        alone = tmp_path / "alone"
        for mode in ALL_MODES:
            link_path = alone / f"link_{mode}.jsonl"
            outcome = run_linking(
                asked,
                replace(config, mode=mode),
                repo,
                link_path,
                client=replay_client(recorded.cache_path),
            )
            assert outcome == replace(result["outcomes"][mode], path=link_path)
            assert outcome.failed == 1
            run_evaluation(link_path, asked, repo, report_dir=alone / mode)
            for name in (f"link_{mode}.jsonl", f"{mode}/summary.json", f"{mode}/per_question.csv"):
                assert (swept / name).read_bytes() == (alone / name).read_bytes(), name
        summary = json.loads((swept / "mode7" / "summary.json").read_text(encoding="utf-8"))
        assert summary["extraction_failures"]["count"] == 1


class TestDegradedQuestion:
    """An unusable endpoint reply links every mode to the whole schema."""

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_row_takes_every_table_without_search_or_selector(
        self, mode, questions, schema_root, tmp_path
    ):
        fresh = SchemaRepository(schema_root)
        graph = fresh.graph(DB_ID)
        before = dict(graph.path_cache)
        cache_path = tmp_path / "cache.jsonl"
        client = RequestLog(
            TranscriptCache(cache_path),
            backend=ScriptedBackend(endpoint_overrides={3: "no tables here"}),
            mode="record",
        )
        config = RunConfig(mode=mode, cache_path=cache_path, cache_mode="record", workers=1)
        degraded = [question for question in questions if question.question_id == "3"]
        run_linking(degraded, config, fresh, tmp_path / "link.jsonl", client=client)
        (row,) = read_rows(tmp_path / "link.jsonl")
        assert row["degraded"] and row["error"] is None
        every_table = sorted(fresh.schema(DB_ID).table_names, key=str.casefold)
        assert row["chosen_tables"] == row["union_tables"] == every_table
        assert row["paths"] == []
        assert row["chosen_path_id"] is None
        assert row["selection_rule"] == "degraded_union"
        assert by_prompt(client.sent, PromptId.PATH_SELECT) == []
        assert graph.path_cache == before
