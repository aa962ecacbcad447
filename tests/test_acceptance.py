"""Acceptance checks, one per release gate, each printing a verdict line.

The frozen scorecard rows, tolerances, and runtime ceilings below are the
published contract for this package; tests fail rather than loosen them.
Run with -s to see the verdict lines on passing runs.
"""

import json
import random
import statistics
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from threading import Thread

from schema_linker import (
    RunConfig,
    all_shortest_paths,
    build_candidates,
    preset,
    run_evaluation,
    run_generation,
    run_linking,
)
from schema_linker.llm import SYSTEM_PROMPTS, CompletionRequest, PromptId
from schema_linker.metrics import fbeta_from_rates, schema_metrics
from schema_linker.sql_analysis import extract_tables

from conftest import read_rows
from oracle_paths import brute_shortest_paths, graph_from_adjacency, random_adjacency
from sql_fixture_queries import EXTRACTION_FIXTURES
from toy_corpus import ScriptedBackend

# Reference scorecard rows as (method, precision, recall, f1, f6), all in
# percent. The F columns must be recomputable from the P/R columns by the
# aggregate cross-check formula to within 0.05 absolute.
REFERENCE_ROWS_DEV = [
    ("llm-as-linker", 91.79, 89.90, 90.83, 89.95),
    ("retrieval-top1", 86.70, 44.46, 58.78, 45.05),
    ("retrieval-top2", 66.59, 67.80, 67.19, 67.77),
    ("retrieval-top3", 53.67, 80.91, 64.54, 79.82),
    ("retrieval-top4", 45.79, 87.64, 60.15, 85.52),
    ("retrieval-top5", 39.89, 91.11, 55.49, 88.06),
    ("retrieval-top6", 35.43, 93.31, 51.36, 89.37),
    ("din-sql", 79.90, 55.70, 65.64, 56.16),
    ("pet-sql", 81.60, 64.90, 72.30, 65.26),
    ("mac-sql", 76.30, 56.20, 64.73, 56.60),
    ("mcs-sql", 79.60, 76.90, 78.23, 76.97),
    ("rsl-sql", 78.10, 77.50, 77.80, 77.52),
    ("linkalign-agent", 77.10, 79.40, 78.23, 79.34),
    ("dts-sql", 95.07, 92.74, 93.89, 92.80),
    ("gen", 90.40, 95.50, 92.88, 95.35),
    ("exsl-c", 95.86, 93.94, 94.89, 93.99),
    ("exsl-f", 96.35, 93.85, 95.08, 93.92),
    ("linker-1-1", 94.89, 84.02, 89.12, 84.28),
    ("linker-force-union", 86.21, 95.71, 90.71, 95.43),
]

REFERENCE_ROWS_HOLDOUT = [
    ("llm-as-linker", 92.82, 90.56, 91.68, 90.62),
    ("retrieval-top1", 86.40, 41.24, 55.83, 41.83),
    ("retrieval-top2", 68.30, 64.67, 66.43, 64.76),
    ("retrieval-top3", 55.00, 77.73, 64.42, 76.88),
    ("retrieval-top4", 47.29, 85.00, 60.77, 83.20),
    ("retrieval-top5", 41.52, 89.64, 56.75, 86.92),
    ("retrieval-top6", 37.06, 92.26, 52.87, 88.69),
    ("linker-n-n", 94.80, 93.97, 94.38, 93.99),
]

EXPECTED_SMOKE_TABLES = {
    "1": {"customers", "orders"},
    "2": {"products", "reviews"},
    "3": {"customers", "order_items", "orders", "products", "reviews"},
}

ALL_MODES = [f"mode{i}" for i in range(1, 8)]


def _verdict(line: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[acceptance] {line}: {status}")
    assert not failures, f"{line}: " + "; ".join(failures)


def test_1_fbeta_crosscheck_reproduces_reference_rows():
    started = time.monotonic()
    failures = []
    for table, rows in (("dev", REFERENCE_ROWS_DEV), ("holdout", REFERENCE_ROWS_HOLDOUT)):
        for method, precision, recall, f1, f6 in rows:
            got_f1 = fbeta_from_rates(precision, recall, 1)
            got_f6 = fbeta_from_rates(precision, recall, 6)
            if abs(got_f1 - f1) > 0.05:
                failures.append(f"{table}/{method}: f1 {got_f1:.4f} vs {f1}")
            if abs(got_f6 - f6) > 0.05:
                failures.append(f"{table}/{method}: f6 {got_f6:.4f} vs {f6}")
    elapsed = time.monotonic() - started
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f}s, ceiling 1s")
    assert len(REFERENCE_ROWS_DEV) == 19 and len(REFERENCE_ROWS_HOLDOUT) == 8
    _verdict("1/8 reference-row F-score reproduction within 0.05", failures)


def test_2_shortest_path_search_matches_brute_force():
    started = time.monotonic()
    failures = []
    for seed in range(500):
        rng = random.Random(seed)
        n_nodes = rng.randint(2, 10)
        adjacency = random_adjacency(rng, n_nodes, 0.3)
        graph = graph_from_adjacency(adjacency)
        for src in adjacency:
            for dst in adjacency:
                fast = [p.tables for p in all_shortest_paths(graph, src, dst)]
                slow = brute_shortest_paths(adjacency, src, dst)
                if fast != slow:
                    failures.append(f"seed {seed}: {src}->{dst}: {fast} vs {slow}")
        if failures:
            break
    elapsed = time.monotonic() - started
    if elapsed >= 30.0:
        failures.append(f"took {elapsed:.1f}s, ceiling 30s")
    _verdict("2/8 path search equals brute-force oracle on 500 graphs", failures)


def test_3_mode_semantics_on_scripted_transcripts(mode_runs):
    failures = []
    union_rows = mode_runs("mode7").rows
    for mode in ALL_MODES[:-1]:
        for qid, row in mode_runs(mode).rows.items():
            chosen = set(row["chosen_tables"])
            union = set(union_rows[qid]["chosen_tables"])
            if not chosen <= union:
                failures.append(f"{mode} q{qid}: {chosen - union} outside the union")

    select_system = SYSTEM_PROMPTS[PromptId.PATH_SELECT]
    mode6_selects = [
        r
        for r in read_rows(mode_runs("mode6").cache_path)
        if r["system"] == select_system
    ]
    if not mode6_selects:
        failures.append("mode6 cache holds no selector transcripts to inspect")
    for record in mode6_selects:
        if "UNION {" in record["user"]:
            failures.append("mode6 presented a union candidate to the selector")
    mode5_selects = [
        r
        for r in read_rows(mode_runs("mode5").cache_path)
        if r["system"] == select_system
    ]
    if mode5_selects:
        failures.append(f"mode5 made {len(mode5_selects)} selector call(s)")
    _verdict("3/8 mode semantics (union dominance, no-union, longest)", failures)


def test_4_golden_run_recall_and_determinism(
    golden_pipeline, questions, repo, tmp_path
):
    failures = []
    reports = []
    for arm in ("a", "b"):
        base = tmp_path / arm
        config = RunConfig(
            mode="mode7", cache_path=golden_pipeline.cache_path, workers=1
        )
        run_linking(questions, config, repo, base / "link.jsonl")
        run_generation(base / "link.jsonl", config)
        report = run_evaluation(
            base / "link_generated.jsonl",
            questions,
            repo,
            check_execution=True,
            report_dir=base / "report",
        )
        reports.append(report)

    overall = reports[0].summary["overall"]
    if overall["recall"] != 1.0:
        failures.append(f"recall {overall['recall']} != 1.0")
    if overall["exact_match_rate"] < 0.8:
        failures.append(f"exact match rate {overall['exact_match_rate']} < 0.8")
    if overall["execution_accuracy"] != 1.0:
        failures.append(f"execution accuracy {overall['execution_accuracy']} != 1.0")
    first, second = reports
    if first.summary_path.read_bytes() != second.summary_path.read_bytes():
        failures.append("summary.json differs between identical replay runs")
    if first.per_question_path.read_bytes() != second.per_question_path.read_bytes():
        failures.append("per_question.csv differs between identical replay runs")
    _verdict("4/8 golden run: full recall, EMR >= 0.8, byte-stable reports", failures)


def test_5_gold_sql_extraction_fixture_suite(retail_schema):
    failures = []
    if len(EXTRACTION_FIXTURES) < 20:
        failures.append(f"only {len(EXTRACTION_FIXTURES)} labeled fixtures")
    for label, sql, tables, unresolved in EXTRACTION_FIXTURES:
        refs = extract_tables(sql, retail_schema)
        if set(refs.tables) != tables:
            failures.append(f"{label}: {sorted(refs.tables)} != {sorted(tables)}")
        if refs.unresolved != unresolved:
            failures.append(f"{label}: unresolved {refs.unresolved} != {unresolved}")
    _verdict("5/8 SQL table extraction exact on every labeled fixture", failures)


def test_6_metric_identities():
    failures = []
    perfect = schema_metrics({"a", "b"}, {"a", "b"})
    if (perfect.precision, perfect.recall, perfect.f1, perfect.f6) != (1.0,) * 4:
        failures.append("identical sets must score all ones")
    disjoint = schema_metrics({"a"}, {"b"})
    if (disjoint.precision, disjoint.recall, disjoint.f1, disjoint.f6) != (0.0,) * 4:
        failures.append("disjoint sets must score all zeros")
    partial = schema_metrics({"a"}, {"a", "b"})
    if abs(partial.f1 - 2 / 3) > 1e-9:
        failures.append(f"f1 {partial.f1!r} != 2/3")
    if abs(partial.f6 - 37 / 73) > 1e-9:
        failures.append(f"f6 {partial.f6!r} != 37/73")

    rng = random.Random(60718293)
    alphabet = [f"t{i}" for i in range(8)]
    checked = 0
    while checked < 1000:
        gold = {name for name in alphabet if rng.random() < 0.5}
        predicted = {name for name in alphabet if rng.random() < 0.5}
        if not gold:
            continue
        checked += 1
        metrics = schema_metrics(predicted, gold)
        p, r = metrics.precision, metrics.recall
        harmonic = 0.0 if p + r == 0 else 2 * p * r / (p + r)
        if abs(metrics.f1 - harmonic) > 1e-12:
            failures.append(f"f1 vs harmonic mean: {metrics.f1!r} vs {harmonic!r}")
            break
    _verdict("6/8 metric identities and harmonic-mean equivalence", failures)


def test_7_search_latency_on_dense_graph():
    rng = random.Random(7)
    nodes = [f"table{i:03d}" for i in range(100)]
    adjacency = {node: set() for node in nodes}
    edges = set()

    def add(a: str, b: str) -> None:
        edges.add((min(a, b), max(a, b)))
        adjacency[a].add(b)
        adjacency[b].add(a)

    for i in range(100):  # ring keeps the graph connected
        add(nodes[i], nodes[(i + 1) % 100])
    while len(edges) < 300:
        a, b = rng.sample(nodes, 2)
        add(a, b)
    graph = graph_from_adjacency(adjacency)
    assert graph.edge_count == 300

    config = preset("mode7")
    durations = []
    for _ in range(1000):
        src, dst = rng.sample(nodes, 2)
        started = time.perf_counter()
        candidates = build_candidates(graph, [src], [dst], config)
        assert candidates.union_tables
        durations.append(time.perf_counter() - started)
    median_s = statistics.median(durations)
    failures = []
    if median_s >= 0.015:
        failures.append(f"median {median_s * 1000:.2f} ms, ceiling 15 ms")
    _verdict(
        f"7/8 per-query search latency (median {median_s * 1000:.2f} ms < 15 ms)",
        failures,
    )


def test_8_record_mode_smoke_against_live_style_endpoint(
    questions, repo, tmp_path, monkeypatch
):
    backend = ScriptedBackend()
    seen_auth = []

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            length = int(self.headers.get("Content-Length", "0"))
            body = json.loads(self.rfile.read(length))
            seen_auth.append(self.headers.get("Authorization"))
            reply = backend.complete(
                CompletionRequest(
                    model_name=body["model"],
                    system_text=body["messages"][0]["content"],
                    user_text=body["messages"][1]["content"],
                    temperature=body["temperature"],
                )
            )
            blob = json.dumps(
                {
                    "choices": [{"message": {"content": reply}}],
                    "usage": {"prompt_tokens": 11, "completion_tokens": 7},
                }
            ).encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(blob)))
            self.end_headers()
            self.wfile.write(blob)

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    # A short poll keeps shutdown() from waiting the default half second.
    Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True).start()
    port = server.server_address[1]
    monkeypatch.setenv(
        "SCHEMA_LINKER_API_URL", f"http://127.0.0.1:{port}/v1/chat/completions"
    )
    monkeypatch.setenv("SCHEMA_LINKER_API_KEY", "smoke-key")

    failures = []
    try:
        config = RunConfig(
            mode="mode7",
            cache_path=tmp_path / "cache.jsonl",
            cache_mode="record",
            workers=1,
        )
        outcome = run_linking(questions[:3], config, repo, tmp_path / "live.jsonl")
        if outcome.completed != 3 or outcome.failed:
            failures.append(f"live run: {outcome}")
        rows = {row["question_id"]: row for row in read_rows(tmp_path / "live.jsonl")}
        for qid, expected in EXPECTED_SMOKE_TABLES.items():
            if set(rows[qid]["chosen_tables"]) != expected:
                failures.append(f"q{qid}: {rows[qid]['chosen_tables']}")
        if "token_usage" not in rows["1"]:
            failures.append("backend usage counters did not reach the run output")
        if len(seen_auth) < 3 or any(auth != "Bearer smoke-key" for auth in seen_auth):
            failures.append(f"bad auth headers: {seen_auth}")
    finally:
        server.shutdown()
        server.server_close()

    # The transcripts recorded over HTTP must replay without the server.
    replay_config = RunConfig(
        mode="mode7", cache_path=tmp_path / "cache.jsonl", workers=1
    )
    replay_outcome = run_linking(
        questions[:3], replay_config, repo, tmp_path / "replayed.jsonl"
    )
    if replay_outcome.failed:
        failures.append(f"replay after recording failed: {replay_outcome}")
    replayed = {row["question_id"] for row in read_rows(tmp_path / "replayed.jsonl")}
    if replayed != set(EXPECTED_SMOKE_TABLES):
        failures.append(f"replay rows missing: {replayed}")
    _verdict("8/8 record-mode smoke against an unmodified HTTP endpoint", failures)
