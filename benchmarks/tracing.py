"""Span tracing for the benchmark's traced run.

Wrappers are installed on module attributes as the calling modules reference
them (``llm.render_schema`` and ``harness.render_schema`` both feed the
``sql_analysis.render_schema`` span), so nothing under ``src/`` changes.
Each span records its name, start, end, parent span, the question it served
and the stage it ran in. Spans keep a per-thread parent stack and stay in
memory until ``write_spans`` runs at the end.

Self time is the CPU time of the span's thread during the span, minus the
CPU time of its child spans on the same thread. CPU time rather than wall
time, because two worker threads take turns on the interpreter lock: a
span's wall duration also counts the other thread's work. Worker threads
start their own stacks; waiting for them costs the calling thread no CPU.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time, thread_time

from schema_linker import harness, llm, metrics, pathfinder

# (span name, owner whose attribute is replaced, attribute)
TARGETS = [
    ("schema_model.ingest_sqlite", harness, "ingest_sqlite"),
    ("schema_model.build_graph", harness, "build_graph"),
    ("schema_model.augment_sparse_graph", harness, "augment_sparse_graph"),
    ("sql_analysis.render_schema", llm, "render_schema"),
    ("sql_analysis.render_schema", harness, "render_schema"),
    ("sql_analysis.render_filtered_schema", harness, "render_filtered_schema"),
    ("sql_analysis.render_join_path", harness, "render_join_path"),
    ("sql_analysis.extract_tables", harness, "extract_tables"),
    ("llm.render_src_dst_prompt", llm, "render_src_dst_prompt"),
    ("llm.render_path_select_prompt", llm, "render_path_select_prompt"),
    ("llm.render_sql_gen_prompt", harness, "render_sql_gen_prompt"),
    ("llm.request_digest", llm, "request_digest"),
    ("llm.TranscriptCache.get", llm.TranscriptCache, "get"),
    ("llm.TranscriptCache.put", llm.TranscriptCache, "put"),
    ("llm.TranscriptCache.load", llm.TranscriptCache, "__init__"),
    ("llm.parse_src_dst_reply", llm, "parse_src_dst_reply"),
    ("llm.parse_path_select_reply", llm, "parse_path_select_reply"),
    ("llm.degraded_extraction", llm, "degraded_extraction"),
    ("pathfinder.link", harness, "link"),
    ("pathfinder.build_candidates", pathfinder, "build_candidates"),
    ("pathfinder.all_shortest_paths", pathfinder, "all_shortest_paths"),
    ("pathfinder.select_path", pathfinder, "select_path"),
    ("pathfinder.render_candidate_lines", pathfinder, "render_candidate_lines"),
    ("harness.run_linking", harness, "run_linking"),
    ("harness.run_generation", harness, "run_generation"),
    ("harness.run_evaluation", harness, "run_evaluation"),
    ("harness.run_sweep", harness, "run_sweep"),
    ("metrics.schema_metrics", metrics, "schema_metrics"),
    ("metrics.aggregate", harness, "aggregate"),
    ("metrics.execution_match", harness, "execution_match"),
]

# Span names reported with every stat; the rest skip self_ms_p99 because
# they run once per database or once per set-up.
_ONCE_PER_SETUP = {
    "schema_model.ingest_sqlite",
    "schema_model.build_graph",
    "schema_model.augment_sparse_graph",
    "llm.TranscriptCache.load",
}
_COUNTED_ONLY = {"llm.degraded_extraction"}

# Which end-to-end metric each layer should move, on which workload.
PREDICTIONS = [
    ("schema_model.", "setup_s on sweep-small; negligible on wide-replay"),
    ("sql_analysis.render_", "link_qps on wide-replay; flat on sweep-small"),
    ("sql_analysis.extract_tables", "evaluate_qps and sweep_qps on sweep-small"),
    ("llm.render_sql_gen_prompt", "generate_qps on wide-replay"),
    ("llm.render_", "link_qps on wide-replay"),
    ("llm.request_digest", "link_qps and generate_qps on wide-replay"),
    ("llm.prompt_chars_per_q.sql_gen", "generate_qps on wide-replay"),
    ("llm.prompt_chars_per_q", "link_qps on wide-replay"),
    ("llm.TranscriptCache.get", "link_qps on wide-replay"),
    ("llm.TranscriptCache.put", "link_qps on record-cold"),
    ("llm.TranscriptCache.load", "setup_s on every workload"),
    ("llm.parse_", "sweep_qps on sweep-small"),
    ("llm.", "link_qps and sweep_qps on every workload"),
    (
        "pathfinder.",
        "sweep_qps on sweep-small, tail set by degraded questions; flat on wide-replay",
    ),
    ("harness.link_row_bytes", "link_qps, generate_qps and peak_rss_mb on wide-replay"),
    ("harness.gen_row_bytes", "generate_qps and peak_rss_mb on wide-replay"),
    ("harness.", "the qps of the stage that calls it, on every workload"),
    ("metrics.", "evaluate_qps; execution_match dominates on both replay workloads"),
    ("trace.", "none: tracing cost against untraced link_qps"),
]


def _span_stats(name: str) -> list[tuple[str, str, str]]:
    stats = [("calls_per_q", "calls/q", "lower"), ("self_ms_p50", "ms", "lower")]
    if name not in _ONCE_PER_SETUP:
        stats.append(("self_ms_p99", "ms", "lower"))
    stats.append(("share", "ratio", "lower"))
    return [(f"{name}.{stat}", unit, better) for stat, unit, better in stats]


_SPAN_NAMES = list(dict.fromkeys(name for name, _, _ in TARGETS if name not in _COUNTED_ONLY))

# Every per-layer metric the traced run emits: (name, unit, better).
PER_LAYER = [metric for name in _SPAN_NAMES for metric in _span_stats(name)] + [
    ("llm.prompt_chars_per_q.src_dst", "chars/q", "lower"),
    ("llm.prompt_chars_per_q.path_select", "chars/q", "lower"),
    ("llm.prompt_chars_per_q.sql_gen", "chars/q", "lower"),
    ("llm.cache_hit_ratio", "ratio", "higher"),
    ("llm.backend_calls_per_q", "calls/q", "lower"),
    ("llm.endpoint_first_reply_usable_ratio", "ratio", "higher"),
    ("llm.degraded_frac", "ratio", "lower"),
    ("pathfinder.pairs_per_q", "pairs/q", "lower"),
    ("pathfinder.candidates_per_q.p50", "paths", "lower"),
    ("pathfinder.candidates_per_q.p99", "paths", "lower"),
    ("pathfinder.candidates_per_q.max", "paths", "lower"),
    ("pathfinder.selector_calls_per_q", "calls/q", "lower"),
    ("pathfinder.fallback_union_frac", "ratio", "lower"),
    ("pathfinder.useful_path_ratio", "ratio", "higher"),
    ("harness.link_row_bytes", "bytes", "lower"),
    ("harness.gen_row_bytes", "bytes", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]


@dataclass(frozen=True)
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent_id: int | None
    question_id: str | None
    stage: str
    cpu_s: float  # CPU time of the span's thread during the span
    self_cpu_s: float  # the same minus that of its child spans


def _percentile(sorted_values: list[float], p: float) -> float:
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(p * len(sorted_values)))
    return sorted_values[rank - 1]


class Tracer:
    """Collects spans and layer counts while its wrappers are installed."""

    def __init__(self, question_ids: dict[str, str], gold_ids: dict[str, str]):
        self._question_ids = question_ids  # question text -> id
        self._gold_ids = gold_ids  # gold SQL -> id
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self.spans: list[Span] = []
        self.stage = "setup"
        self.stage_questions: dict[str, int] = {}
        self.stage_wall: dict[str, float] = {}
        self.stage_cpu: dict[str, float] = {}
        self.prompt_chars = {"src_dst": 0, "path_select": 0, "sql_gen": 0}
        self.first_replies = 0
        self.first_replies_usable = 0
        self.degraded_questions: set[str | None] = set()
        self.candidate_counts: list[int] = []
        self.fallback_unions = 0
        self.paths_used = 0
        self.paths_enumerated = 0
        self.cache_hits = 0
        self.backend_calls = 0

    @contextmanager
    def stage_run(self, stage: str, questions: int):
        """Attribute spans to ``stage``; this call handles ``questions`` items."""
        self.stage = stage
        self.stage_questions[stage] = self.stage_questions.get(stage, 0) + questions
        wall, cpu = perf_counter(), process_time()
        try:
            yield
        finally:
            wall, cpu = perf_counter() - wall, process_time() - cpu
            self.stage_wall[stage] = self.stage_wall.get(stage, 0.0) + wall
            self.stage_cpu[stage] = self.stage_cpu.get(stage, 0.0) + cpu

    def count_client(self, client) -> None:
        self.cache_hits += client.cache_hits
        self.backend_calls += client.backend_calls

    # -- wrappers ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter_question(self, name: str, args: tuple) -> None:
        if name in ("pathfinder.link", "llm.render_sql_gen_prompt"):
            self._local.question_id = self._question_ids.get(args[0])
        elif name == "sql_analysis.extract_tables":
            self._local.question_id = self._gold_ids.get(args[0])
        elif name == "metrics.execution_match":
            self._local.question_id = self._gold_ids.get(args[1])

    def _observe(self, name: str, args: tuple, result, failed: bool) -> None:
        local = self._local
        if name == "llm.render_src_dst_prompt":
            local.first_reply_pending = True
            self._add_chars("src_dst", result)
        elif name == "llm.render_path_select_prompt":
            self._add_chars("path_select", result)
        elif name == "llm.render_sql_gen_prompt":
            self._add_chars("sql_gen", result)
        elif name == "llm.parse_src_dst_reply" and getattr(local, "first_reply_pending", False):
            local.first_reply_pending = False
            with self._lock:
                self.first_replies += 1
                self.first_replies_usable += not failed
        elif name == "llm.degraded_extraction":
            with self._lock:
                self.degraded_questions.add(getattr(local, "question_id", None))
        elif name == "pathfinder.build_candidates" and not failed:
            with self._lock:
                self.candidate_counts.append(len(result.paths))
        elif name == "pathfinder.select_path" and not failed:
            enumerated = len(args[0].paths)
            union = result.chosen_path_id is None or result.chosen_path_id > enumerated
            with self._lock:
                self.fallback_unions += result.rule == "fallback_union"
                self.paths_used += enumerated if union else 1
                self.paths_enumerated += enumerated

    def _add_chars(self, kind: str, request) -> None:
        with self._lock:
            self.prompt_chars[kind] += len(request.system_text) + len(request.user_text)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._enter_question(name, args)
            stack = self._stack()
            parent = stack[-1] if stack else None
            frame = [next(self._ids), 0.0]  # span id, CPU time of child spans
            stack.append(frame)
            failed = True
            result = None
            start, start_cpu = perf_counter(), thread_time()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end, cpu = perf_counter(), thread_time() - start_cpu
                stack.pop()
                if parent is not None:
                    parent[1] += cpu
                self.spans.append(
                    Span(
                        span_id=frame[0],
                        name=name,
                        start=start,
                        end=end,
                        parent_id=parent[0] if parent else None,
                        question_id=getattr(self._local, "question_id", None),
                        stage=self.stage,
                        cpu_s=cpu,
                        self_cpu_s=cpu - frame[1],
                    )
                )
                self._observe(name, args, result, failed)

        return traced

    @contextmanager
    def installed(self):
        originals = [(owner, attr, getattr(owner, attr)) for _, owner, attr in TARGETS]
        try:
            for (name, owner, attr), (_, _, fn) in zip(TARGETS, originals):
                setattr(owner, attr, self.wrap(name, fn))
            yield self
        finally:
            for owner, attr, fn in originals:
                setattr(owner, attr, fn)

    # -- results ----------------------------------------------------------

    def _questions_for(self, stages) -> int:
        return sum(self.stage_questions[stage] for stage in set(stages))

    def metrics(self, extra: dict[str, float]) -> dict[str, float]:
        """Every PER_LAYER value; ``extra`` supplies row bytes and overhead."""
        cpu = sum(self.stage_cpu.values())
        by_name: dict[str, list[Span]] = {name: [] for name in _SPAN_NAMES}
        by_name.update({name: [] for name in _COUNTED_ONLY})
        for span in self.spans:
            by_name[span.name].append(span)
        link_q = self._questions_for(s.stage for s in by_name["pathfinder.link"])
        out: dict[str, float] = {}
        for name in _SPAN_NAMES:
            spans = by_name[name]
            selfs = sorted(span.self_cpu_s * 1000.0 for span in spans)
            questions = self._questions_for(span.stage for span in spans)
            values = {
                "calls_per_q": len(spans) / questions if questions else 0.0,
                "self_ms_p50": _percentile(selfs, 0.50),
                "self_ms_p99": _percentile(selfs, 0.99),
                "share": sum(selfs) / 1000.0 / cpu,
            }
            for metric, _, _ in _span_stats(name):
                out[metric] = values[metric.rsplit(".", 1)[1]]
        for kind, chars in self.prompt_chars.items():
            source = {
                "src_dst": "llm.render_src_dst_prompt",
                "path_select": "llm.render_path_select_prompt",
                "sql_gen": "llm.render_sql_gen_prompt",
            }[kind]
            questions = self._questions_for(span.stage for span in by_name[source])
            out[f"llm.prompt_chars_per_q.{kind}"] = chars / questions if questions else 0.0
        requests = self.cache_hits + self.backend_calls
        llm_q = self._questions_for(
            stage for stage in ("link", "generate", "sweep") if stage in self.stage_questions
        )
        out["llm.cache_hit_ratio"] = self.cache_hits / requests if requests else 0.0
        out["llm.backend_calls_per_q"] = self.backend_calls / llm_q
        out["llm.endpoint_first_reply_usable_ratio"] = (
            self.first_replies_usable / self.first_replies if self.first_replies else 0.0
        )
        out["llm.degraded_frac"] = (
            len(by_name["llm.degraded_extraction"]) / self.first_replies
            if self.first_replies
            else 0.0
        )
        out["pathfinder.pairs_per_q"] = len(by_name["pathfinder.all_shortest_paths"]) / link_q
        counts = sorted(self.candidate_counts)
        out["pathfinder.candidates_per_q.p50"] = float(_percentile(counts, 0.50))
        out["pathfinder.candidates_per_q.p99"] = float(_percentile(counts, 0.99))
        out["pathfinder.candidates_per_q.max"] = float(counts[-1]) if counts else 0.0
        out["pathfinder.selector_calls_per_q"] = (
            len(by_name["llm.render_path_select_prompt"]) / link_q
        )
        selections = len(by_name["pathfinder.select_path"])
        out["pathfinder.fallback_union_frac"] = (
            self.fallback_unions / selections if selections else 0.0
        )
        out["pathfinder.useful_path_ratio"] = (
            self.paths_used / self.paths_enumerated if self.paths_enumerated else 0.0
        )
        out.update(extra)
        return out

    def stage_share(self, name: str, stage: str) -> float:
        """Self CPU time of span ``name`` within ``stage`` over that stage's CPU time."""
        total = sum(s.self_cpu_s for s in self.spans if s.name == name and s.stage == stage)
        return total / self.stage_cpu[stage]

    def degraded_cost(self) -> dict[str, float]:
        """CPU time of degraded questions' link calls against the rest."""
        links = [s for s in self.spans if s.name == "pathfinder.link"]
        degraded = [s.cpu_s for s in links if s.question_id in self.degraded_questions]
        normal = [s.cpu_s for s in links if s.question_id not in self.degraded_questions]
        total = sum(degraded) + sum(normal)
        return {
            "degraded_links": len(degraded),
            "links": len(links),
            "degraded_time_share": sum(degraded) / total if total else 0.0,
            "degraded_mean_ms": 1000.0 * sum(degraded) / len(degraded) if degraded else 0.0,
            "other_mean_ms": 1000.0 * sum(normal) / len(normal) if normal else 0.0,
        }

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as sink:
            for span in sorted(self.spans, key=lambda s: s.span_id):
                sink.write(json.dumps(span.__dict__) + "\n")


def prediction(metric: str) -> str:
    for prefix, text in PREDICTIONS:
        if metric.startswith(prefix):
            return text
    raise KeyError(metric)
