"""Offline replay benchmark for the schema-linker batch pipeline.

    python3 benchmarks/run.py --workload wide-replay --seed 1 --seconds 25 --trace 0

Run it from the repository root. It generates a seeded synthetic corpus and
records transcripts with a scripted in-process backend, then starts a fresh
process that times set-up and the link, generate, evaluate and sweep stages.
That process's peak memory is the ``peak_rss_mb`` metric, so corpus
generation and recording stay out of it. Each stage runs as calls over
batches of questions; times are CPU seconds scaled by a reference loop
(see ``_reference_scale``), and each batch counts at its median call.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes a separate
traced pass and prints the per-layer metrics, writing a report and the raw
spans under ``.bench_work/reports/``. The last line of standard output is
one JSON object; the exit code is non-zero when a correctness check fails.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import itertools
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".bench_work"
REPORTS = WORK_ROOT / "reports"

MIN_ROUNDS = 2
# Each round gives set-up and every stage at least this much timed work.
# Rounds interleave them, so a slow spell on the machine hits all of them.
ROUND_SHARE_S = 0.5
# CPU seconds of the reference loop on the reference host; see _reference_scale.
REFERENCE_S = 0.003
# Share of --seconds the traced run spends on its untraced link reference,
# and how often the traced pass calls set-up and each stage.
TRACE_REFERENCE_SHARE = 0.3
TRACED_CALLS = 3
# Throughput is counted per reference CPU second; see _reference_scale.
UNITS = {"link": "q/ref-s", "generate": "rows/ref-s", "evaluate": "q/ref-s", "sweep": "pairs/ref-s"}
DEADLINE_S = 175  # the whole command, generation and recording included
PR_SET_PDEATHSIG = 1  # from <linux/prctl.h>


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="use the smallest corpus")
    parser.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    # On SIGTERM, unwind: subprocess.run then kills and waits for the
    # measured process, and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    if not (ROOT / "src" / "schema_linker" / "__init__.py").is_file():
        print(f"benchmark: no schema_linker package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.child is not None:
        return _measure(args)
    return _orchestrate(args)


def _orchestrate(args: argparse.Namespace) -> int:
    """Generate and record, then run the measured process and relay its result."""
    from corpus import generate
    from workloads import WORKLOADS, CheckFailed, record_transcripts

    started = perf_counter()
    workload = WORKLOADS[args.workload]
    work = WORK_ROOT / f"{workload.name}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        spec = workload.smoke_corpus if args.smoke else workload.corpus
        _, _, scripts = generate(spec, args.seed, work)
        expected: dict[str, int] = {}
        if workload.cache_mode == "replay":
            try:
                expected = record_transcripts(workload, work, scripts)
            except CheckFailed as exc:
                print(f"benchmark: {exc}", file=sys.stderr)
                return 1
        (work / "manifest.json").write_text(json.dumps({"expected_requests": expected}))
        print(
            f"benchmark: corpus and recording took {perf_counter() - started:.1f} s",
            file=sys.stderr,
        )
        command = [sys.executable, str(Path(__file__).resolve()), "--child", str(work)]
        command += ["--workload", workload.name, "--seed", str(args.seed)]
        command += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        remaining = DEADLINE_S - (perf_counter() - started)
        try:
            child = subprocess.run(
                command, stdout=subprocess.PIPE, text=True, timeout=remaining, check=False
            )
        except subprocess.TimeoutExpired:
            print(f"benchmark: measured process overran {DEADLINE_S} s", file=sys.stderr)
            return 1
        lines = child.stdout.strip().splitlines()
        if not lines:
            print(
                f"benchmark: measured process exited {child.returncode} without a result",
                file=sys.stderr,
            )
            return child.returncode or 1
        print(lines[-1])
        return child.returncode
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(args: argparse.Namespace) -> int:
    """Set up and time the stages in this process; print the result line."""
    from corpus import load_scripts
    from workloads import STAGES, WORKLOADS, CheckFailed, Runner

    work: Path = args.child
    # Have the kernel kill this process if the orchestrating one dies.
    ctypes.CDLL(None).prctl(PR_SET_PDEATHSIG, signal.SIGKILL)
    manifest = json.loads((work / "manifest.json").read_text())
    runner = Runner(
        WORKLOADS[args.workload], work, load_scripts(work), manifest["expected_requests"]
    )
    try:
        if args.trace:
            metrics = _traced(runner, args)
        else:
            metrics = _timed(runner, args.seconds, STAGES)
    except CheckFailed as exc:
        print(f"benchmark: correctness check failed: {exc}", file=sys.stderr)
        attempted = max(runner.attempted, 1)
        result = {"correct": False, "attempted": attempted, "failed": attempted, "metrics": {}}
        print(json.dumps(result))
        return 1
    result = {"correct": True, "attempted": runner.attempted, "failed": 0, "metrics": metrics}
    print(json.dumps(result))
    return 0


_REFERENCE_WORDS = [f"table_{i}.column_{i % 7}" for i in range(2400)]


def _reference_loop(_=None) -> None:
    """A fixed amount of string, dict, JSON and hashing work."""
    groups: dict[str, list[str]] = {}
    for i, word in enumerate(_REFERENCE_WORDS):
        groups.setdefault(word.split(".")[0], []).append(f"{word} = {i}")
    hashlib.sha256(json.dumps(groups, sort_keys=True).encode()).hexdigest()


def _reference_pass(pool: ThreadPoolExecutor) -> float:
    """CPU seconds per reference loop: one on this thread, two on ``pool``'s threads.

    Set-up and evaluation run on the calling thread; linking and generation
    run on two worker threads, which the host may serve at another speed.
    The garbage collector is off, so the pipeline's heap does not change the
    loop's cost.
    """
    gc.disable()
    start = process_time()
    _reference_loop()
    list(pool.map(_reference_loop, range(2)))
    elapsed = process_time() - start
    gc.enable()
    return elapsed / 3


def _reference_scale(call):
    """Run ``call`` between two reference passes; return its result and a scale.

    The host lends its cores to other guests too. While they are busy, the
    same work takes up to twice the CPU time, for spells of seconds to
    minutes, and the reference loop slows with it. Multiplying a call's CPU
    seconds by the scale, REFERENCE_S over the loop's mean time around the
    call, gives reference CPU seconds: the CPU time the call would take on a
    host where the loop takes REFERENCE_S.
    """
    with ThreadPoolExecutor(max_workers=2) as pool:
        before = _reference_pass(pool)
        result = call()
        after = _reference_pass(pool)
    return result, 2.0 * REFERENCE_S / (before + after)


def _stage_pass(runner, stage: str, samples: list) -> float:
    """Call every batch of ``stage`` once and append a sample per call.

    A sample is (batch, items, reference CPU s, CPU s, wall s). Return the
    pass's wall time.
    """
    wall = 0.0
    for index in range(runner.calls(stage)):
        (items, clock), scale = _reference_scale(lambda: runner.run(stage, index))
        samples.append((index, items, clock.cpu * scale, clock.cpu, clock.wall))
        wall += clock.wall
    runner.discard()
    return wall


def _rounds(runner, stages, seconds: float, setups: list | None = None) -> dict:
    """Run rounds over ``stages`` for ``seconds``; return each stage's call samples.

    A round gives every stage whole passes over its batches until the stage
    has used ROUND_SHARE_S. With ``setups`` given, each round first repeats
    set-up until it has used ROUND_SHARE_S, so set-up is sampled across the
    whole run. After MIN_ROUNDS rounds, no pass starts once ``seconds`` are up.
    """
    samples: dict[str, list] = {stage: [] for stage in stages}
    deadline = perf_counter() + seconds
    for round_number in itertools.count():
        if round_number >= MIN_ROUNDS and perf_counter() >= deadline:
            return samples
        wall = 0.0
        while setups is not None and wall < ROUND_SHARE_S:
            clock, scale = _reference_scale(runner.setup)
            setups.append((clock.cpu * scale, clock.wall))
            wall += clock.wall
        for stage in stages:
            wall = 0.0
            while wall < ROUND_SHARE_S:
                if round_number >= MIN_ROUNDS and perf_counter() >= deadline:
                    return samples
                wall += _stage_pass(runner, stage, samples[stage])


def _rate(samples, clock: int) -> float:
    """Items per second of one pass, each batch at the median cost of its calls.

    ``clock`` indexes a sample: 2 for reference CPU, 3 for CPU, 4 for wall seconds.
    """
    by_batch: dict[int, list] = {}
    for sample in samples:
        by_batch.setdefault(sample[0], []).append(sample)
    items = sum(group[0][1] for group in by_batch.values())
    cost = sum(statistics.median(s[clock] for s in group) for group in by_batch.values())
    return items / cost


def _timed(runner, seconds: float, stages) -> dict:
    runner.setup()
    setups: list[tuple[float, float]] = []
    started = perf_counter()
    samples = _rounds(runner, stages, seconds, setups)
    print(f"benchmark: timed rounds took {perf_counter() - started:.1f} s", file=sys.stderr)
    setup_s = statistics.median(cpu for cpu, _ in setups)
    setup_wall = statistics.median(wall for _, wall in setups)
    metrics = {"setup_s": {"value": setup_s, "unit": "s"}}
    print(f"benchmark: setup: {len(setups)} samples, {setup_wall:.4f} s wall", file=sys.stderr)
    for stage, stage_samples in samples.items():
        rate, wall_rate = _rate(stage_samples, 2), _rate(stage_samples, 4)
        print(
            f"benchmark: {stage}: {len(stage_samples)} calls, {rate:.1f} {UNITS[stage]}, "
            f"{wall_rate:.1f} per wall second",
            file=sys.stderr,
        )
        metrics[f"{stage}_qps"] = {"value": rate, "unit": UNITS[stage]}
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    metrics["peak_rss_mb"] = {"value": peak_kib / 1024.0, "unit": "MiB"}
    return metrics


def _traced(runner, args: argparse.Namespace) -> dict:
    from tracing import PER_LAYER, Tracer
    from workloads import STAGES

    runner.setup()
    reference = _rounds(runner, ("link",), args.seconds * TRACE_REFERENCE_SHARE)["link"]
    untraced = _rate(reference, 2)
    tracer = Tracer(
        question_ids={q.text: q.question_id for q in runner.questions},
        gold_ids={q.gold_sql: q.question_id for q in runner.questions},
    )
    traced_link = []
    with tracer.installed():
        for _ in range(TRACED_CALLS):
            with tracer.stage_run("setup", len(runner.questions)):
                runner.setup()
        for stage in STAGES:
            for _ in range(TRACED_CALLS):
                items = cost = 0.0
                for index in range(runner.calls(stage)):

                    def call():
                        with tracer.stage_run(stage, runner.items(stage, index)):
                            return runner.run(stage, index)

                    (done, clock), scale = _reference_scale(call)
                    items, cost = items + done, cost + clock.cpu * scale
                    if stage != "evaluate":
                        tracer.count_client(runner.last_client)
                if stage == "link":
                    traced_link.append(items / cost)
                runner.discard()
    traced = statistics.median(traced_link)
    values = tracer.metrics(
        {
            "harness.link_row_bytes": runner.row_bytes("link"),
            "harness.gen_row_bytes": runner.row_bytes("generate"),
            "trace.overhead_frac": untraced / traced - 1.0,
        }
    )
    stem = f"{args.workload}-s{args.seed}"
    tracer.write_spans(REPORTS / f"{stem}-spans.jsonl")
    report = _trace_report(args.workload, tracer, values, untraced, traced)
    (REPORTS / f"{stem}-trace.md").write_text(report, encoding="utf-8")
    print(f"benchmark: trace report in {REPORTS / (stem + '-trace.md')}", file=sys.stderr)
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}


def _trace_report(workload: str, tracer, values: dict, untraced: float, traced: float) -> str:
    from tracing import PER_LAYER, prediction

    lines = [
        f"# Traced run: {workload}",
        "",
        f"Untraced link_qps {untraced:.2f} q/ref-s, traced {traced:.2f}: "
        f"tracing overhead {values['trace.overhead_frac']:.1%}.",
        "",
        "Traced stage times (s, wall / CPU): "
        + ", ".join(
            f"{stage} {wall:.3f} / {tracer.stage_cpu[stage]:.3f}"
            for stage, wall in tracer.stage_wall.items()
        ),
        "",
        "render_schema self CPU time over link-stage CPU time: "
        f"{tracer.stage_share('sql_analysis.render_schema', 'link'):.1%}.",
        "",
    ]
    cost = tracer.degraded_cost()
    if cost["degraded_links"]:
        lines += [
            f"Degraded questions: {cost['degraded_links']} of {cost['links']} link calls "
            f"took {cost['degraded_time_share']:.1%} of link CPU time; mean "
            f"{cost['degraded_mean_ms']:.2f} ms against {cost['other_mean_ms']:.2f} ms.",
            "",
        ]
    lines += ["| metric | value | unit | moves |", "|---|---|---|---|"]
    for name, unit, _ in PER_LAYER:
        lines.append(f"| {name} | {values[name]:.6g} | {unit} | {prediction(name)} |")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    sys.exit(main())
