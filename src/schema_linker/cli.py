"""Command-line interface for dataset-scale runs.

Exit codes: 0 on success, 1 on a fatal error (unreadable inputs), 2 when
the run finished but some rows failed, or on a usage error.
"""

from __future__ import annotations

import sys
from pathlib import Path

import click

from . import __version__
from .errors import LinkerError
from .harness import (
    RunConfig,
    SchemaRepository,
    ingest_dataset,
    run_evaluation,
    run_generation,
    run_linking,
    run_sweep,
)
from .pathfinder import MODE_LABELS, MODE_PRESETS, canonical_mode_name


def _fatal(message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(1)


def _mode_choice(value: str) -> str:
    try:
        return canonical_mode_name(value)
    except ValueError as exc:
        raise click.BadParameter(str(exc)) from exc


def _echo_diagnostics(diagnostics: list[str]) -> None:
    for line in diagnostics:
        click.echo(f"note: {line}", err=True)


workers_option = click.option(
    "--workers",
    default=RunConfig.workers,
    show_default=True,
    type=click.IntRange(min=1),
    help="Questions in flight at once with --record, on threads started once a "
    "question has waited on the endpoint. Until then, and always in replay, "
    "questions run one at a time on the calling thread. Rows are written in "
    "question order.",
)


@click.group()
@click.version_option(version=__version__, prog_name="schema-linker")
def main() -> None:
    """Graph-guided schema linking and evaluation for text-to-SQL."""


@main.command()
@click.option("--dataset", required=True, type=click.Path(dir_okay=False, path_type=Path))
@click.option(
    "--schemas",
    "schema_root",
    required=True,
    type=click.Path(file_okay=False, path_type=Path),
    help="Directory holding one subdirectory per database.",
)
@click.option("--mode", default="mode7", show_default=True, callback=lambda c, p, v: _mode_choice(v))
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False, path_type=Path))
@click.option("--cache", "cache_path", required=True, type=click.Path(dir_okay=False, path_type=Path))
@click.option(
    "--replay/--record",
    "replay",
    default=True,
    show_default=True,
    help="Replay answers from the cache, or record novel ones from the live backend.",
)
@click.option("--model", default=RunConfig.model, show_default=True)
@click.option("--temperature", default=RunConfig.link_temperature, show_default=True, type=float)
@workers_option
def link(dataset, schema_root, mode, out_path, cache_path, replay, model, temperature, workers):
    """Pick the relevant tables for every question in a dataset."""
    config = RunConfig(
        mode=mode,
        model=model,
        link_temperature=temperature,
        cache_path=cache_path,
        cache_mode="replay" if replay else "record",
        workers=workers,
    )
    try:
        questions, diagnostics = ingest_dataset(dataset, schema_root)
        _echo_diagnostics(diagnostics)
        repo = SchemaRepository(schema_root)
        outcome = run_linking(questions, config, repo, out_path)
    except (LinkerError, FileNotFoundError, ValueError) as exc:
        _fatal(str(exc))
    click.echo(
        f"linked {outcome.completed} question(s) "
        f"({outcome.skipped} already present, {outcome.failed} failed) -> {outcome.path}"
    )
    sys.exit(2 if outcome.failed else 0)


@main.command()
@click.option("--in", "link_output", required=True, type=click.Path(dir_okay=False, path_type=Path))
@click.option("--out", "out_path", default=None, type=click.Path(dir_okay=False, path_type=Path))
@click.option("--cache", "cache_path", required=True, type=click.Path(dir_okay=False, path_type=Path))
@click.option("--replay/--record", "replay", default=True, show_default=True)
@click.option("--model", default=RunConfig.model, show_default=True)
@click.option("--temperature", default=RunConfig.generate_temperature, show_default=True, type=float)
@click.option(
    "--baseline",
    is_flag=True,
    default=False,
    help="Prompt with the full schema instead of the linked sub-schema.",
)
@click.option(
    "--schemas",
    "schema_root",
    default=None,
    type=click.Path(file_okay=False, path_type=Path),
    help="Directory holding one subdirectory per database; required with --baseline.",
)
@workers_option
def generate(
    link_output, out_path, cache_path, replay, model, temperature, baseline, schema_root, workers
):
    """Generate SQL for previously linked questions."""
    if baseline and schema_root is None:
        _fatal("--baseline needs --schemas to render the full schema")
    config = RunConfig(
        model=model,
        generate_temperature=temperature,
        cache_path=cache_path,
        cache_mode="replay" if replay else "record",
        baseline=baseline,
        workers=workers,
    )
    try:
        repo = SchemaRepository(schema_root) if schema_root is not None else None
        outcome = run_generation(link_output, config, out_path=out_path, repo=repo)
    except (LinkerError, FileNotFoundError, ValueError) as exc:
        _fatal(str(exc))
    click.echo(
        f"generated SQL for {outcome.completed} question(s) "
        f"({outcome.skipped} already present, {outcome.failed} failed) -> {outcome.path}"
    )
    sys.exit(2 if outcome.failed else 0)


@main.command()
@click.option("--in", "run_output", required=True, type=click.Path(dir_okay=False, path_type=Path))
@click.option("--dataset", required=True, type=click.Path(dir_okay=False, path_type=Path))
@click.option("--schemas", "schema_root", required=True, type=click.Path(file_okay=False, path_type=Path))
@click.option(
    "--exec/--no-exec",
    "check_execution",
    default=False,
    show_default=True,
    help="Also execute predicted SQL against the databases.",
)
@click.option("--report-dir", required=True, type=click.Path(file_okay=False, path_type=Path))
def evaluate(run_output, dataset, schema_root, check_execution, report_dir):
    """Score a run output and write summary.json and per_question.csv."""
    try:
        questions, diagnostics = ingest_dataset(dataset, schema_root, require_gold_sql=True)
        _echo_diagnostics(diagnostics)
        repo = SchemaRepository(schema_root)
        report = run_evaluation(
            run_output,
            questions,
            repo,
            check_execution=check_execution,
            report_dir=report_dir,
        )
    except (LinkerError, FileNotFoundError, ValueError) as exc:
        _fatal(str(exc))
    overall = report.summary["overall"]
    click.echo(f"evaluated {overall['count']} question(s) -> {report.summary_path}")
    click.echo(
        "exact_match_rate={exact_match_rate:.4f} precision={precision:.4f} "
        "recall={recall:.4f} f1={f1:.4f} f6={f6:.4f}".format(**{
            key: overall[key]
            for key in ("exact_match_rate", "precision", "recall", "f1", "f6")
        })
    )
    if "execution_accuracy" in overall:
        click.echo(
            f"execution_accuracy={overall['execution_accuracy']:.4f} "
            f"over {overall['execution_count']} question(s)"
        )
    sys.exit(0)


@main.command()
@click.option("--dataset", required=True, type=click.Path(dir_okay=False, path_type=Path))
@click.option("--schemas", "schema_root", required=True, type=click.Path(file_okay=False, path_type=Path))
@click.option(
    "--modes",
    default="all",
    show_default=True,
    help='Comma-separated mode names, or "all".',
)
@click.option("--out-dir", required=True, type=click.Path(file_okay=False, path_type=Path))
@click.option("--cache", "cache_path", required=True, type=click.Path(dir_okay=False, path_type=Path))
@click.option("--replay/--record", "replay", default=True, show_default=True)
@click.option("--model", default=RunConfig.model, show_default=True)
@click.option("--temperature", default=RunConfig.link_temperature, show_default=True, type=float)
@workers_option
def sweep(dataset, schema_root, modes, out_dir, cache_path, replay, model, temperature, workers):
    """Compare schema metrics across selection modes on one dataset."""
    if modes.strip().lower() == "all":
        mode_names = list(MODE_PRESETS)
    else:
        mode_names = [_mode_choice(part) for part in modes.split(",") if part.strip()]
    config = RunConfig(
        model=model,
        link_temperature=temperature,
        cache_path=cache_path,
        cache_mode="replay" if replay else "record",
        workers=workers,
    )
    try:
        questions, diagnostics = ingest_dataset(dataset, schema_root, require_gold_sql=True)
        _echo_diagnostics(diagnostics)
        repo = SchemaRepository(schema_root)
        result = run_sweep(questions, config, repo, out_dir, modes=mode_names)
    except (LinkerError, FileNotFoundError, ValueError) as exc:
        _fatal(str(exc))
    for row in result["rows"]:
        click.echo(
            f"{row['mode']} ({MODE_LABELS[row['mode']]}): "
            f"exact_match_rate={row['exact_match_rate']:.4f} recall={row['recall']:.4f} "
            f"f6={row['f6']:.4f}"
        )
    click.echo(f"grid -> {result['grid_csv']}")
    failed = sum(outcome.failed for outcome in result["outcomes"].values())
    if failed:
        click.echo(f"{failed} link row(s) failed; rerun the sweep to retry them")
    sys.exit(2 if failed else 0)


if __name__ == "__main__":
    main()
