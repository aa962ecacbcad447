import shutil

import pytest
from click.testing import CliRunner

from schema_linker import (
    CachingClient,
    RunConfig,
    TranscriptCache,
    __version__,
    run_generation,
)
from schema_linker.cli import main

from conftest import read_rows
from toy_corpus import ScriptedBackend


@pytest.fixture
def runner():
    return CliRunner()


def combined_cache(mode_runs, modes, out_path):
    """Concatenate per-mode transcript caches into one replayable file."""
    with out_path.open("w", encoding="utf-8") as sink:
        for mode in modes:
            sink.write(mode_runs(mode).cache_path.read_text(encoding="utf-8"))
    return out_path


class TestLink:
    def test_replay_run(self, runner, dataset_path, schema_root, mode_runs, tmp_path):
        run = mode_runs("mode7")
        out = tmp_path / "out.jsonl"
        args = [
            "link",
            "--dataset", str(dataset_path),
            "--schemas", str(schema_root),
            "--mode", "mode7",
            "--out", str(out),
            "--cache", str(run.cache_path),
            "--replay",
        ]
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        assert "linked 10 question(s) (0 already present, 0 failed)" in result.output
        rows = read_rows(out)
        assert len(rows) == 10
        assert all(row["error"] is None for row in rows)

        again = runner.invoke(main, args)
        assert again.exit_code == 0
        assert "linked 0 question(s) (10 already present, 0 failed)" in again.output

    def test_mode_aliases_accepted(
        self, runner, dataset_path, schema_root, mode_runs, tmp_path
    ):
        run = mode_runs("mode7")
        result = runner.invoke(
            main,
            [
                "link",
                "--dataset", str(dataset_path),
                "--schemas", str(schema_root),
                "--mode", "force-union",
                "--out", str(tmp_path / "out.jsonl"),
                "--cache", str(run.cache_path),
            ],
        )
        assert result.exit_code == 0, result.output
        rows = read_rows(tmp_path / "out.jsonl")
        assert all(row["mode"] == "mode7" for row in rows)

    def test_failed_rows_exit_with_2(
        self, runner, dataset_path, schema_root, tmp_path
    ):
        result = runner.invoke(
            main,
            [
                "link",
                "--dataset", str(dataset_path),
                "--schemas", str(schema_root),
                "--out", str(tmp_path / "out.jsonl"),
                "--cache", str(tmp_path / "empty_cache.jsonl"),
                "--replay",
            ],
        )
        assert result.exit_code == 2
        assert "10 failed" in result.output

    def test_missing_dataset_is_fatal(self, runner, schema_root, tmp_path):
        result = runner.invoke(
            main,
            [
                "link",
                "--dataset", str(tmp_path / "nope.json"),
                "--schemas", str(schema_root),
                "--out", str(tmp_path / "out.jsonl"),
                "--cache", str(tmp_path / "cache.jsonl"),
            ],
        )
        assert result.exit_code == 1
        assert result.stderr.startswith("error:")
        assert "nope.json" in result.stderr

    def test_unknown_mode_is_a_usage_error(
        self, runner, dataset_path, schema_root, tmp_path
    ):
        result = runner.invoke(
            main,
            [
                "link",
                "--dataset", str(dataset_path),
                "--schemas", str(schema_root),
                "--mode", "mode99",
                "--out", str(tmp_path / "out.jsonl"),
                "--cache", str(tmp_path / "cache.jsonl"),
            ],
        )
        assert result.exit_code == 2
        assert "mode99" in result.stderr

    @pytest.mark.parametrize("command", ["link", "generate", "sweep"])
    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_is_a_usage_error(
        self, runner, dataset_path, schema_root, tmp_path, command, workers
    ):
        out = tmp_path / "out"
        inputs = ["--dataset", str(dataset_path), "--schemas", str(schema_root)]
        args = {
            "link": [*inputs, "--out", str(out)],
            "generate": ["--in", str(tmp_path / "link.jsonl"), "--out", str(out)],
            "sweep": [*inputs, "--out-dir", str(out)],
        }[command]
        result = runner.invoke(
            main,
            [command, *args, "--cache", str(tmp_path / "cache.jsonl"), "--workers", workers],
        )
        assert result.exit_code == 2
        assert "--workers" in result.stderr
        assert not out.exists()


class TestGenerate:
    def test_replay_generation(self, runner, golden_pipeline, tmp_path):
        link_copy = tmp_path / "link.jsonl"
        shutil.copyfile(golden_pipeline.link_path, link_copy)
        result = runner.invoke(
            main,
            [
                "generate",
                "--in", str(link_copy),
                "--cache", str(golden_pipeline.cache_path),
                "--replay",
            ],
        )
        assert result.exit_code == 0, result.output
        assert "generated SQL for 10 question(s)" in result.output
        rows = read_rows(tmp_path / "link_generated.jsonl")
        assert len(rows) == 10
        assert all(row["predicted_sql"] for row in rows)

    def test_baseline_reads_the_schema_root(
        self, runner, golden_pipeline, repo, schema_root, tmp_path
    ):
        cache_path = tmp_path / "cache.jsonl"
        record = RunConfig(cache_path=cache_path, cache_mode="record", baseline=True)
        client = CachingClient(
            TranscriptCache(cache_path), backend=ScriptedBackend(), mode="record"
        )
        run_generation(
            golden_pipeline.link_path,
            record,
            client=client,
            out_path=tmp_path / "recorded.jsonl",
            repo=repo,
        )
        args = [
            "generate",
            "--in", str(golden_pipeline.link_path),
            "--out", str(tmp_path / "replayed.jsonl"),
            "--cache", str(cache_path),
            "--baseline",
        ]
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert "--baseline needs --schemas" in result.stderr
        result = runner.invoke(main, args + ["--schemas", str(schema_root)])
        assert result.exit_code == 0, result.output
        assert "generated SQL for 10 question(s) (0 already present, 0 failed)" in result.output

    def test_missing_input_is_fatal(self, runner, tmp_path):
        result = runner.invoke(
            main,
            [
                "generate",
                "--in", str(tmp_path / "nope.jsonl"),
                "--cache", str(tmp_path / "cache.jsonl"),
            ],
        )
        assert result.exit_code == 1
        assert result.stderr.startswith("error:")


class TestEvaluate:
    def test_schema_report(
        self, runner, dataset_path, schema_root, golden_pipeline, tmp_path
    ):
        result = runner.invoke(
            main,
            [
                "evaluate",
                "--in", str(golden_pipeline.gen_path),
                "--dataset", str(dataset_path),
                "--schemas", str(schema_root),
                "--report-dir", str(tmp_path),
            ],
        )
        assert result.exit_code == 0, result.output
        assert "evaluated 10 question(s)" in result.output
        assert "exact_match_rate=0.9000" in result.output
        assert "recall=1.0000" in result.output
        assert "execution_accuracy" not in result.output
        assert (tmp_path / "summary.json").is_file()
        assert (tmp_path / "per_question.csv").is_file()

    def test_execution_report(
        self, runner, dataset_path, schema_root, golden_pipeline, tmp_path
    ):
        result = runner.invoke(
            main,
            [
                "evaluate",
                "--in", str(golden_pipeline.gen_path),
                "--dataset", str(dataset_path),
                "--schemas", str(schema_root),
                "--exec",
                "--report-dir", str(tmp_path),
            ],
        )
        assert result.exit_code == 0, result.output
        assert "execution_accuracy=1.0000 over 10 question(s)" in result.output

    def test_unreadable_run_output_is_fatal(
        self, runner, dataset_path, schema_root, tmp_path
    ):
        result = runner.invoke(
            main,
            [
                "evaluate",
                "--in", str(tmp_path / "nope.jsonl"),
                "--dataset", str(dataset_path),
                "--schemas", str(schema_root),
                "--report-dir", str(tmp_path / "report"),
            ],
        )
        assert result.exit_code == 1
        assert result.stderr.startswith("error:")


class TestMalformedRecords:
    """A line that parses but is not the record its reader needs is a clean fatal error."""

    @pytest.mark.parametrize(
        "line, message",
        [("[1, 2]", "run output is not a JSON object"), ('{"db_id": "retail"}', "'question_id'")],
    )
    @pytest.mark.parametrize("command", ["evaluate", "generate"])
    def test_run_output(
        self, runner, golden_pipeline, dataset_path, schema_root, tmp_path, command, line, message
    ):
        lines = golden_pipeline.link_path.read_text(encoding="utf-8").splitlines(True)
        bad = tmp_path / "link.jsonl"
        bad.write_text(lines[0] + line + "\n" + lines[1], encoding="utf-8")
        if command == "evaluate":
            args = ["--dataset", str(dataset_path), "--schemas", str(schema_root)]
            args += ["--report-dir", str(tmp_path / "report")]
        else:
            args = ["--cache", str(golden_pipeline.cache_path)]
        result = runner.invoke(main, [command, "--in", str(bad), *args])
        assert result.exit_code == 1
        assert result.stderr.startswith(f"error: {bad}:2: ")
        assert message in result.stderr

    @pytest.mark.parametrize("line", ['{"reply": "pong"}', '{"digest": "d1"}', '"pong"'])
    def test_cache_line(self, runner, dataset_path, schema_root, tmp_path, line):
        cache = tmp_path / "cache.jsonl"
        cache.write_text(line + "\n", encoding="utf-8")
        args = ["--dataset", str(dataset_path), "--schemas", str(schema_root)]
        args += ["--out", str(tmp_path / "out.jsonl"), "--cache", str(cache)]
        result = runner.invoke(main, ["link", *args])
        assert result.exit_code == 1
        assert result.stderr.startswith(f"error: {cache}:1: cache line ")


class TestSweep:
    def test_full_sweep_replay(
        self, runner, dataset_path, schema_root, mode_runs, tmp_path
    ):
        modes = [f"mode{i}" for i in range(1, 8)]
        cache = combined_cache(mode_runs, modes, tmp_path / "cache.jsonl")
        out_dir = tmp_path / "sweep"
        result = runner.invoke(
            main,
            [
                "sweep",
                "--dataset", str(dataset_path),
                "--schemas", str(schema_root),
                "--modes", "all",
                "--out-dir", str(out_dir),
                "--cache", str(cache),
                "--replay",
            ],
        )
        assert result.exit_code == 0, result.output
        assert "mode7 (force-union): exact_match_rate=0.9000" in result.output
        assert "mode5 (force-longest): exact_match_rate=1.0000" in result.output
        assert "grid -> " in result.output
        grid_lines = (out_dir / "grid.csv").read_text(encoding="utf-8").splitlines()
        assert len(grid_lines) == 8
        for mode in modes:
            assert (out_dir / f"link_{mode}.jsonl").is_file()
            assert (out_dir / mode / "summary.json").is_file()

    def test_subset_sweep(
        self, runner, dataset_path, schema_root, mode_runs, tmp_path
    ):
        cache = combined_cache(
            mode_runs, ["mode1", "mode7"], tmp_path / "cache.jsonl"
        )
        result = runner.invoke(
            main,
            [
                "sweep",
                "--dataset", str(dataset_path),
                "--schemas", str(schema_root),
                "--modes", "1-1,force-union",
                "--out-dir", str(tmp_path / "sweep"),
                "--cache", str(cache),
            ],
        )
        assert result.exit_code == 0, result.output
        grid_lines = (
            (tmp_path / "sweep" / "grid.csv").read_text(encoding="utf-8").splitlines()
        )
        assert len(grid_lines) == 3
        assert grid_lines[1].startswith("mode1,1-1,10,")
        assert grid_lines[2].startswith("mode7,force-union,10,")

    def test_duplicate_modes_run_once(
        self, runner, dataset_path, schema_root, mode_runs, tmp_path
    ):
        result = runner.invoke(
            main,
            [
                "sweep",
                "--dataset", str(dataset_path),
                "--schemas", str(schema_root),
                "--modes", "mode7,force-union",
                "--out-dir", str(tmp_path / "sweep"),
                "--cache", str(mode_runs("mode7").cache_path),
            ],
        )
        assert result.exit_code == 0, result.output
        assert result.output.count("mode7 (force-union)") == 1
        grid_lines = (
            (tmp_path / "sweep" / "grid.csv").read_text(encoding="utf-8").splitlines()
        )
        assert len(grid_lines) == 2
        assert len(read_rows(tmp_path / "sweep" / "link_mode7.jsonl")) == 10

    def test_failed_rows_exit_with_2(
        self, runner, dataset_path, schema_root, tmp_path
    ):
        result = runner.invoke(
            main,
            [
                "sweep",
                "--dataset", str(dataset_path),
                "--schemas", str(schema_root),
                "--modes", "mode1,mode7",
                "--out-dir", str(tmp_path / "sweep"),
                "--cache", str(tmp_path / "empty_cache.jsonl"),
                "--replay",
            ],
        )
        assert result.exit_code == 2
        assert "20 link row(s) failed" in result.output
        assert "grid -> " in result.output

    def test_empty_mode_list_is_fatal(
        self, runner, dataset_path, schema_root, mode_runs, tmp_path
    ):
        result = runner.invoke(
            main,
            [
                "sweep",
                "--dataset", str(dataset_path),
                "--schemas", str(schema_root),
                "--modes", " , ",
                "--out-dir", str(tmp_path / "sweep"),
                "--cache", str(mode_runs("mode7").cache_path),
            ],
        )
        assert result.exit_code == 1
        assert result.stderr == "error: no modes given\n"
        assert not (tmp_path / "sweep").exists()


class TestTopLevel:
    def test_help_lists_commands(self, runner):
        result = runner.invoke(main, ["--help"])
        assert result.exit_code == 0
        for command in ("link", "generate", "evaluate", "sweep"):
            assert command in result.output

    def test_version(self, runner):
        result = runner.invoke(main, ["--version"])
        assert result.exit_code == 0
        assert result.output == f"schema-linker, version {__version__}\n"
