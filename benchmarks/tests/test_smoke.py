"""Smoke test: every workload at its smallest corpus, untraced and traced.

Run from the repository root with ``python -m pytest benchmarks/tests``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    command = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "7"]
    command += ["--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_workload_prints_every_metric(workload: str, trace: int, section: str) -> None:
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {metric["name"]: metric["unit"] for metric in BENCHMARK[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected


def test_fails_without_the_package(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks")
    proc = _run(tmp_path, BENCHMARK["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
