"""Smoke test of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py

Runs every workload for the shortest time the benchmark accepts (one
second, which still completes one run_benchmark call), once untraced and
once traced.  Checks that every metric BENCHMARK.json names is printed with
its unit and that no cell failed.  The tier-1 suite does not collect this
file; it takes a few minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def result_of(child):
    assert child.returncode == 0, child.stdout + child.stderr
    return json.loads(child.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_unit(workload, trace):
    child = run_bench("--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace))
    result = result_of(child)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert any(
        line.split()[:3] == ["failed_ratio", "0", "ratio"] for line in child.stdout.splitlines()
    ), child.stdout
    assert "environment: blas_threads=" in child.stdout


def test_traced_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        result = result_of(run_bench("--workload", "null_all", "--seconds", "1", "--trace", "1"))
        counts.append({
            name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] in ("count", "flop", "B")
        })
    assert counts[0] == counts[1]
    assert counts[0]["scoring.katz.calls_per_run"] == 2
    assert counts[0]["scoring.katz.radius_evals"] > 0


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
    child = run_bench("--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert child.returncode != 0
    assert not child.stdout.strip().endswith("}")
