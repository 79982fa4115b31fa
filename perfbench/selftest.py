"""The benchmark's own tests, on tiny inputs.

Run from the repository root with ``python3 -m pytest perfbench/selftest.py -q``.
The file is not named ``test_*.py``, so the repository's default test
run does not collect it.
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
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]


def run_bench(workload: str, *extra: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--tiny", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_of(completed: subprocess.CompletedProcess) -> dict:
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_runner():
    sys.path.insert(0, str(HERE))
    try:
        import run
        import workloads
    finally:
        sys.path.remove(str(HERE))
    assert sorted(WORKLOADS) == sorted(workloads.WORKLOADS)
    for section, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in BENCHMARK[section]} == table
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= next(
        m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"
    ).items()


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    completed = run_bench(workload, "--trace", trace)
    result = result_of(completed)
    section = BENCHMARK["end_to_end" if trace == "0" else "per_layer"]
    expected = {metric["name"]: metric["unit"] for metric in section}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    lines = completed.stdout.splitlines()
    for name, unit in expected.items():
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines), name
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert any(line.startswith("error_rate 0.000000 ") for line in lines)
    if trace == "1":
        assert any(line.startswith("trace.overhead_pct ") for line in lines)
        assert any(line.startswith("trace.query_thread_coverage ") for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_dropped_index_counts_as_an_error(workload):
    result = result_of(run_bench(workload, "--trace", "0", "--corrupt"))
    assert result["correct"] is False
    assert result["failed"] == 1


def test_without_library_sources_the_run_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = run_bench(WORKLOADS[0], "--trace", "0", cwd=tmp_path)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
