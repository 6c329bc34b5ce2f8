"""The benchmark end to end in short mode, and its fixed form."""

import json
import shutil
import subprocess
import sys
from math import factorial, prod
from pathlib import Path

import pytest

import oracles
import spans

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_short_run_checks_everything_and_reports_every_metric(workload, trace):
    proc = run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--short")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] > 0 and result["failed"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_spec_lists_the_metrics_the_benchmark_reports():
    assert [m["name"] for m in SPEC["per_layer"]] == spans.metric_names()
    assert [m["name"] for m in SPEC["end_to_end"]] == ["setup_s", "wall_s", "cpu_s", "peak_rss_mb"]


def test_traced_run_counts_work_by_closed_forms():
    proc = run(ROOT, "--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "1", "--short")
    metrics = {name: entry["value"] for name, entry in json.loads(proc.stdout.splitlines()[-1])["metrics"].items()}
    # short verify: main-theorem and square at n = 3, 4 and solomon at n = 2, 3,
    # each job in its own process, so S_n is enumerated once per job
    assert metrics["descent.descent_classes.perms"] == 2 * (6 + 24) + 2 + 6
    # solomon convolves xi_a with xi_b for all a, b; xi_a has n!/a! terms
    sizes = {n: sum(factorial(n) // prod(map(factorial, a)) for a in oracles.compositions(n)) for n in (2, 3)}
    assert metrics["descent.convolve.terms"] == sizes[2] ** 2 + sizes[3] ** 2
    assert metrics["verification.run_suite.self_s"] > 0


def test_without_the_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = run(tmp_path, "--workload", "convert", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
