"""Smoke test of the benchmark itself: every workload at a tiny size.

Runs ``run.py`` through its command line, once untraced and twice
traced per workload, and checks the result line against BENCHMARK.json.
Takes about a minute.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

from run import ABSENT, ROOT, WORKLOADS

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)

# End-to-end metrics the README names; each is in the result or in ABSENT.
NAMED_END_TO_END = ("setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms", "fail_frac",
                    "peak_rss_mb", "restarts_agree_frac")


def run_benchmark(workload, trace, cwd=ROOT, seed=5):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc


def result_line(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def assert_metrics(result, spec_key):
    expected = {m["name"]: m["unit"] for m in SPEC[spec_key]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_end_to_end(workload):
    result = result_line(run_benchmark(workload, trace=0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"] is True
    assert_metrics(result, "end_to_end")
    for name in NAMED_END_TO_END:
        assert name in result["metrics"] or ABSENT.get(name)
    assert result["metrics"]["ok_frac"]["value"] == 1.0
    for m in result["metrics"].values():
        assert m["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_traced_counts_repeat(workload):
    first = result_line(run_benchmark(workload, trace=1))
    second = result_line(run_benchmark(workload, trace=1))
    assert first["failed"] == 0 and second["failed"] == 0
    assert_metrics(first, "per_layer")
    counts = [name for name, m in first["metrics"].items() if m["unit"] == "count"]
    assert "optimize.evaluations_per_sup" in counts
    for name in counts:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_benchmark("twins", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
