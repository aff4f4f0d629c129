"""Tests of the benchmark itself (not part of the repository's tier-1 suite).

Run from the repository root: ``python3 -m pytest -q perfbench``.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"

sys.path.insert(0, str(HERE))
import run as bench  # noqa: E402

WORKLOADS = ("table1", "crossval_hier", "explore_mc3", "periodic_obs")


def invoke(*args, cwd=ROOT, run=RUN):
    proc = subprocess.run([sys.executable, str(run), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    return proc


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_metrics_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(bench.PER_LAYER)


def test_one_command_runs_every_workload_with_all_metrics():
    proc = invoke("--workload", "all", "--seconds", "0.1", "--trace", "0")
    result = last_json(proc)
    assert result["correct"] and result["failed"] == 0
    for workload in WORKLOADS:
        for name, unit in bench.END_TO_END:
            entry = result["metrics"][f"{workload}.{name}"]
            assert entry["unit"] == unit and entry["value"] > 0
    table = proc.stdout
    for name, unit in bench.WORKLOAD_RATIOS:
        assert f" {unit}\n" in table and f"  {name} " in table
    assert table.count("  failed_frac ") == len(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_per_layer_metric(workload):
    result = last_json(invoke("--workload", workload, "--seconds", "0.1",
                              "--trace", "1"))
    assert result["correct"]
    assert list(result["metrics"]) == [name for name, _ in bench.PER_LAYER]
    for name, unit in bench.PER_LAYER:
        assert result["metrics"][name]["unit"] == unit
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["kernel.steps"] > 0 and metrics["kernel.py_calls"] > 0
    assert metrics["bench.trace_overhead_x"] > 0
    trace = HERE / "out" / f"trace-{workload}-seed2003.jsonl"
    header = json.loads(trace.read_text().splitlines()[0])["header"]
    assert header["workload"] == workload and header["engine"]


def corrupt(tmp_path, workload, edit):
    expected = json.loads((HERE / "expected.json").read_text())
    edit(expected[workload])
    path = tmp_path / "expected.json"
    path.write_text(json.dumps(expected))
    return invoke("--workload", workload, "--seconds", "1.5",
                  "--expected", str(path))


def flip_first_verdict(entry):
    first = entry["configs"][0]
    first["schedulable"] = not first["schedulable"]


def add_a_switch(entry):
    entry["outcome"]["switches"] += 1


@pytest.mark.parametrize("workload, edit", [
    ("crossval_hier", flip_first_verdict),
    ("periodic_obs", add_a_switch),
])
def test_corrupted_expected_result_counts_as_failure(tmp_path, workload, edit):
    result = last_json(corrupt(tmp_path, workload, edit))
    assert not result["correct"]
    assert 0 < result["failed"] < result["attempted"]


def test_run_with_every_item_failed_prints_no_result(tmp_path):
    def add_a_decision(entry):
        entry["outcome"]["decisions"] += 1

    proc = corrupt(tmp_path, "explore_mc3", add_a_decision)
    assert proc.returncode != 0
    assert "differs from expected.json" in proc.stderr
    assert '"correct"' not in proc.stdout


def test_call_counts_repeat_exactly():
    env = dict(os.environ, PYTHONHASHSEED="0")
    counts = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, str(RUN), "--counted", "--workload",
             "periodic_obs", "--seed", "5"],
            cwd=ROOT, capture_output=True, text=True, env=env, timeout=300)
        counts.append(last_json(proc))
    assert counts[0] == counts[1]
    assert counts[0]["rtos"] >= counts[0]["rtos.dispatch"] > 0
    assert counts[0]["obs"] > 0


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = invoke("--workload", "table1", "--seconds", "1",
                  cwd=tmp_path, run=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
