"""The benchmark's own test, on its tiny input sizes.

    python -m pytest perfbench/check_bench.py

Every workload runs once untraced and twice traced; the result line must
follow BENCHMARK.json and the exact counters must repeat between the two
traced runs.  A copy holding only BENCHMARK.json and perfbench/ must refuse
to run.  The file name keeps it out of the default test collection.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

#: counters that must be non-zero where the workload enters their layer
ENTERED = {
    "paper_sweep": ["dataio.bytes_parsed", "filtering.steps", "channel.packets_lost",
                    "simrunner.scenarios"],
    "identify_grid": ["dataio.bytes_parsed", "sysid.candidates"],
    "trace_io": ["dataio.bytes_parsed", "dataio.bytes_written", "filtering.steps",
                 "channel.packets_lost", "simrunner.scenarios"],
}


def bench(workload, trace, root=ROOT, seed=7):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=300,
    )
    return proc, proc.stdout.strip().splitlines()


def result_of(workload, trace):
    proc, lines = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, lines
    assert result["attempted"] >= 1
    return result


def check_metrics(result, declared):
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run(workload):
    result = result_of(workload, 0)
    check_metrics(result, BENCH["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    first, second = result_of(workload, 1), result_of(workload, 1)
    check_metrics(first, BENCH["per_layer"])
    for name in tracer.EXACT_COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    for name in ENTERED[workload]:
        assert first["metrics"][name]["value"] > 0, name


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, lines = bench(WORKLOADS[0], 0, root=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)
