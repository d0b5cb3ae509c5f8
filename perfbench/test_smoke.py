"""Smoke test of the benchmark itself, at tiny sizes.

Run from the root of the repository:

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_prints_with_its_unit(workload, trace):
    proc = _bench(
        "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace, "--tiny"
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for metric in expected:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        printed = [
            line.split()
            for line in lines
            if line.startswith(f"{workload} {metric['name']} ")
        ]
        assert len(printed) == 1 and printed[0][-1] == metric["unit"]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_corrupted_phi_is_a_failed_op(name, tmp_path):
    workload = workloads.build(name, tiny=True)
    outputs = workload.outputs

    def corrupted(inputs, result):
        estimates = outputs(inputs, result)
        estimates[0].phi_hat = estimates[0].phi_hat.copy()
        estimates[0].phi_hat[0, 0] += 1e-6  # column no longer sums to 1
        return estimates

    run = workloads.Run()
    workloads.run_op(workload, 1, 0, 5, tmp_path / "work", None, False, 1, run)
    assert (run.attempted, run.failed) == (1, 0)
    workload.outputs = corrupted
    workloads.run_op(workload, 2, 1, 5, tmp_path / "work", None, False, 1, run)
    assert (run.attempted, run.failed) == (2, 1)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_changed_output_on_a_repeated_input_is_a_failed_op(name, tmp_path):
    workload = workloads.build(name, tiny=True)
    outputs = workload.outputs

    def sources_reversed(inputs, result):
        # Still a valid Phi with the same aligned NRMSE, but not the same output.
        estimates = outputs(inputs, result)
        estimates[0].phi_hat = estimates[0].phi_hat[::-1].copy()
        return estimates

    run = workloads.Run()
    workloads.run_op(workload, 1, 0, 5, tmp_path / "work", None, False, 1, run)
    workloads.run_op(workload, 2, 0, 5, tmp_path / "work", None, False, 1, run)
    assert (run.attempted, run.failed) == (2, 0)
    workload.outputs = sources_reversed
    workloads.run_op(workload, 3, 0, 5, tmp_path / "work", None, False, 1, run)
    assert (run.attempted, run.failed) == (3, 1)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out")
    )
    proc = _bench(
        "--workload", "high_dim", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
