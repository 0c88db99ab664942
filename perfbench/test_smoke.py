"""Smoke test of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest perfbench/test_smoke.py -q

A tiny run of each kind must print every metric BENCHMARK.json names,
with its unit, and end in the result JSON; two runs with the same seed
must agree on the correctness digest; and a directory holding only the
benchmark (no sources) must fail without printing a result.
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
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, *, seed: int = 3, seconds: float = 2, trace: int = 0,
         cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=str(cwd), capture_output=True, text=True, timeout=240,
    )


def _result(completed: subprocess.CompletedProcess) -> dict:
    assert completed.returncode == 0, completed.stderr[-2000:]
    return json.loads(completed.stdout.strip().splitlines()[-1])


def _digest(completed: subprocess.CompletedProcess) -> str:
    lines = [l for l in completed.stdout.splitlines() if l.startswith("correctness_digest ")]
    assert len(lines) == 1
    return lines[0].split()[1]


def _assert_prints(completed: subprocess.CompletedProcess, metrics: list) -> None:
    result = _result(completed)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in metrics}
    printed = completed.stdout.splitlines()
    for metric in metrics:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert any(
            line.startswith(metric["name"] + " ") and line.endswith(" " + metric["unit"])
            for line in printed
        ), metric["name"]
    for line in ("cpus ", "calibration_ms "):
        assert any(line in printed_line for printed_line in printed)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_runs_print_every_metric_and_repeat_the_digest(workload):
    first, second = _run(workload), _run(workload)
    _assert_prints(first, SPEC["end_to_end"])
    _assert_prints(second, SPEC["end_to_end"])
    assert _digest(first) == _digest(second)


@pytest.mark.parametrize("workload", ["daemon-open", "cluster-2pc"])
def test_traced_run_prints_every_layer_metric(workload):
    _assert_prints(_run(workload, trace=1), SPEC["per_layer"])


def test_without_sources_it_fails_and_prints_no_result():
    bare = ROOT / ".perfbench_tmp" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        completed = _run("daemon-open", cwd=bare)
        assert completed.returncode != 0
        assert '"metrics"' not in completed.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass
