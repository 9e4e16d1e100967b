"""Smoke test of the benchmark itself, at minimal run length.

    python3 -m pytest perfbench/smoke.py -q

It runs every workload untraced and traced for one second, checks that
each metric ``BENCHMARK.json`` names is printed with its unit and that the
outputs verified, checks that a deliberately wrong output is counted as a
failure, checks that the host clock's helper process is reaped, and
checks that the benchmark refuses to run without the program's source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.clock import HostClock
from perfbench.run import ROOT, WORKLOADS, run

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    done = _bench(
        "--workload", workload, "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {entry["name"] for entry in wanted}
    for entry in wanted:
        metric = result["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"]
        assert isinstance(metric["value"], (int, float))
        if not trace:
            assert metric["value"] > 0, entry["name"]
    record = json.loads(lines[-2])["provenance"]
    for key in ("source_sha256", "git_sha", "nproc", "python", "seed", "config", "seconds"):
        assert key in record
    assert record["seed"] == SEED and record["workload"] == workload
    if not trace:
        assert record["host_clock"]["reference_seconds"] > 0
        assert set(record["extra"]["raw"]) >= {"setup_s", "ops_per_s", "latency_p50_ms"}
        assert all(slowdown > 0 for slowdown in record["extra"]["host_slowdown"])
    if trace and workload in ("bulk", "single"):
        assert record["extra"]["leg_sum_within_tolerance"], record["extra"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_wrong_output_counts_as_failed(workload):
    result, _ = run(workload, SEED, 0.5, trace=False, corrupt=1)
    assert result["failed"] >= 1
    assert result["correct"] is False


def test_host_clock_reaps_its_helper():
    with HostClock(worker_cpu=True) as clock:
        helper = clock._helper
        assert clock.section() > 0
    assert len(clock.samples) == 2
    if helper is not None:  # only with a second CPU
        assert helper.poll() is not None


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    done = _bench("--workload", "bulk", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
