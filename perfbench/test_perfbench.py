"""Self-test of the benchmark harness.

    python3 -m pytest -q perfbench/test_perfbench.py

Small seeded runs (``--quick``: a small input, one process) of every
workload, untraced and traced, checked against ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hostclock  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(completed: subprocess.CompletedProcess) -> dict:
    assert completed.returncode == 0, completed.stdout + completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def job_work(workload: str, hash_seed: str, trace: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(ROOT / "src"))
    completed = subprocess.run(
        [sys.executable, str(HERE / "job.py"), "--workload", workload,
         "--seed", "3", "--trace", trace, "--quick",
         "--spawned-at", repr(time.monotonic())],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=170,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])["work"]


def test_metric_names_and_units_are_declared():
    declared = SPEC["end_to_end"] + SPEC["per_layer"]
    for metric in declared:
        assert NAME.fullmatch(metric["name"]), metric["name"]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == dict(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == dict(run.PER_LAYER)
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_quick_run_prints_every_end_to_end_metric(workload):
    start = time.monotonic()
    completed = bench("--workload", workload, "--seed", "2", "--seconds", "1",
                      "--trace", "0", "--quick")
    result = result_of(completed)
    assert time.monotonic() - start < 60
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    units = dict(run.END_TO_END)
    assert set(result["metrics"]) == set(units)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert metric["value"] > 0, name
        assert re.search(rf"^  {re.escape(name)} .* {units[name]}$", completed.stdout, re.M)
    assert "failed_frac" in completed.stdout
    assert "host.spin_s" in completed.stdout


#: The layer each workload was chosen to load.
LARGEST_LAYER = {
    "corpus": "symbolic.match_s",
    "corpus-j2": "symbolic.match_s",
    "rcu-theorem2": "executions.enumerate_s",
    "table5": "hardware.opsim_s",
}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_quick_traced_run_prints_every_layer_metric(workload):
    completed = bench("--workload", workload, "--seed", "2", "--seconds", "1",
                      "--trace", "1", "--quick")
    result = result_of(completed)
    assert result["correct"]
    assert f"largest layer: {LARGEST_LAYER[workload]} " in completed.stdout
    units = dict(run.PER_LAYER)
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    layers = {name: m["value"] for name, m in result["metrics"].items()}
    assert layers["unattributed_frac"] < 0.05
    if workload in ("rcu-theorem2", "table5"):
        # The job's correctness gate also checks the prover was never loaded.
        assert layers["symbolic.decide_calls"] == 0
    else:
        assert layers["symbolic.decide_calls"] > 0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_work_counts_repeat_across_runs_tracing_and_hash_seeds(workload):
    works = [job_work(workload, h, t) for h, t in (("0", "0"), ("0", "1"), ("1", "0"))]
    if workload == "corpus-j2":
        # Which worker draws which row (and so which shape-memo misses it
        # pays) is up to the scheduler.
        for work in works:
            work.pop("symbolic.match_calls")
    assert works[0] == works[1] == works[2]
    assert works[0]["rows"] > 0


def test_host_clock_times_slices_while_running():
    clock = hostclock.HostClock()
    clock.start()
    end = time.perf_counter() + 20 * hostclock.PERIOD_S
    while time.perf_counter() < end:
        pass
    clock.stop()
    count = len(clock.samples)
    assert count >= 5
    assert clock.spent == pytest.approx(sum(clock.durations()))
    time.sleep(3 * hostclock.PERIOD_S)
    assert len(clock.samples) == count


def test_slowdown_is_the_median_slice_over_the_reference():
    ref = hostclock.REFERENCE_S
    assert hostclock.slowdown([2 * ref, 1.5 * ref, 9 * ref]) == pytest.approx(2.0)
    assert hostclock.slowdown([]) == 1.0


def test_reference_seconds_leave_out_slices_and_divide_by_slowdown():
    clock = hostclock.HostClock()
    assert clock.reference_seconds(1.0, 2.0) == 1.0
    slice_s = 2 * hostclock.REFERENCE_S
    clock.samples = [(1.0 + 0.1 * i, slice_s) for i in range(20)]
    # Ten slices start inside [1.0, 2.0); the host ran at half speed.
    assert clock.reference_seconds(1.0, 2.0) == pytest.approx((1.0 - 10 * slice_s) / 2)


def test_row_stats_use_each_rows_median():
    times = {f"t{i}": float(i) for i in range(1, 21)}
    doubled = {name: 2 * t for name, t in times.items()}
    p50, tail, percentile, n = run.row_stats(
        [{"row_s": doubled}, {"row_s": times}, {"row_s": times}]
    )
    assert (p50, tail, n) == (10.5, 10.0, 20)
    assert percentile == 50.0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_process_count_does_not_depend_on_job_duration(workload, monkeypatch):
    def processes_started(job_s):
        clock = [0.0]
        started = []

        def fake_process(*args):
            started.append(args)
            clock[0] += job_s
            return {}

        monkeypatch.setattr(run.time, "monotonic", lambda: clock[0])
        monkeypatch.setattr(run, "run_process", fake_process)
        run.run_processes(workload, 1, SPEC["run_seconds"], False, False)
        return len(started)

    fast, slow = processes_started(0.5), processes_started(10.0)
    assert fast == slow == run.process_count(workload, SPEC["run_seconds"], False)
    assert fast >= run.MIN_PROCESSES


def test_fails_without_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = bench("--workload", "corpus", "--seed", "1", "--seconds", "1",
                      "--trace", "0", cwd=tmp_path)
    assert completed.returncode != 0
    assert not completed.stdout.strip()
