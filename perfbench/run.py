"""Cold-process benchmark of the verdict jobs.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  Each job runs in a fresh process
(``job.py``), one after another; a run starts a fixed number of them,
sized so that they fill about ``--seconds``.  Every process of a run does
the same work in the same order.  An untraced process reports its times
in reference seconds: seconds as measured, over how much slower than
full speed the host ran a reference loop timed inside the job
(``hostclock.py``).  The run reports each time (``setup_s``, ``wall_s``,
``cpu_s`` and each row's time) and ``peak_rss_mb`` as their median over
the processes.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
alternates untraced and traced processes and prints the per-layer
metrics (in seconds as measured: a traced process times no reference
loop).  The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
only when every checked cell of every process was right.  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
WORKLOADS = ("corpus", "corpus-j2", "rcu-theorem2", "table5")
#: What a checkout must hold for the jobs to run.
REQUIRED = (Path("src/repro/__init__.py"), Path("tests/data/golden_corpus.jsonl"))

#: Seconds one process of each workload takes, from spawn to exit, at
#: the commit that added the benchmark: midway between the fast and the
#: slow phases of the host described in ``README.md``.
NOMINAL_S = {"corpus": 6.5, "corpus-j2": 2.5, "rcu-theorem2": 4.5, "table5": 4.5}
#: A run's processes are sized to fill this share of ``--seconds`` at
#: nominal speed; the rest is head-room for a slow phase.
FILL = 0.9
MIN_PROCESSES = 3
PROCESS_TIMEOUT_S = 40.0
#: No process starts after this many seconds (the run must end in 180).
LAST_START_S = 120.0

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("verdict_p50_ms", "ms"),
    ("verdict_tail_ms", "ms"),
)
PER_LAYER = (
    ("symbolic.decide_s", "s"),
    ("symbolic.decide_calls", "count"),
    ("symbolic.match_s", "s"),
    ("symbolic.match_calls", "count"),
    ("symbolic.witness_s", "s"),
    ("symbolic.skeleton_s", "s"),
    ("symbolic.footprint_s", "s"),
    ("symbolic.self_s", "s"),
    ("symbolic.decided_frac", "ratio"),
    ("symbolic.witness_frac", "ratio"),
    ("executions.enumerate_s", "s"),
    ("executions.candidates", "count"),
    ("executions.trace_combos", "count"),
    ("model.check_s", "s"),
    ("model.check_calls", "count"),
    ("model.allowed_frac", "ratio"),
    ("herd.self_s", "s"),
    ("hardware.opsim_s", "s"),
    ("hardware.opsim_runs", "count"),
    ("hardware.compile_s", "s"),
    ("hardware.compile_calls", "count"),
    ("rcu.inline_s", "s"),
    ("litmus.parse_s", "s"),
    ("cat.load_s", "s"),
    ("corpus.self_s", "s"),
    ("parallel.self_s", "s"),
    ("parallel.parent_cpu_s", "s"),
    ("parallel.worker_cpu_s", "s"),
    ("parallel.busy_frac", "ratio"),
    ("unattributed_frac", "ratio"),
    ("trace_overhead_frac", "ratio"),
    ("host.spin_s", "s"),
)
#: Self times that partition a traced job; the largest names the layer
#: that does most of a workload's work.  Matching is split out of the
#: symbolic layer because it is the prover's candidate for optimisation.
LAYER_SELF_TIMES = (
    "symbolic.match_s",
    "executions.enumerate_s",
    "model.check_s",
    "herd.self_s",
    "hardware.opsim_s",
    "hardware.compile_s",
    "rcu.inline_s",
    "corpus.self_s",
    "parallel.self_s",
)


def host_spin() -> float:
    """Time a fixed pure-Python loop: a diagnostic of host speed only."""
    start = time.perf_counter()
    total = 0
    for i in range(2_000_000):
        total += i * i % 7
    return time.perf_counter() - start


class ProcessFailed(RuntimeError):
    """A job process crashed, timed out or printed no result."""


def run_process(workload: str, seed: int, trace: bool, quick: bool) -> Dict:
    """Run one job in a fresh process and return its result object."""
    # The hash seed follows the run's seed, so every process of a run
    # iterates its sets and dicts in the same order: the same work.
    env = dict(os.environ, PYTHONHASHSEED=str(seed % 2**32))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(Path("src").resolve()), env.get("PYTHONPATH")))
    )
    command = [
        sys.executable, str(HERE / "job.py"),
        "--workload", workload, "--seed", str(seed),
        "--trace", str(int(trace)),
    ] + (["--quick"] if quick else [])
    command += ["--spawned-at", repr(time.monotonic())]
    # A session of its own, so a timeout kills the job's pool workers too.
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, env=env, start_new_session=True
    )
    try:
        stdout, _ = process.communicate(timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise ProcessFailed(f"{workload} job timed out after {PROCESS_TIMEOUT_S}s")
    lines = stdout.decode().strip().splitlines()
    if process.returncode != 0 or not lines:
        raise ProcessFailed(f"{workload} job exited with {process.returncode}")
    return json.loads(lines[-1])


def process_count(workload: str, seconds: float, quick: bool) -> int:
    """How many processes a run starts.

    Set by ``--seconds`` and the workload alone, never by how fast the
    job runs, so parent and change take their estimates over the same
    number of processes.
    """
    if quick:
        return 1
    return max(MIN_PROCESSES, round(FILL * seconds / NOMINAL_S[workload]))


def run_processes(
    workload: str, seed: int, seconds: float, trace: bool, quick: bool
) -> Tuple[List[Dict], List[Dict]]:
    """Untraced (and, with ``trace``, as many traced) results of one run.

    A traced run alternates untraced and traced processes, half as many
    of each.  Only a host several times slower than ``NOMINAL_S`` reaches
    ``LAST_START_S``; the run then ends early, and says so.
    """
    count = process_count(workload, seconds, quick)
    if trace:
        count = max(1, count // 2)
    start = time.monotonic()
    untraced: List[Dict] = []
    traced: List[Dict] = []
    while len(untraced) < count:
        if untraced and time.monotonic() - start > LAST_START_S:
            print(f"perfbench: run cut at {len(untraced)} of {count} processes "
                  f"after {LAST_START_S:.0f}s", file=sys.stderr)
            break
        untraced.append(run_process(workload, seed, False, quick))
        if trace:
            traced.append(run_process(workload, seed, True, quick))
    return untraced, traced


def row_stats(results: List[Dict]) -> Tuple[float, float, float, int]:
    """Median row time, tail row time, the tail's percentile, row count.

    A row's time is the median of its times across the processes (a
    process that raised part-way times fewer rows; its run fails the
    correctness gate).  The tail is the highest percentile with at least
    ten rows beyond it (the slowest row when there are ten or fewer).
    """
    names = set.intersection(*(set(r["row_s"]) for r in results))
    rows = sorted(statistics.median(r["row_s"][name] for r in results) for name in names)
    n = len(rows)
    index = n - 11 if n > 10 else n - 1
    return statistics.median(rows), rows[index], 100.0 * (index + 1) / n, n


def summarise(workload: str, seed: int, trace: bool, quick: bool, seconds: float) -> int:
    spin = host_spin()
    began = time.monotonic()
    untraced, traced = run_processes(workload, seed, seconds, trace, quick)
    everything = untraced + traced
    attempted = sum(result["cells"] for result in everything)
    failed = sum(len(result["failures"]) for result in everything)
    median = lambda key, results=untraced: statistics.median(r[key] for r in results)

    print(
        f"perfbench {workload}: seed {seed}, trace {int(trace)}, "
        f"{len(untraced)} untraced + {len(traced)} traced processes "
        f"in {time.monotonic() - began:.1f}s"
    )
    print(f"host.spin_s {spin:.4f} s")
    works = {json.dumps(result["work"], sort_keys=True) for result in everything}
    for work in sorted(works):
        print(f"work {work}")
    for result in untraced:
        print("process " + json.dumps({
            key: result[key] for key in ("setup_s", "wall_s", "cpu_s", "raw", "slowdown")
        }))
    for result in everything:
        for failure in result["failures"][:10]:
            print(f"FAILED {failure}")

    p50, tail, percentile, rows = row_stats(untraced)
    end_to_end = {
        name: median(name) for name in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")
    }
    end_to_end.update({
        "verdict_p50_ms": p50 * 1e3,
        "verdict_tail_ms": tail * 1e3,
    })
    units = dict(END_TO_END)
    for name, value in end_to_end.items():
        print(f"  {name:<24} {value:12.4f} {units[name]}")
    print(f"  {'':<24} tail at p{percentile:.1f} of {rows} rows")
    print(f"  {'failed_frac':<24} {failed / max(attempted, 1):12.4f} ratio "
          f"({failed} of {attempted} cells)")

    if trace:
        metrics = {
            name: median(name, [r["layers"] for r in traced])
            for name, _ in PER_LAYER[:-2]
        }
        raw_wall = lambda results: statistics.median(r["raw"]["wall_s"] for r in results)
        metrics["trace_overhead_frac"] = raw_wall(traced) / raw_wall(untraced) - 1
        metrics["host.spin_s"] = spin
        for name, unit in PER_LAYER:
            print(f"  {name:<24} {metrics[name]:12.4f} {unit}")
        largest = max(LAYER_SELF_TIMES, key=metrics.__getitem__)
        share = metrics[largest] / median("wall_s", traced)
        print(f"largest layer: {largest} ({share:.1%} of traced wall_s); "
              f"unattributed {metrics['unattributed_frac']:.2%}")
        units = dict(PER_LAYER)
    else:
        metrics = end_to_end

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0 if failed == 0 else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick", action="store_true",
        help="a small input and one process: a smoke test, not a measurement",
    )
    args = parser.parse_args(argv)

    missing = [str(path) for path in REQUIRED if not path.is_file()]
    if missing:
        print(f"perfbench: run from a checkout root; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    # Byte-compile once, outside any measured process.
    compileall.compile_dir("src", quiet=1)

    status = 0
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        try:
            code = summarise(workload, args.seed, bool(args.trace), args.quick, args.seconds)
        except ProcessFailed as error:
            print(f"perfbench: {error}", file=sys.stderr)
            return 2
        status = max(status, code)
    return status


if __name__ == "__main__":
    sys.exit(main())
