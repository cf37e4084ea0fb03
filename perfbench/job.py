"""One cold benchmark job, run in a fresh process by ``run.py``.

    python3 perfbench/job.py --workload corpus --seed 1 --spawned-at <t>

Set-up (imports, input loading, ``load_model`` for the workload's models)
runs first; the job itself is then timed, its outputs checked, and one
JSON object with the measurements is printed as the last line.
``--spawned-at`` is the parent's ``time.monotonic()`` just before it
started this process, so ``setup_s`` covers interpreter start-up too.

Each row (one corpus test, RCU check or Table 5 cell) is timed too.
Untraced, the layers' entry points only count work (no clock), and the
job times host-speed reference slices as it runs (``hostclock.py``):
``setup_s``, ``wall_s``, ``cpu_s`` and the row times are reference
seconds, the ``raw`` entry the seconds as measured.  ``--trace 1``
runs no slices, rebinds the entry points to timed wrappers
(``tracer.py``), adds per-layer metrics and writes the spans to
``.perfbench/<workload>.spans.jsonl``.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import random
import resource
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional

import hostclock
import tracer as tracing

CORPUS_PATH = Path("tests/data/golden_corpus.jsonl")
SPANS_DIR = Path(".perfbench")

#: Every ``CORPUS_STRIDE``-th golden-corpus row is swept; the seed only
#: orders them, so every seed does the same work.
CORPUS_STRIDE = 10
#: ``corpus-j2`` sweeps a smaller share.  Its time is set by both vCPUs
#: at once and spreads more between processes; a shorter job lets a run
#: hold about twice as many.
CORPUS_J2_STRIDE = 20
QUICK_CORPUS_STRIDE = 50
#: Simulated runs per Table 5 cell (the paper's table uses 4000).
KLITMUS_RUNS = 500
QUICK_KLITMUS_RUNS = 50
#: This process's reference slices (pool workers fork a copy).
CLOCK = hostclock.HostClock()
RCU_TESTS = ("RCU-MP", "RCU-deferred-free")

#: Cells Table 5 reports as non-zero observations.  At a few hundred runs
#: per cell some stay unobserved, so they are a coverage count, not a check.
PAPER_NONZERO = frozenset({
    ("WRC", "Power8"), ("WRC", "ARMv8"),
    ("SB", "Power8"), ("SB", "ARMv8"), ("SB", "ARMv7"), ("SB", "x86"),
    ("MP", "Power8"), ("MP", "ARMv8"), ("MP", "ARMv7"),
    ("PeterZ-No-Synchro", "Power8"), ("PeterZ-No-Synchro", "ARMv8"),
    ("PeterZ-No-Synchro", "ARMv7"), ("PeterZ-No-Synchro", "x86"),
    ("RWC", "Power8"), ("RWC", "ARMv8"), ("RWC", "ARMv7"), ("RWC", "x86"),
})


class Outcome:
    """Checked cells, row times and work counts of one job."""

    def __init__(self) -> None:
        self.cells = 0
        self.failures: List[str] = []
        #: Row name -> reference s: the units ``verdict_p50_ms`` is taken
        #: over.  A serial row's (start, end) is kept until the job ends.
        self.row_s: Dict[str, float] = {}
        self.row_spans: Dict[str, tuple] = {}
        self.work: Dict[str, object] = {}
        #: Spans and counts, and reference slices, shipped back by pool workers.
        self.worker_traces: List[dict] = []
        self.worker_slices: List[float] = []

    @contextmanager
    def row(self, name: str):
        """Time one row of a serial job."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.row_spans[name] = (start, time.perf_counter())

    def check(self, ok: bool, what: str) -> None:
        self.cells += 1
        if not ok:
            self.failures.append(what)

    def check_row(self, name: str, locked: Dict[str, str], row: Dict[str, str]) -> None:
        for model, expected in sorted(locked.items()):
            actual = row.get(model)
            self.check(actual == expected, f"{name}: {model} {expected} -> {actual}")


# -- corpus and corpus-j2 ------------------------------------------------------


def setup_corpus(seed: int, quick: bool, stride: int = CORPUS_STRIDE):
    from repro.corpus import golden, sweep

    stride = QUICK_CORPUS_STRIDE if quick else stride
    entries = golden.load_golden(CORPUS_PATH)[::stride]
    random.Random(seed).shuffle(entries)
    for spec in sweep.CORPUS_MODELS:
        sweep._model(spec.key)
    return entries


def run_corpus(entries, seed: int, out: Outcome, tracer) -> None:
    from repro.corpus import sweep

    for test, locked in entries:
        with out.row(test.name):
            try:
                row = sweep.sweep_row(test.program)
            except Exception:
                traceback.print_exc()
                row = {}
        out.check_row(test.name, locked, row)
    out.work["rows"] = len(entries)


#: Set in the parent before the pool forks its workers: the original row
#: task and the tracer.  ``timed_sweep_task`` must be a module-level
#: function so the pool can pickle it by name.
_ROW_TASK: Dict[str, object] = {}


def timed_sweep_task(payload):
    """Worker side: the row task, its reference seconds, the worker's
    spans and counts, and the time of each reference slice it timed."""
    tracer = _ROW_TASK["tracer"]
    if tracer.pid != os.getpid():
        tracer.reset()  # a fresh fork: drop the parent's spans and counts
    if not tracer.timed:
        CLOCK.start()
    start = time.perf_counter()
    try:
        name, row = _ROW_TASK["task"](payload)
    finally:
        CLOCK.stop()
    elapsed = CLOCK.reference_seconds(start, time.perf_counter())
    return name, row, elapsed, tracer.drain(), CLOCK.durations()


def run_corpus_j2(entries, seed: int, out: Outcome, tracer) -> None:
    from repro.corpus import sweep
    from repro.kernel import parallel

    # The parent only waits on the pool: its slices would share a vCPU
    # with a busy worker.  The workers time slices of their own instead.
    CLOCK.stop()
    _ROW_TASK.update(task=sweep._sweep_task, tracer=tracer)
    sweep._sweep_task = timed_sweep_task
    pool_map = parallel.fault_tolerant_map

    def capturing_map(*args, **kwargs):
        results = pool_map(*args, **kwargs)
        for outcome in results:
            if outcome is not None:
                out.row_s[outcome[0]] = outcome[2]
                out.worker_traces.append(outcome[3])
                out.worker_slices.extend(outcome[4])
        return results

    parallel.fault_tolerant_map = capturing_map
    try:
        result = sweep.sweep_corpus([test for test, _ in entries], jobs=2)
    finally:
        parallel.shutdown_pools()  # reap the workers so their rusage counts
    for test, locked in entries:
        out.check_row(test.name, locked, result.matrix.get(test.name, {}))
    out.work["rows"] = len(entries)


# -- rcu-theorem2 --------------------------------------------------------------


def setup_rcu(seed: int, quick: bool):
    from repro.litmus import library
    from repro.lkmm import LinuxKernelModel

    return {name: library.get(name) for name in RCU_TESTS}, LinuxKernelModel()


def run_rcu(ctx, seed: int, out: Outcome, tracer) -> None:
    from repro import herd
    from repro.rcu import implementation

    programs, model = ctx
    for name in RCU_TESTS:
        with out.row(name):
            report = implementation.verify_implementation(
                programs[name], loop_bound=1, model=model
            )
        out.check(report.holds, report.describe())
        if name == "RCU-MP":
            out.check(
                report.impl_outcomes == report.spec_outcomes,
                f"{name}: implementation misses specification outcomes",
            )
        out.work[f"{name}.outcomes"] = len(report.impl_outcomes)
        out.work[f"{name}.impl_allowed"] = report.impl_allowed
    with out.row("RCU-MP@2"):
        inlined = implementation.inline_rcu(programs["RCU-MP"], loop_bound=2)
        result = herd.run_litmus(model, inlined, require_sc_per_location=True)
    out.check(result.verdict == "Forbid", f"bound 2: {result.describe()}")
    out.check(result.allowed > 0, f"bound 2 is vacuous: {result.describe()}")
    out.work["rows"] = len(RCU_TESTS) + 1
    out.work["bound2.candidates"] = result.candidates


# -- table5 --------------------------------------------------------------------


def setup_table5(seed: int, quick: bool):
    from repro.cat import eval as cat_eval
    from repro.litmus import library
    from repro.lkmm import LinuxKernelModel

    programs = [(name, library.get(name)) for name in library.TABLE5]
    runs = QUICK_KLITMUS_RUNS if quick else KLITMUS_RUNS
    return programs, LinuxKernelModel(), cat_eval.load_model("c11"), runs


def _histogram_bytes(histogram) -> bytes:
    cells = sorted(
        (repr(sorted(state.registers.items())), repr(sorted(state.memory.items())), count)
        for state, count in histogram.items()
    )
    return repr(cells).encode()


def run_table5(ctx, seed: int, out: Outcome, tracer) -> None:
    from repro import herd
    from repro.hardware import klitmus
    from repro.hardware.archspec import TABLE5_ARCHS
    from repro.litmus.library import PAPER_VERDICTS

    programs, lkmm, c11, runs = ctx
    digest = hashlib.sha256()
    covered = 0
    for name, program in programs:
        paper = PAPER_VERDICTS[name]
        with out.row(f"{name}/LK"):
            verdict = herd.run_litmus(lkmm, program).verdict
        out.check(verdict == paper["LK"], f"{name}: Model {paper['LK']} -> {verdict}")
        for arch in TABLE5_ARCHS:
            with out.row(f"{name}/{arch}"):
                result = klitmus.run_klitmus(program, arch, runs=runs, seed=seed)
            digest.update(f"{name}|{arch}|".encode() + _histogram_bytes(result.histogram))
            if paper["LK"] == "Forbid":
                out.check(result.observed == 0, f"{name}: observed on {arch}")
            covered += (name, arch) in PAPER_NONZERO and result.observed > 0
        if paper["C11"] is not None:
            with out.row(f"{name}/C11"):
                verdict = herd.run_litmus(c11, program).verdict
            out.check(verdict == paper["C11"], f"{name}: C11 {paper['C11']} -> {verdict}")
    out.work["rows"] = len(out.row_spans)
    out.work["klitmus_digest"] = digest.hexdigest()[:16]
    out.work["nonzero_covered"] = f"{covered}/{len(PAPER_NONZERO)}"


#: Workload -> (set-up, job, whether the job loads the prover).
WORKLOADS = {
    "corpus": (setup_corpus, run_corpus, True),
    "corpus-j2": (
        functools.partial(setup_corpus, stride=CORPUS_J2_STRIDE), run_corpus_j2, True
    ),
    "rcu-theorem2": (setup_rcu, run_rcu, False),
    "table5": (setup_table5, run_table5, False),
}


# -- measurement ---------------------------------------------------------------


def _usage():
    """(own CPU s, reaped children's CPU s, peak RSS in MB of either)."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (
        me.ru_utime + me.ru_stime,
        kids.ru_utime + kids.ru_stime,
        max(me.ru_maxrss, kids.ru_maxrss) / 1024.0,
    )


def _write_spans(path: Path, traces) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for trace in traces:
            for name, start, end, parent, _self, _outer in trace["spans"]:
                handle.write(json.dumps({
                    "pid": trace["pid"], "name": name, "start": start,
                    "end": end, "parent": parent,
                }) + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)

    setup, run, uses_prover = WORKLOADS[args.workload]
    if not args.trace:
        CLOCK.start()
    tracer = tracing.Tracer(timed=bool(args.trace))
    tracer.install(prover=uses_prover)
    ctx = setup(args.seed, args.quick)

    start = time.perf_counter()
    spawned = start - (time.monotonic() - args.spawned_at)
    setup_s = start - spawned - CLOCK.spent
    own0, kids0, _ = _usage()
    spent0 = CLOCK.spent
    out = Outcome()
    try:
        run(ctx, args.seed, out, tracer)
    except Exception:
        traceback.print_exc()
        out.check(False, f"{args.workload}: job raised")
    end = time.perf_counter()
    CLOCK.stop()
    parent_slices_s = CLOCK.spent - spent0
    wall_s = end - start - parent_slices_s
    own1, kids1, peak_rss_mb = _usage()
    if not uses_prover:
        # The prover's calls are not counted here, so show they are none.
        out.check(tracing.PROVER not in sys.modules, f"{args.workload}: prover loaded")

    cpu_s = (own1 - own0) + (kids1 - kids0) - parent_slices_s - sum(out.worker_slices)
    if out.worker_slices:
        # The pool's workers set the pace: their slices' median speed.
        job_slowdown = hostclock.slowdown(out.worker_slices)
    else:
        job_slowdown = wall_s / CLOCK.reference_seconds(start, end)
    for name, (row_start, row_end) in out.row_spans.items():
        out.row_s[name] = CLOCK.reference_seconds(row_start, row_end)
    setup_ref_s = CLOCK.reference_seconds(spawned, start)
    result = {
        "setup_s": setup_ref_s,
        "wall_s": wall_s / job_slowdown,
        "cpu_s": cpu_s / job_slowdown,
        "raw": {"setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s},
        "slowdown": {"setup": setup_s / setup_ref_s, "job": job_slowdown},
        "parent_cpu_s": own1 - own0,
        "worker_cpu_s": kids1 - kids0,
        "peak_rss_mb": peak_rss_mb,
        "cells": out.cells,
        "failures": out.failures,
        "row_s": out.row_s,
    }
    own = tracer.drain()
    traces = [own] + out.worker_traces
    counts: Dict[str, int] = {}
    for trace in traces:
        for name, n in trace["counts"].items():
            counts[name] = counts.get(name, 0) + n
    result["work"] = {**out.work, **tracing.work_counts(counts)}
    if args.trace:
        spans = [span for trace in traces for span in trace["spans"]]
        result["layers"] = tracing.layer_metrics(
            spans, counts, own["spans"], start, wall_s,
            result["parent_cpu_s"], result["worker_cpu_s"],
        )
        _write_spans(SPANS_DIR / f"{args.workload}.spans.jsonl", traces)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
