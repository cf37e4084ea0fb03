"""Budgets across the worker pool, and budgets that are spent already.

:func:`repro.kernel.parallel.fault_tolerant_map` forwards the parent's
armed budget with every task and re-arms it in the worker, and
``repro-herd`` arms its per-test budget around the map, so each pooled
caller degrades to ``Inconclusive`` exactly where its serial path does,
and a task runs under no budget but its own: a worker forked while the
parent had a guard armed does not keep that guard.  The pool is also
never larger than the batch it runs.  A budget that is spent before a run
starts stops the run at its entry, serially and in a worker.  An ambient
budget is spent per program at any ``jobs``: the map re-arms it for each
task in the calling process just as it does on a pool worker.
"""

from __future__ import annotations

import pytest

from repro.cat.eval import load_model
from repro.corpus.generate import corpus_slice
from repro.corpus.sweep import NOT_APPLICABLE, sweep_corpus, sweep_row
from repro.guard import Budget, guard
from repro.herd import INCONCLUSIVE, run_litmus, verdict_row, verdicts
from repro.kernel import parallel
from repro.litmus import library
from repro.tools import cli

#: Trips at the first candidate of every run, serial or pooled.
NO_CANDIDATES = Budget(max_candidates=0)
#: Spent as soon as it is armed.
EXPIRED = Budget(wall_seconds=0.0)


@pytest.fixture(autouse=True)
def _clean_pools():
    parallel.shutdown_pools()
    yield
    parallel.shutdown_pools()


@pytest.mark.parametrize("caller", ["verdicts", "sweep_corpus", "repro_herd"])
def test_budget_crosses_the_pool(caller):
    if caller == "verdicts":
        sc = load_model("sc")
        programs = [library.get(name) for name in ("SB", "MP", "LB")]

        def run(jobs):
            with guard(NO_CANDIDATES):
                return verdicts([sc], programs, jobs=jobs)

    elif caller == "sweep_corpus":
        tests = corpus_slice(seed=0, start=0, stop=4)

        def run(jobs):
            with guard(NO_CANDIDATES):
                return sweep_corpus(tests, jobs=jobs).matrix

    else:
        sc = load_model("sc")
        programs = [library.get(name) for name in ("SB", "MP", "LB")]

        def run(jobs):
            with guard(NO_CANDIDATES):
                results = parallel.fault_tolerant_map(
                    cli._herd_task, [(sc, p) for p in programs], jobs
                )
            return {r.program.name: {sc.name: r.verdict} for r in results}

    # Fork the workers outside the guard: the budget can then reach them
    # only by being forwarded with each task.
    assert parallel.persistent_pool(2).map(abs, [-1, -2]) == [1, 2]
    serial = run(1)
    assert serial == run(2)
    assert all(INCONCLUSIVE in row.values() for row in serial.values())


def test_workers_drop_the_guard_armed_at_fork():
    sc = load_model("sc")
    programs = [library.get(name) for name in ("SB", "MP", "LB")]
    with guard(NO_CANDIDATES):
        tripped = verdicts([sc], programs, jobs=2)
    assert all(row == {sc.name: INCONCLUSIVE} for row in tripped.values())
    # The same pool, reused with no guard armed, judges conclusively.
    assert verdicts([sc], programs, jobs=2) == verdicts([sc], programs)


def test_pool_never_outnumbers_its_tasks():
    assert parallel.fault_tolerant_map(abs, [1, -2], jobs=4) == [1, 2]
    (pool,) = parallel._PERSISTENT_POOLS.values()
    assert pool.jobs == 2
    assert len(pool.worker_pids()) == 2


def test_spent_budget_stops_a_run_at_entry():
    result = run_litmus(load_model("sc"), library.get("SB"), budget=EXPIRED)
    assert result.verdict == INCONCLUSIVE
    assert result.interrupted.reason == "wall_clock"


@pytest.mark.parametrize("jobs", [1, 2])
def test_spent_budget_leaves_no_sweep_cell_conclusive(jobs):
    tests = corpus_slice(seed=0, start=0, stop=4)
    with guard(EXPIRED):
        matrix = sweep_corpus(tests, jobs=jobs).matrix
    assert sorted(matrix) == sorted(test.name for test in tests)
    for row in matrix.values():
        assert INCONCLUSIVE in row.values()
        assert set(row.values()) <= {INCONCLUSIVE, NOT_APPLICABLE}


def test_ambient_budget_is_spent_per_program_at_any_jobs():
    # 20 candidates settle every library test in production, but not the
    # whole library.
    lkmm = load_model("lkmm")
    programs = library.all_tests()
    budget = Budget(max_candidates=20)
    with guard(budget):
        serial = verdicts([lkmm], programs, jobs=1)
        pooled = verdicts([lkmm], programs, jobs=2)
    alone = {}
    for program in programs:
        with guard(budget):
            alone[program.name] = verdict_row([lkmm], program)
    assert serial == pooled == alone


def test_ambient_budget_is_spent_per_row_in_a_serial_sweep():
    tests = corpus_slice(seed=0, start=0, stop=6)
    budget = Budget(max_candidates=3)
    with guard(budget):
        serial = sweep_corpus(tests, jobs=1).matrix
        pooled = sweep_corpus(tests, jobs=2).matrix
    alone = {}
    for test in tests:
        with guard(budget):
            alone[test.name] = sweep_row(test.program)
    assert serial == pooled == alone
    assert any(INCONCLUSIVE in row.values() for row in serial.values())
