"""The one sweep path: :func:`repro.kernel.parallel.fault_tolerant_map`
at every ``jobs``, and what its callers no longer decide themselves.

At ``jobs <= 1`` (or with fewer than two payloads) the map runs each task
in the calling process, in input order, under a fresh copy of the ambient
budget and the ambient cancel token, and records no ``parallel.*``
observation.  Budgets reach it only as the ambient budget, so
``repro-corpus sweep --timeout`` gets the same hard per-task deadline as
``repro-herd --timeout``, and the journal counts its own replays.
"""

from __future__ import annotations

import os
import re

import pytest

from repro import obs
from repro.cat.eval import load_model
from repro.corpus.generate import corpus_slice
from repro.corpus.sweep import sweep_corpus
from repro.guard import Budget, CancelToken, faults, guard, parse_fault_spec
from repro.guard import core as guard_core
from repro.herd import INCONCLUSIVE
from repro.kernel import parallel
from repro.litmus import library
from repro.tools import cli


@pytest.fixture(autouse=True)
def _clean_pools_and_spec():
    parallel.shutdown_pools()
    faults.set_spec(None)
    yield
    faults.set_spec(None)
    parallel.shutdown_pools()


def _pid(_payload):
    return os.getpid()


def _parallel_names(report):
    return [
        name
        for names in (report.counters, report.gauges, report.spans)
        for name in names
        if name.startswith("parallel.")
    ]


# -- the in-process path ---------------------------------------------------


def test_serial_tasks_run_in_the_calling_process():
    with obs.collect() as collector:
        assert parallel.fault_tolerant_map(_pid, [0, 1, 2], jobs=1) == [
            os.getpid()
        ] * 3
        assert parallel.fault_tolerant_map(_pid, [0], jobs=4) == [os.getpid()]
    assert not parallel._PERSISTENT_POOLS
    assert _parallel_names(collector.report()) == []


def test_stop_abandons_the_tail():
    ran = []

    def task(value):
        ran.append(value)
        return value * 2

    results = parallel.fault_tolerant_map(
        task, [1, 2, 3, 4], jobs=1, stop=lambda: len(ran) >= 2
    )
    assert results == [2, 4, None, None]
    assert ran == [1, 2]


def test_each_task_gets_a_fresh_budget_copy_and_the_token():
    budget = Budget(max_candidates=5)
    token = CancelToken()

    def task(_payload):
        armed = guard_core.current()
        armed.note_candidate()
        return armed

    with guard(budget, token) as outer:
        guards = parallel.fault_tolerant_map(task, [0, 1, 2], jobs=1)
        assert guard_core.current() is outer
    assert len({id(armed) for armed in guards}) == 3
    assert outer not in guards
    for armed in guards:
        assert armed.budget == budget
        assert armed.token is token
        assert armed.candidates == 1
    assert outer.candidates == 0

    token.cancel()
    sc = load_model("sc")
    with guard(budget, token):
        (result,) = parallel.fault_tolerant_map(
            cli._herd_task, [(sc, library.get("SB"))], jobs=1
        )
    assert result.verdict == INCONCLUSIVE
    assert result.interrupted.reason == "cancelled"


def test_on_result_follows_input_order():
    events = []

    def task(value):
        events.append(("run", value))
        return value * 2

    parallel.fault_tolerant_map(
        task,
        [3, 1, 2],
        jobs=1,
        on_result=lambda index, result: events.append(("land", index, result)),
    )
    assert events == [
        ("run", 3),
        ("land", 0, 6),
        ("run", 1),
        ("land", 1, 2),
        ("run", 2),
        ("land", 2, 4),
    ]


# -- what the callers no longer decide -------------------------------------


def test_repro_herd_journal_replays_are_counted(tmp_path, capsys):
    argv = ["--journal", str(tmp_path / "j.jsonl"), "--profile"]
    argv += ["SB", "MP+wmb+rmb"]
    assert cli.herd_main(argv) == cli.EXIT_OK
    capsys.readouterr()
    assert cli.herd_main(argv) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "(journaled)" in out
    assert re.search(r"guard\.journal_skips\s+2\b", out), out


def test_sweep_row_budget_sets_a_hard_task_deadline(monkeypatch):
    """A hung worker in a ``--timeout`` sweep is caught by the deadline
    derived from the row budget (``2 × 0.2 s + 5 s``), not left to sleep."""
    monkeypatch.setattr(faults, "HANG_SECONDS", 60.0)
    # Seed 8 hangs the first attempt of the second task only.
    faults.set_spec(parse_fault_spec("hang:0.25,seed=8"))
    tests = corpus_slice(seed=0, start=0, stop=4)
    with obs.collect() as collector:
        result = sweep_corpus(
            tests, jobs=2, row_budget=Budget(wall_seconds=0.2)
        )
    assert sorted(result.matrix) == sorted(test.name for test in tests)
    assert collector.report().counters.get("guard.worker_hangs", 0) > 0


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_repro_herd_budget_spares_the_printing(jobs, capsys):
    """The per-test budget is armed around the map, but ``--check-races``
    and ``--explain`` run in this process as results land: they stay
    outside it."""
    argv = ["--model", "lkmm", "--max-candidates", "0", "--check-races"]
    argv += ["--explain", "--jobs", jobs, "SB", "MP"]
    assert cli.herd_main(argv) == cli.EXIT_INCONCLUSIVE
    out = capsys.readouterr().out
    assert out.count(": Inconclusive") == 2
    assert "SB: Race-free" in out and "MP: Race-free" in out
