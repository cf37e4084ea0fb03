"""Budgets compose: an inner guard narrows, never widens.

A guard armed inside another runs under the meet of the two budgets:
the smaller of each limit, the earlier deadline, and the outer cancel
token still honoured.  So a per-program budget armed by a caller
(``sweep_corpus(row_budget=...)``, ``repro-herd``'s limits) cannot
switch off the limits of a guard armed around that caller, at any
``jobs``.  Work outside every budget asks for it with ``detached()``.
"""

from __future__ import annotations

import time

import pytest

from repro.corpus.generate import corpus_slice
from repro.corpus.sweep import NOT_APPLICABLE, sweep_corpus
from repro.guard import Budget, BudgetExceeded, Cancelled, CancelToken, guard
from repro.guard import core as guard_core
from repro.herd import INCONCLUSIVE
from repro.kernel import parallel


@pytest.fixture(autouse=True)
def _clean_pools():
    parallel.shutdown_pools()
    yield
    parallel.shutdown_pools()


def test_meet_takes_the_smaller_of_each_limit():
    loose = Budget(wall_seconds=100.0, max_candidates=None, max_states=50)
    tight = Budget(wall_seconds=2.0, max_candidates=7, max_states=None, max_mem_mb=64.0)
    assert loose.meet(tight) == tight.meet(loose) == Budget(
        wall_seconds=2.0, max_candidates=7, max_states=50, max_mem_mb=64.0
    )
    assert Budget().meet(Budget()) == Budget()


@pytest.mark.parametrize("jobs", [1, 2])
def test_row_budget_cannot_widen_the_callers_budget(jobs):
    tests = corpus_slice(seed=0, start=0, stop=4)
    with guard(Budget(max_candidates=0)):
        matrix = sweep_corpus(
            tests, jobs=jobs, row_budget=Budget(wall_seconds=100)
        ).matrix
    assert sorted(matrix) == sorted(test.name for test in tests)
    for row in matrix.values():
        assert INCONCLUSIVE in row.values()
        assert set(row.values()) <= {INCONCLUSIVE, NOT_APPLICABLE}


def test_inner_guard_meets_the_outer_limits_but_counts_alone():
    with guard(Budget(max_candidates=1)) as outer:
        with guard(Budget(max_candidates=100, max_states=10)) as inner:
            assert inner.budget == Budget(max_candidates=1, max_states=10)
            guard_core.note_candidate()
            with pytest.raises(BudgetExceeded):
                guard_core.note_candidate()
        assert outer.candidates == 0


def test_inner_guard_keeps_the_outer_deadline():
    with guard(Budget(wall_seconds=0.05)):
        time.sleep(0.06)
        with guard(Budget(wall_seconds=100.0)) as inner:
            with pytest.raises(BudgetExceeded) as excinfo:
                inner.check()
    assert excinfo.value.interruption.reason == "wall_clock"


def test_inner_guard_honours_the_outer_cancel_token():
    outer_token = CancelToken()
    with guard(None, outer_token):
        with guard(Budget(max_candidates=100), CancelToken()) as inner:
            outer_token.cancel()
            with pytest.raises(Cancelled):
                inner.check()


def test_per_program_copies_keep_the_tokens_and_start_their_own_clock():
    outer_token = CancelToken()
    seen = []

    def task(_payload):
        armed = guard_core.current()
        seen.append((armed.budget, armed._deadline - armed._start))
        armed.check()
        return armed

    with guard(Budget(max_states=5), outer_token):
        with guard(Budget(wall_seconds=0.05)) as ambient:
            time.sleep(0.06)
            # Each task's wall clock starts with the task, not with the
            # ambient guard whose budget it copies.
            parallel.fault_tolerant_map(task, [0, 1], jobs=1)
            outer_token.cancel()
            with pytest.raises(Cancelled):
                parallel.fault_tolerant_map(task, [0, 1], jobs=1)
    assert seen[0][0] == ambient.budget == Budget(wall_seconds=0.05, max_states=5)
    assert seen[0][1] == pytest.approx(0.05)


def test_detached_runs_outside_every_guard():
    with guard(Budget(max_candidates=0)) as armed:
        with guard_core.detached():
            assert guard_core.current() is None
            assert not guard_core.ACTIVE
            guard_core.note_candidate()
        assert guard_core.current() is armed and guard_core.ACTIVE
    assert guard_core.current() is None
