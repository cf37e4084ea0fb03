"""Tests for the Figure 15 implementation and the Theorem 2 check."""

import pytest

from repro.guard import Budget, guard
from repro.herd import run_litmus
from repro.kernel.config import use_oracle
from repro.litmus import dsl, library
from repro.litmus.ast import If, Load, Store
from repro.lkmm import LinuxKernelModel
from repro.rcu import implementation, inline_rcu, verify_implementation
from repro.rcu.implementation import (
    CS_MASK,
    FAILS,
    GC,
    GP_LOCK,
    GP_PHASE,
    HOLDS,
    ImplementationReport,
    _Names,
    _project,
    _rc,
    read_lock_body,
    read_unlock_body,
    synchronize_body,
)

#: Every library test with an RCU primitive except RCU-2GP-2RSCS, whose
#: bound-1 check runs for minutes.
RCU_TESTS = [
    "RCU-1GP-2RSCS",
    "RCU-MP",
    "RCU-MP+mb",
    "RCU-MP+nested",
    "RCU-deferred-free",
    "SB+mb+sync",
]


class TestBuildingBlocks:
    def test_constants_match_figure15(self):
        assert GP_PHASE == 0x10000
        assert CS_MASK == 0x0FFFF

    def test_specialised_lock_shape(self):
        body = read_lock_body(0, _Names(), full=False)
        assert isinstance(body[0], Load)  # READ_ONCE(gc)
        assert isinstance(body[1], Store)  # WRITE_ONCE(rc[i], ...)
        assert body[2].tag == "mb"  # smp_mb()

    def test_full_lock_has_nesting_branch(self):
        body = read_lock_body(0, _Names(), full=True)
        assert isinstance(body[1], If)
        assert body[1].orelse  # the increment branch

    def test_unlock_decrements_in_full_mode(self):
        body = read_unlock_body(0, _Names(), full=True)
        assert body[0].tag == "mb"
        assert isinstance(body[2], Store)

    def test_synchronize_structure(self):
        body = synchronize_body([0], _Names(), bound=1)
        # smp_mb, lock, ..., unlock, smp_mb (Figure 15 lines 43-50).
        assert body[0].tag == "mb"
        assert body[-1].tag == "mb"
        from repro.litmus.ast import Rmw

        assert isinstance(body[1], Rmw)  # mutex_lock via spin_lock
        assert body[1].require_read_value == 0


class TestInlining:
    def test_inline_replaces_all_rcu_events(self):
        inlined = inline_rcu(library.get("RCU-MP"))
        from repro.litmus.ast import Fence

        for thread in inlined.threads:
            for ins in thread.body:
                if isinstance(ins, Fence):
                    assert not ins.tag.startswith("rcu")
                    assert ins.tag != "sync-rcu"

    def test_inline_adds_implementation_state(self):
        inlined = inline_rcu(library.get("RCU-MP"))
        assert inlined.init[GC] == 1
        assert inlined.init[GP_LOCK] == 0
        assert inlined.init[_rc(0)] == 0

    def test_inline_preserves_condition(self):
        program = library.get("RCU-MP")
        assert inline_rcu(program).condition is program.condition

    def test_name_suffixed(self):
        assert inline_rcu(library.get("RCU-MP")).name == "RCU-MP+urcu"


class TestTheorem2:
    def test_rcu_mp_implementation_correct(self):
        report = verify_implementation(library.get("RCU-MP"), loop_bound=1)
        assert report.holds, report.describe()
        assert report.impl_allowed > 0
        assert report.impl_outcomes  # non-vacuous

    def test_forbidden_outcome_stays_forbidden(self):
        program = library.get("RCU-MP")
        inlined = inline_rcu(program, loop_bound=1)
        result = run_litmus(LinuxKernelModel(), inlined)
        assert result.verdict == "Forbid"

    def test_deferred_free_implementation_correct(self):
        report = verify_implementation(
            library.get("RCU-deferred-free"), loop_bound=1
        )
        assert report.holds, report.describe()

    def test_report_projection_hides_internals(self):
        report = verify_implementation(library.get("RCU-MP"), loop_bound=1)
        for outcome in report.impl_outcomes:
            for key, entries in outcome:
                for entry in entries:
                    if key == "regs":
                        (tid, name), _ = entry
                        assert not name.startswith("__")
                    else:
                        loc, _ = entry
                        assert not loc.startswith("__")


def _from_full_runs(program, loop_bound):
    """Theorem 2's sets from the full state sets of two ``run_litmus``
    runs: ``(spec_outcomes, impl_outcomes, spurious, holds)``."""
    model = LinuxKernelModel()
    spec = {_project(s) for s in run_litmus(model, program).states}
    inlined = inline_rcu(program, loop_bound=loop_bound)
    impl = {_project(s) for s in run_litmus(model, inlined).states}
    return spec, impl, impl - spec, not impl - spec


def _sets(report):
    return (
        report.spec_outcomes,
        report.impl_outcomes,
        report.spurious,
        report.holds,
    )


class TestOnePerOutcome:
    """The report checks one allowed execution per projected outcome, and
    says what the full runs say."""

    @pytest.mark.parametrize(
        "name, loop_bound",
        [(name, 1) for name in RCU_TESTS]
        + [("RCU-MP", 2), ("RCU-deferred-free", 2)],
    )
    def test_report_equals_the_full_runs(self, name, loop_bound):
        # Both sides read one candidate stream, which is the oracle's
        # (tests/test_enumerate.py); the oracle's naive sweep of these
        # inlined programs takes minutes (RCU-MP at bound 2) or more
        # (RCU-1GP-2RSCS), so the comparison runs in production.
        program = library.get(name)
        with use_oracle(False):
            report = verify_implementation(program, loop_bound=loop_bound)
            assert _sets(report) == _from_full_runs(program, loop_bound)
        assert report.holds, report.describe()
        assert report.spec_allowed == len(report.spec_outcomes)
        assert report.impl_allowed == len(report.impl_outcomes)

    def test_a_synchronize_that_does_not_wait_is_caught(self, monkeypatch):
        # The mutant keeps only synchronize_rcu's fence: the grace period
        # no longer waits for the reader, so RCU-MP's forbidden outcome
        # shows up in P'.
        monkeypatch.setattr(
            implementation,
            "synchronize_body",
            lambda reader_tids, names, bound: [dsl.smp_mb()],
        )
        program = library.get("RCU-MP")
        report = verify_implementation(program, loop_bound=1)
        assert _sets(report) == _from_full_runs(program, 1)
        assert report.spurious
        assert report.verdict == FAILS
        assert "FAILS" in report.describe()


class TestBudget:
    """A budget-cut check never claims the theorem holds."""

    @pytest.mark.parametrize("max_candidates", [3, 10, 30])
    def test_a_cut_run_is_inconclusive(self, max_candidates):
        with guard(Budget(max_candidates=max_candidates)):
            report = verify_implementation(library.get("RCU-MP"), loop_bound=1)
        assert report.impl_interrupted is not None
        assert not report.holds
        assert report.verdict == "Inconclusive"
        text = report.describe()
        assert "Inconclusive" in text and "holds" not in text
        assert "implementation interrupted" in text

    def test_a_generous_budget_still_holds(self):
        with guard(Budget(max_candidates=1000)):
            report = verify_implementation(library.get("RCU-MP"), loop_bound=1)
        assert report.spec_interrupted is report.impl_interrupted is None
        assert report.verdict == HOLDS

    def test_verdict_table(self):
        from repro.guard.core import Interruption

        cut = Interruption("candidates", limit=1, observed=2)
        outcome_a = frozenset({("regs", frozenset()), ("mem", frozenset())})
        outcome_b = frozenset({("regs", frozenset({((0, "r0"), 1)}))})

        def report(spec, impl, spec_cut, impl_cut):
            return ImplementationReport(
                "P", 1, set(spec), set(impl),
                spec_interrupted=cut if spec_cut else None,
                impl_interrupted=cut if impl_cut else None,
            ).verdict

        # A spurious outcome against a complete specification decides,
        # even when the implementation run was cut.
        assert report([outcome_a], [outcome_b], False, False) == FAILS
        assert report([outcome_a], [outcome_b], False, True) == FAILS
        # Against a cut specification it may yet turn out allowed.
        assert report([outcome_a], [outcome_b], True, False) == "Inconclusive"
        assert report([outcome_a], [outcome_a], False, False) == HOLDS
        assert report([outcome_a], [outcome_a], False, True) == "Inconclusive"
        assert report([outcome_a], [outcome_a], True, False) == "Inconclusive"
