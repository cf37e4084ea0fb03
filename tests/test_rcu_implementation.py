"""Tests for the Figure 15 implementation and the Theorem 2 check."""

import pytest

from repro.herd import run_litmus
from repro.litmus import dsl, library
from repro.litmus.ast import If, Load, Store
from repro.lkmm import LinuxKernelModel
from repro.rcu import inline_rcu, verify_implementation
from repro.rcu.implementation import (
    CS_MASK,
    GC,
    GP_LOCK,
    GP_PHASE,
    _Names,
    _rc,
    read_lock_body,
    read_unlock_body,
    synchronize_body,
)


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
