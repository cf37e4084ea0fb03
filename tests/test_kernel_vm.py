"""The relational bytecode VM (:mod:`repro.kernel.vm`) must be invisible.

Kernel v2 adds three batching layers — the bytecode VM with shared
trace-invariant registers, the verdict-table early exit / verdict-only
candidate skipping, and persistent worker pools.  None of them may change
a single observable result:

* a property test runs random diy-generated litmus tests in production
  and under the oracle (``REPRO_ORACLE=1``: frozenset relations, naive
  enumeration, the statement walker), demanding identical run summaries;
* per-candidate ``ModelResult``s (violations, witnesses included) must be
  identical between the VM and the statement walker;
* the sweep accelerations (early exit, verdict-only skipping and
  condition-directed enumeration) must keep every verdict while provably
  scanning less;
* unit tests pin the lowered program shape, the popcount fallback and
  persistent-pool reuse.

The frozen golden verdict table runs in production in the default tier-1
run and under the oracle in the oracle CI lane
(``tests/test_golden_verdicts.py``).
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro.cat import load_model
from repro.diy.edges import EDGES
from repro.diy.generator import CycleError, generate
from repro.executions.enumerate import candidate_executions
from repro.herd import run_litmus, run_litmus_many, verdicts
from repro.kernel import config as kconfig
from repro.kernel import parallel as kparallel
from repro.kernel import vm
from repro.kernel.bitrel import _popcount, _popcount_fallback
from repro.litmus import library
from repro.litmus.outcomes import Forall, pinned_atoms
from repro.obs import core as obs


def _summary(model, program):
    result = run_litmus(model, program)
    return (
        result.verdict,
        result.candidates,
        result.allowed,
        result.witnesses,
        result.states,
    )


@pytest.fixture(scope="module")
def lkmm_cat():
    return load_model("lkmm")


# -- lowered program shape -------------------------------------------------


def test_lowered_program_streams(lkmm_cat):
    program = lkmm_cat._vm_program()
    assert program is not None
    assert program.prelude, "lkmm has trace-invariant structure"
    assert program.main, "lkmm has rf/co-dependent structure"
    # The prelude never touches the witness relations; the main stream
    # loads both.
    prelude_loads = {
        program.names[instr[2]]
        for instr in program.prelude
        if instr[0] == vm.LOAD_BASE
    }
    main_loads = {
        program.names[instr[2]]
        for instr in program.main
        if instr[0] == vm.LOAD_BASE
    }
    assert not prelude_loads & {"rf", "co"}
    assert {"rf", "co"} <= main_loads
    # lkmm's let-rec rcu group lowers to a fixpoint meta-instruction.
    assert any(instr[0] == vm.FIXPOINT for instr in program.main)
    # Checks keep the cat file's order and labels.
    from repro.analysis.catir.compile import compile_statements

    compiled = compile_statements(lkmm_cat._flattened(), lkmm_cat.name)
    assert [c.label for c in program.checks] == [
        c.label for c in compiled.checks
    ]


def test_program_describe_smoke(lkmm_cat):
    text = lkmm_cat._vm_program().describe()
    assert "prelude" in text and "main" in text


# -- per-candidate equivalence ----------------------------------------------


@pytest.mark.parametrize("name", ["MP+wmb+rmb", "WRC+wmb+acq", "IRIW+mbs"])
def test_vm_model_results_identical(lkmm_cat, name):
    """Violations — axiom names, kinds *and* witnesses — match the
    statement walker on every candidate, not just the allowed bit."""
    program = library.get(name)
    with kconfig.use_oracle(False):
        for execution in candidate_executions(program):
            fast = lkmm_cat.check(execution)
            reference = lkmm_cat._walk(execution)
            assert fast.allowed == reference.allowed
            assert fast.violations == reference.violations


def test_vm_judges_oracle_built_executions(lkmm_cat):
    """Executions built under the oracle hold pairs only.  Judged in
    production, the VM builds their rows on first use and gives the
    oracle's verdicts, with no walker fallback."""
    program = library.get("MP+wmb+rmb")
    with kconfig.use_oracle():
        executions = list(candidate_executions(program))
        assert all(x.rf._rows is None for x in executions)
        oracle = [lkmm_cat.check(x).allowed for x in executions]
    with kconfig.use_oracle(False), obs.collect() as collector:
        production = [lkmm_cat.check(x).allowed for x in executions]
    assert production == oracle
    assert collector.counters["vm.runs"] == len(executions)
    assert "cat.fallback.unlowerable" not in collector.counters


# -- random litmus tests: production == oracle -------------------------------


@st.composite
def edge_cycles(draw):
    names = sorted(EDGES)
    length = draw(st.integers(min_value=3, max_value=5))
    return [draw(st.sampled_from(names)) for _ in range(length)]


@given(edge_cycles())
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
def test_random_cycles_production_matches_oracle(edges):
    try:
        program = generate(edges)
    except CycleError:
        assume(False)
    model = load_model("lkmm")
    with kconfig.use_oracle(False):
        production = _summary(model, program)
    with kconfig.use_oracle():
        oracle = _summary(model, program)
    assert production == oracle


# -- sweep accelerations ------------------------------------------------------


def _forall(program):
    return dataclasses.replace(
        program, condition=Forall(program.condition.body)
    )


def test_early_exit_keeps_verdicts(lkmm_cat):
    # A forall test is never condition-directed, so any drop in the
    # candidates of a verdict_only run is the early exit.
    reduced_somewhere = False
    for name in library.all_names():
        program = _forall(library.get(name))
        full = run_litmus_many([lkmm_cat], program)[lkmm_cat.name]
        fast = run_litmus_many(
            [lkmm_cat], program, verdict_only=True
        )[lkmm_cat.name]
        assert fast.verdict == full.verdict, name
        assert fast.candidates <= full.candidates, name
        if fast.candidates < full.candidates:
            reduced_somewhere = True
    assert reduced_somewhere, "early exit never fired across the library"


def _matching_count(program):
    """SC-per-location candidates that meet every atom the condition pins
    (the stream LKMM's sweep filters by those pins)."""
    pins = pinned_atoms(program.condition.body)
    count = 0
    for execution in candidate_executions(program, True):
        state = execution.final_state
        count += all(pin.evaluate(state) for pin in pins)
    return count


def test_verdict_only_keeps_verdicts(lkmm_cat):
    # Production verdict_only runs of exists/~exists tests enumerate the
    # condition-directed stream: exactly the swept candidates that meet
    # every pinned atom.  A forall test keeps the whole stream.  Only a
    # run with no early exit (a Forbid exists, an Allow forall) scans all
    # of it.
    pruned_somewhere = False
    with kconfig.use_oracle(False):
        for name in library.all_names():
            program = library.get(name)
            for variant in (program, _forall(program)):
                full = run_litmus_many([lkmm_cat], variant)[lkmm_cat.name]
                fast = run_litmus_many(
                    [lkmm_cat], variant, verdict_only=True
                )[lkmm_cat.name]
                assert fast.verdict == full.verdict, name
                forall = variant is not program
                scanned = (
                    full.candidates if forall else _matching_count(program)
                )
                if fast.verdict == ("Allow" if forall else "Forbid"):
                    assert fast.candidates == scanned, name
                else:
                    assert fast.candidates <= scanned, name
                if not forall:
                    pruned_somewhere |= scanned < full.candidates
    assert pruned_somewhere
    # 2+2W pins both final values: one of its four coherence orders.
    program = library.get("2+2W")
    with kconfig.use_oracle(False):
        fast = run_litmus_many([lkmm_cat], program, verdict_only=True)
    assert fast[lkmm_cat.name].candidates == 1


def _unpinned_scan(model, program):
    """Candidates of the unpinned stream up to the first witness."""
    count = 0
    for execution in candidate_executions(program, model.sc_per_location):
        count += 1
        if program.condition.evaluate(
            execution.final_state
        ) and model.allows(execution):
            break
    return count


def test_oracle_keeps_the_full_stream(lkmm_cat):
    for name in ("2+2W", "CoWW", "MP", "SB"):
        program = library.get(name)
        with kconfig.use_oracle():
            full = run_litmus_many([lkmm_cat], program)[lkmm_cat.name]
            with obs.collect() as collector:
                fast = run_litmus_many(
                    [lkmm_cat], program, verdict_only=True
                )[lkmm_cat.name]
            scanned = _unpinned_scan(lkmm_cat, program)
        assert fast.candidates == scanned, name
        assert fast.verdict == full.verdict, name
        assert collector.counters.get("enumerate.pruned.condition", 0) == 0


def _pruned_count(run):
    with obs.collect() as collector:
        run()
    return collector.counters.get("enumerate.pruned.condition", 0)


@pytest.mark.parametrize("name", ["CoWW", "2+2W"])
def test_condition_pruning_counter(lkmm_cat, name):
    # Both tests pin only final memory: every drop is a coherence order.
    program = library.get(name)
    as_forall = _forall(program)
    with kconfig.use_oracle(False):
        # LKMM alone sweeps the SC-per-location stream; with C11 (which
        # lacks the property) the row takes the full stream.
        for models in ([lkmm_cat], [lkmm_cat, load_model("c11")]):
            assert _pruned_count(lambda: run_litmus_many(
                models, program, verdict_only=True
            )) > 0
            assert _pruned_count(lambda: run_litmus_many(
                models, as_forall, verdict_only=True
            )) == 0
        assert _pruned_count(lambda: run_litmus_many(
            [lkmm_cat], program
        )) == 0
        assert _pruned_count(lambda: run_litmus(lkmm_cat, program)) == 0
    with kconfig.use_oracle():
        assert _pruned_count(lambda: verdicts([lkmm_cat], [program])) == 0


def test_early_exit_stops_at_first_witness(lkmm_cat):
    # WRC+wmb+acq is Allow: the scan must stop strictly before the full
    # candidate count once the witness is found.  The oracle applies no
    # condition pins, so only the early exit shortens its scan.
    program = library.get("WRC+wmb+acq")
    with kconfig.use_oracle():
        full = run_litmus_many([lkmm_cat], program)[lkmm_cat.name]
        fast = run_litmus_many(
            [lkmm_cat], program, verdict_only=True
        )[lkmm_cat.name]
    assert full.verdict == fast.verdict == "Allow"
    assert fast.candidates < full.candidates


# -- observability -------------------------------------------------------------


def test_vm_counters_published(lkmm_cat):
    # 2+2W has one trace skeleton and four rf x co candidates, so the
    # shared prelude register file must be hit by the three siblings.
    program = library.get("2+2W")
    with kconfig.use_oracle(False), obs.collect() as collector:
        run_litmus(lkmm_cat, program)
    counters = collector.counters
    assert counters.get("vm.runs", 0) > 0
    assert counters.get("vm.prelude_builds", 0) >= 1
    assert any(name.startswith("vm.op.") for name in counters)
    # Siblings of the first candidate reuse the shared prelude registers.
    assert counters.get("vm.prelude_hits", 0) > 0


# -- persistent pools -----------------------------------------------------------


def test_persistent_pool_reused_across_sweeps(lkmm_cat):
    programs = [library.get(name) for name in sorted(library.all_names())[:4]]
    kparallel.shutdown_pools()
    try:
        with obs.collect() as collector:
            first = verdicts([lkmm_cat], programs, jobs=2)
            second = verdicts([lkmm_cat], programs, jobs=2)
        assert first == second
        assert collector.counters.get("parallel.pool_spawn", 0) == 1
        assert collector.counters.get("parallel.pool_reuse", 0) >= 1
    finally:
        kparallel.shutdown_pools()


# -- popcount fallback ------------------------------------------------------------


@given(st.integers(min_value=0, max_value=(1 << 256) - 1))
@settings(max_examples=200, deadline=None)
def test_popcount_fallback_matches(mask):
    assert _popcount_fallback(mask) == _popcount(mask)


def test_popcount_prefers_native_when_available():
    if hasattr(int, "bit_count"):
        assert _popcount is int.bit_count
    else:  # pragma: no cover - Python 3.9 only
        assert _popcount is _popcount_fallback
