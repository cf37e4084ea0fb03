"""E12 — Theorem 2: correctness of the Figure 15 RCU implementation.

Inline the userspace-RCU implementation into the RCU tests (P -> P',
Figure 16) and check, exhaustively over the LK-allowed executions of P'
(with the implementation's wait loops unrolled to a bound), that every
outcome projects onto an LK-allowed outcome of P.
"""

from __future__ import annotations

import pytest

from repro.executions.enumerate import candidate_executions
from repro.guard import Budget, guard
from repro.guard.journal import INCONCLUSIVE
from repro.herd import run_litmus
from repro.kernel.config import use_oracle
from repro.litmus import library
from repro.litmus.outcomes import pinned_atoms
from repro.rcu import inline_rcu, verify_implementation
from repro.rcu.implementation import HOLDS

from conftest import once

#: Every library test with an RCU primitive except RCU-2GP-2RSCS (see
#: :func:`test_theorem2_rcu_2gp_2rscs_under_a_wall_budget`).
RCU_TESTS = [
    "RCU-1GP-2RSCS",
    "RCU-MP",
    "RCU-MP+mb",
    "RCU-MP+nested",
    "RCU-deferred-free",
    "SB+mb+sync",
]

#: Wall budget of the RCU-2GP-2RSCS check, in seconds.
WALL_BUDGET_S = 20


@pytest.mark.parametrize(
    "name, loop_bound",
    [(name, 1) for name in RCU_TESTS]
    + [
        (name, bound)
        for name in ("RCU-MP", "RCU-deferred-free")
        for bound in (2, 3, 4)
    ],
)
def test_theorem2_holds(benchmark, name, loop_bound):
    """Outcome inclusion itself, not only the Forbid witness: on every RCU
    library test that finishes at loop bound 1, and as the wait loops of
    RCU-MP and RCU-deferred-free unroll further."""

    def experiment():
        return verify_implementation(library.get(name), loop_bound=loop_bound)

    report = once(benchmark, experiment)
    print(f"\n{report.describe()}")
    assert report.holds
    assert report.impl_allowed > 0
    if name == "RCU-MP":
        # Completeness too, on this test: the implementation reaches
        # every specification outcome.
        assert report.impl_outcomes == report.spec_outcomes


def test_theorem2_rcu_2gp_2rscs_under_a_wall_budget():
    """The four-thread RCU-2GP-2RSCS does not finish at loop bound 1
    within the budget: the candidate search over its inlined form's
    4 × 2,048 × 4 × 2,048 thread-trace combinations outlasts it.  The
    check must then say Inconclusive, never "holds"; should it finish, it
    must hold."""
    with guard(Budget(wall_seconds=WALL_BUDGET_S)):
        report = verify_implementation(library.get("RCU-2GP-2RSCS"), loop_bound=1)
    print(f"\n{report.describe()}")
    assert report.verdict in (HOLDS, INCONCLUSIVE)
    if report.verdict == INCONCLUSIVE:
        cuts = [report.spec_interrupted, report.impl_interrupted]
        assert any(cut is not None and cut.reason == "wall_clock" for cut in cuts)


def test_forbidden_outcome_forbidden_in_implementation(benchmark, lkmm):
    """Figure 16's scenario directly: the inlined RCU-MP still forbids
    the (r0=1, r1=0) witness."""

    def experiment():
        inlined = inline_rcu(library.get("RCU-MP"), loop_bound=1)
        return run_litmus(lkmm, inlined)

    result = once(benchmark, experiment)
    print(
        f"\nRCU-MP+urcu: {result.verdict} "
        f"({result.allowed} allowed / {result.candidates} candidates)"
    )
    assert result.verdict == "Forbid"
    assert result.allowed > 0  # the check is not vacuous


def test_theorem2_with_deeper_unrolling(benchmark, lkmm):
    """Bound 2: executions where the grace period actually has to wait
    one full iteration for the reader are included."""

    def experiment():
        inlined = inline_rcu(library.get("RCU-MP"), loop_bound=2)
        return run_litmus(lkmm, inlined)

    result = once(benchmark, experiment)
    print(
        f"\nRCU-MP+urcu (bound 2): {result.verdict} "
        f"({result.allowed} allowed / {result.candidates} candidates)"
    )
    assert result.verdict == "Forbid"
    assert result.allowed > 0


def test_theorem2_at_loop_bound_3(benchmark, lkmm):
    """Bound 3: the grace period may wait two full iterations.  The
    per-location sweep builds only the trace combinations that keep a
    candidate, which keeps this bound affordable."""

    def experiment():
        inlined = inline_rcu(library.get("RCU-MP"), loop_bound=3)
        return run_litmus(lkmm, inlined)

    result = once(benchmark, experiment)
    print(
        f"\nRCU-MP+urcu (bound 3): {result.verdict} "
        f"({result.allowed} allowed / {result.candidates} candidates)"
    )
    assert result.verdict == "Forbid"
    assert result.allowed > 0


@pytest.mark.parametrize("name", ["RCU-MP", "RCU-deferred-free"])
def test_theorem2_at_loop_bound_4(benchmark, lkmm, name):
    """Bound 4: the grace period may wait three full iterations.  Of the
    115,200 trace combinations, 111,744 have an unwritable read.  The
    per-location sweep rejects them without forming them: under each of
    the reader's 8 traces it looks up one fate per distinct projection
    of the updater's 14,400 traces onto each location, and masks out
    every trace whose fate rules it out."""

    def experiment():
        inlined = inline_rcu(library.get(name), loop_bound=4)
        return run_litmus(lkmm, inlined)

    result = once(benchmark, experiment)
    print(
        f"\n{name}+urcu (bound 4): {result.verdict} "
        f"({result.allowed} allowed / {result.candidates} candidates)"
    )
    assert result.verdict == "Forbid"
    assert result.allowed > 0


@pytest.mark.parametrize("name", ["RCU-MP", "RCU-deferred-free"])
@pytest.mark.parametrize("pinned", [False, True], ids=["unpinned", "pinned"])
def test_production_stream_equals_the_oracle_at_loop_bound_2(name, pinned):
    """The memoised per-location sweep yields the oracle's candidates, in
    the oracle's order (the oracle builds and filters every rf×co
    candidate, about a minute for an unpinned run)."""
    inlined = inline_rcu(library.get(name), loop_bound=2)
    pins = pinned_atoms(inlined.condition.body) if pinned else ()
    streams = []
    for oracle in (False, True):
        with use_oracle(oracle):
            streams.append(
                [
                    (
                        execution.final_state,
                        tuple(
                            (e.eid, e.kind, e.loc, e.value)
                            for e in execution.events
                        ),
                        sorted((a.eid, b.eid) for a, b in execution.rf.pairs),
                        sorted((a.eid, b.eid) for a, b in execution.co.pairs),
                    )
                    for execution in candidate_executions(
                        inlined, require_sc_per_location=True, pins=pins
                    )
                ]
            )
    assert streams[0] == streams[1]
    assert streams[0]

