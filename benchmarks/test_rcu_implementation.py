"""E12 — Theorem 2: correctness of the Figure 15 RCU implementation.

Inline the userspace-RCU implementation into the RCU tests (P -> P',
Figure 16) and check, exhaustively over the LK-allowed executions of P'
(with the implementation's wait loops unrolled to a bound), that every
outcome projects onto an LK-allowed outcome of P.
"""

from __future__ import annotations

import pytest

from repro.executions.enumerate import candidate_executions
from repro.herd import run_litmus
from repro.kernel.config import use_oracle
from repro.litmus import library
from repro.litmus.outcomes import pinned_atoms
from repro.lkmm import LinuxKernelModel
from repro.rcu import inline_rcu, verify_implementation

from conftest import once


def test_theorem2_rcu_mp(benchmark):
    def experiment():
        return verify_implementation(library.get("RCU-MP"), loop_bound=1)

    report = once(benchmark, experiment)
    print(f"\n{report.describe()}")
    assert report.holds
    assert report.impl_allowed > 0
    # Completeness too, on this test: the implementation reaches every
    # specification outcome.
    assert report.impl_outcomes == report.spec_outcomes


def test_theorem2_deferred_free(benchmark):
    def experiment():
        return verify_implementation(
            library.get("RCU-deferred-free"), loop_bound=1
        )

    report = once(benchmark, experiment)
    print(f"\n{report.describe()}")
    assert report.holds


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
    """Bound 4: the grace period may wait three full iterations.  The
    per-location sweep rejects most of the 115,200 trace combinations
    with memo lookups, one decision per location signature."""

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

