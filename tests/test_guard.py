"""Budgets, cancellation, and graceful degradation (repro.guard)."""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cat.eval import load_model
from repro.diy import generate
from repro.guard import (
    Budget,
    BudgetExceeded,
    Cancelled,
    CancelToken,
    guard,
)
from repro.guard import core as guard_core
from repro.herd import ALLOW, FORBID, INCONCLUSIVE, RunResult, run_litmus, verdicts
from repro.kernel.config import use_oracle
from repro.litmus import library
from repro.litmus.parser import parse_litmus
from repro.lkmm import LinuxKernelModel
from repro.rcu.implementation import inline_rcu


SC = load_model("sc")
LKMM = load_model("lkmm")


# -- Budget / Guard mechanics ---------------------------------------------


def test_unbounded_budget_reports_unbounded():
    assert not Budget().bounded()
    assert Budget(wall_seconds=1.0).bounded()
    assert Budget(max_candidates=5).bounded()


def test_candidate_budget_trips_exactly():
    with pytest.raises(BudgetExceeded) as excinfo:
        with guard(Budget(max_candidates=3)):
            for _ in range(10):
                guard_core.note_candidate()
    interruption = excinfo.value.interruption
    assert interruption.reason == "candidates"
    assert interruption.limit == 3
    assert interruption.observed == 4
    assert interruption.candidates == 4


def test_state_budget_trips():
    with pytest.raises(BudgetExceeded) as excinfo:
        with guard(Budget(max_states=100)):
            for _ in range(1000):
                guard_core.tick()
    assert excinfo.value.interruption.reason == "states"


def test_wall_clock_budget_trips():
    with pytest.raises(BudgetExceeded) as excinfo:
        with guard(Budget(wall_seconds=0.01)):
            while True:
                guard_core.tick()
    interruption = excinfo.value.interruption
    assert interruption.reason == "wall_clock"
    assert interruption.elapsed_s >= 0.01


def test_memory_budget_trips():
    # A 0 MB ceiling trips on the first sampled reading.
    with pytest.raises(BudgetExceeded) as excinfo:
        with guard(Budget(max_mem_mb=0.0)):
            while True:
                guard_core.tick()
    interruption = excinfo.value.interruption
    assert interruption.reason == "memory"
    assert interruption.observed > 0


def test_cancel_token_stops_at_safepoint():
    token = CancelToken()
    with pytest.raises(Cancelled) as excinfo:
        with guard(None, token):
            for i in range(10_000):
                if i == 500:
                    token.cancel()
                guard_core.tick()
    assert excinfo.value.interruption.reason == "cancelled"


def test_safepoints_are_noops_when_unarmed():
    assert guard_core.current() is None
    assert not guard_core.ACTIVE
    guard_core.tick()
    guard_core.note_candidate()


def test_nested_guards_shadow():
    with guard(Budget(max_candidates=100)) as outer:
        with guard(Budget(max_candidates=1)) as inner:
            assert guard_core.current() is inner
            guard_core.note_candidate()
            with pytest.raises(BudgetExceeded):
                guard_core.note_candidate()
        assert guard_core.current() is outer
        # The outer budget is untouched by the inner guard's counting.
        guard_core.note_candidate()
    assert guard_core.current() is None


def test_interruption_round_trips_and_pickles():
    import pickle

    with pytest.raises(BudgetExceeded) as excinfo:
        with guard(Budget(max_candidates=1)):
            guard_core.note_candidate()
            guard_core.note_candidate()
    interruption = excinfo.value.interruption
    clone = pickle.loads(pickle.dumps(interruption))
    assert clone.to_dict() == interruption.to_dict()
    assert "candidates" in clone.describe()


# -- verdict degradation semantics ----------------------------------------


def _result(name, condition_text, *, witnesses, allowed, interrupted):
    text = (
        f"C {name}\n\n"
        "{ x=0; }\n\n"
        "P0(int *x)\n{\n    WRITE_ONCE(*x, 1);\n}\n\n"
        f"{condition_text}\n"
    )
    program = parse_litmus(text)
    result = RunResult(
        program=program,
        model_name="m",
        candidates=allowed,
        allowed=allowed,
        witnesses=witnesses,
    )
    if interrupted:
        result.interrupted = guard_core.Interruption(reason="wall_clock")
    return result


def test_exists_witness_stays_decisive_when_interrupted():
    result = _result("w", "exists (x=1)", witnesses=1, allowed=2, interrupted=True)
    assert result.verdict == ALLOW


def test_exists_without_witness_degrades():
    result = _result("w", "exists (x=2)", witnesses=0, allowed=2, interrupted=True)
    assert result.verdict == INCONCLUSIVE
    complete = _result("w", "exists (x=2)", witnesses=0, allowed=2, interrupted=False)
    assert complete.verdict == FORBID


def test_forall_counterexample_stays_decisive_when_interrupted():
    result = _result("w", "forall (x=1)", witnesses=1, allowed=2, interrupted=True)
    assert result.verdict == FORBID


def test_forall_all_matching_prefix_degrades():
    result = _result("w", "forall (x=1)", witnesses=2, allowed=2, interrupted=True)
    assert result.verdict == INCONCLUSIVE


def test_interrupted_describe_carries_provenance():
    result = _result("w", "exists (x=2)", witnesses=0, allowed=2, interrupted=True)
    assert "[interrupted: wall_clock" in result.describe()


# -- end-to-end degradation ----------------------------------------------


def test_intractable_test_times_out_inconclusive():
    """Acceptance: a 6+ thread diy cycle under ``--timeout 2`` returns
    Inconclusive with provenance in about two seconds, not hours."""
    import time

    program = generate(["Rfe", "PodRR", "Fre"] * 7)
    assert len(program.threads) >= 6
    start = time.perf_counter()
    result = run_litmus(LKMM, program, budget=Budget(wall_seconds=2.0))
    elapsed = time.perf_counter() - start
    assert result.verdict == INCONCLUSIVE
    assert result.interrupted is not None
    assert result.interrupted.reason == "wall_clock"
    assert result.interrupted.candidates > 0
    # ~2s budget plus safepoint granularity and teardown slack.
    assert elapsed < 10.0


def test_wall_budget_interrupts_the_per_location_sweep():
    """The memoised per-location rf×co sweep keeps its safepoints: the
    Theorem 2 program at loop bound 2 under a 50 ms wall budget degrades
    to Inconclusive instead of running to a verdict."""
    import time

    program = inline_rcu(library.get("RCU-MP"), loop_bound=2)
    start = time.perf_counter()
    result = run_litmus(
        LinuxKernelModel(),
        program,
        budget=Budget(wall_seconds=0.05),
    )
    elapsed = time.perf_counter() - start
    assert result.verdict == INCONCLUSIVE
    assert result.interrupted is not None
    assert result.interrupted.reason == "wall_clock"
    # Same slack as test_intractable_test_times_out_inconclusive.
    assert elapsed < 10.0


def test_candidate_budget_yields_partial_result():
    program = library.get("SB")
    result = run_litmus(SC, program, budget=Budget(max_candidates=2))
    assert result.verdict == INCONCLUSIVE
    assert result.interrupted.reason == "candidates"
    assert 0 < result.candidates <= 2


def test_generous_budget_leaves_verdicts_untouched():
    programs = [library.get(name) for name in ("SB", "MP+wmb+rmb", "LB", "R")]
    plain = verdicts([SC, LKMM], programs)
    with guard(
        Budget(wall_seconds=600.0, max_candidates=10**9, max_mem_mb=8192.0)
    ):
        guarded = verdicts([SC, LKMM], programs)
    assert plain == guarded
    assert INCONCLUSIVE not in {
        verdict for row in guarded.values() for verdict in row.values()
    }


# -- determinism of the interrupted prefix --------------------------------


@settings(max_examples=12, deadline=None)
@given(
    limit=st.integers(min_value=1, max_value=12),
    name=st.sampled_from(["SB", "MP+wmb+rmb", "LB", "2+2W", "R"]),
)
def test_candidate_budget_is_deterministic_across_backends(limit, name):
    """The same Budget + test stops after the same candidate prefix and
    with identical provenance in production and under the oracle."""
    program = library.get(name)
    snapshots = []
    for oracle in (False, True):
        with use_oracle(oracle):
            snapshots.append(_budgeted_snapshot(SC, program, limit))
    assert snapshots[0] == snapshots[1]


def _budgeted_snapshot(model, program, limit):
    result = run_litmus(model, program, budget=Budget(max_candidates=limit))
    interruption = (
        None if result.interrupted is None else result.interrupted.to_dict()
    )
    if interruption is not None:
        interruption.pop("elapsed_s")  # wall time is not deterministic
        # Tick totals include configuration-specific safepoints (the
        # VM check only runs in production); the determinism contract
        # is exact candidate counting.
        interruption.pop("states")
    return (
        result.verdict,
        result.candidates,
        result.allowed,
        result.witnesses,
        interruption,
    )


@pytest.mark.parametrize("limit", [1, 7, 30])
def test_candidate_budget_on_rcu_is_deterministic_across_backends(limit):
    """The same partial result in production (per-location pruned sweep)
    and under the oracle (filter after build), on a program where several
    locations have several rf choices."""
    program = inline_rcu(library.get("RCU-MP"), loop_bound=1)
    snapshots = []
    for oracle in (False, True):
        with use_oracle(oracle):
            snapshots.append(
                _budgeted_snapshot(SC, program, limit)
            )
    assert snapshots[0] == snapshots[1]
    assert snapshots[0][1] == limit


def test_candidate_budget_on_lazy_materialisation_matches_the_oracle():
    """Production materialises a trace combination only at its first
    surviving candidate; under a candidate budget that must not shift the
    partial result away from the oracle's eager filter-after-build."""
    program = inline_rcu(library.get("RCU-MP"), loop_bound=2)
    snapshots = []
    for oracle in (False, True):
        with use_oracle(oracle):
            snapshots.append(
                _budgeted_snapshot(LKMM, program, 10)
            )
    assert snapshots[0] == snapshots[1]
    assert snapshots[0][0] == INCONCLUSIVE
    assert snapshots[0][1] == 10


# -- safepoint cost ----------------------------------------------------------

#: Ceiling on the cost of guard safepoints on the library sweep, as a
#: fraction of the sweep's solve time.
MAX_GUARD_OVERHEAD = 0.03


def _best_seconds(run, rounds):
    best = None
    for _ in range(rounds):
        start = time.perf_counter()
        run()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


def test_guard_safepoint_cost_on_the_library_sweep():
    """Armed safepoints cost at most 3% of the production library sweep.

    The bound is analytic: the measured per-call price of the armed
    safepoint pattern (``if _guard.ACTIVE: _guard._current.tick()``)
    times the number of safepoints one sweep fires, over the sweep's
    solve time.  A plain-vs-armed wall-clock diff cannot power a 3%
    assertion: the true cost sits far below the run-to-run noise of a
    ~50 ms sweep, while both factors of the product are stable.
    """
    programs = library.all_tests()
    generous = Budget(
        wall_seconds=3600.0, max_candidates=10**12, max_mem_mb=65536.0
    )
    with use_oracle(False):
        models = [load_model("lkmm")]

        def sweep():
            return verdicts(models, programs)

        plain = sweep()  # warm the model and plan caches before timing
        # note_candidate() also ticks, so candidates count twice
        # (conservative).
        with guard(generous) as armed:
            guarded = sweep()
            safepoint_calls = armed._ticks + 2 * armed.candidates
        solve_s = _best_seconds(sweep, rounds=3)
    assert plain == guarded  # a generous guard never changes verdicts

    # Per-call cost of the armed call-site pattern, loop overhead
    # included (conservative).  2^17 iterations exercise the batched
    # clock (every 64 ticks) and rss (every 4096) samplers at their real
    # duty cycle.
    micro_rounds = 1 << 17

    def ticks():
        for _ in range(micro_rounds):
            if guard_core.ACTIVE:
                guard_core._current.tick()

    with guard(generous):
        per_call_s = _best_seconds(ticks, rounds=3) / micro_rounds
    overhead = safepoint_calls * per_call_s / solve_s
    assert overhead <= MAX_GUARD_OVERHEAD, (
        f"{safepoint_calls} safepoints at {per_call_s * 1e9:.0f} ns cost "
        f"{overhead:.2%} of a {solve_s * 1e3:.0f} ms sweep, above the "
        f"{MAX_GUARD_OVERHEAD:.0%} ceiling"
    )
