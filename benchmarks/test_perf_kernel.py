"""Benchmark: the :mod:`repro.kernel` execution kernel vs the oracle.

Times four workloads — a 2-thread message-passing test, a 3-thread
write-to-read-causality test, a full-library verdict sweep, and the
Section 6 RCU-implementation verification (the package's heaviest single
run) — under

* the *reference* configuration, the oracle (``REPRO_ORACLE=1``):
  frozenset-of-pairs relations, naive enumerate-then-filter checking,
  the statement-walking cat evaluator, no symbolic pre-pass;
* the *kernel* configuration, production (the default): integer-indexed
  bitset relations, per-trace incremental checking, and the relational
  bytecode VM (:mod:`repro.kernel.vm`), single process.

The litmus and sweep rows run the cat-loaded LKMM (the cat pipeline the
VM accelerates); the RCU row keeps the native
:class:`LinuxKernelModel` used by the Section 6 tooling.  Every row
reports timings split into

* ``seconds_setup_*`` — model load plus one warm-up run (cat parse,
  IR compile, bytecode lowering, cache priming);
* ``seconds_solve_*`` — best of ``SOLVE_ROUNDS`` steady-state runs, which
  is what ``speedup`` compares.

A fifth micro-row times the popcount kernel of :mod:`repro.kernel.bitrel`
— native ``int.bit_count`` (Python >= 3.10) against the pure-Python
fallback; its ``speedup`` is ``None`` when the interpreter has no native
popcount (then the fallback *is* the kernel path).

Results are printed and written to ``BENCH_kernel.json`` at the
repository root.  The suite asserts both configurations agree exactly,
that no row regresses below ``MIN_ROW_SPEEDUP``, that the library sweep
wins by at least ``MIN_SWEEP_SPEEDUP`` and the RCU-implementation run by
``MIN_RCU_SPEEDUP``.

Run with::

    pytest benchmarks/test_perf_kernel.py --benchmark-only -s
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.cat import load_model
from repro.herd import run_litmus, run_litmus_many, verdicts
from repro.kernel import config as kconfig
from repro.kernel.bitrel import _popcount, _popcount_fallback
from repro.litmus import library
from repro.lkmm import LinuxKernelModel
from repro.rcu import verify_implementation

from conftest import once, print_table

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_FILE = REPO_ROOT / "BENCH_kernel.json"

#: CI floor on every row: the kernel must never lose to the reference
#: path by more than timer jitter (the committed table shows >= 1.0).
MIN_ROW_SPEEDUP = 0.9
#: Floor on the library-sweep row (the kernel-v2 acceptance criterion).
MIN_SWEEP_SPEEDUP = 5.0
#: Floor on the RCU-implementation run (the kernel-v1 criterion).
MIN_RCU_SPEEDUP = 3.0

#: Ceiling on the cost of guard safepoints: measured per-call price of
#: the armed safepoint times the sweep's safepoint count, as a fraction
#: of the sweep's solve time (see ``_run_guard_overhead``).
MAX_GUARD_OVERHEAD = 0.03

#: Steady-state repetitions; ``seconds_solve`` is the best (min) round.
SOLVE_ROUNDS = 5


def _measure(setup, run):
    """``(setup_result, seconds_setup, run_result, seconds_solve)``.

    ``setup`` is timed once; ``run`` is timed ``SOLVE_ROUNDS`` times and
    the fastest round reported (best-of-N filters scheduler noise from
    millisecond-scale rows).
    """
    start = time.perf_counter()
    prepared = setup()
    seconds_setup = time.perf_counter() - start
    best = None
    result = None
    for _ in range(SOLVE_ROUNDS):
        start = time.perf_counter()
        result = run(prepared)
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return prepared, seconds_setup, result, best


def _both_configs(setup, run):
    """Run one workload in production and under the oracle."""
    with kconfig.use_oracle(False):
        _, setup_fast, fast, solve_fast = _measure(setup, run)
    with kconfig.use_oracle():
        _, setup_ref, reference, solve_ref = _measure(setup, run)
    return (fast, setup_fast, solve_fast), (reference, setup_ref, solve_ref)


def _row(test, workload, verdict, candidates, kernel, reference):
    _, setup_fast, solve_fast = kernel
    _, setup_ref, solve_ref = reference
    return {
        "test": test,
        "workload": workload,
        "verdict": verdict,
        "candidates_kernel": candidates[0],
        "candidates_reference": candidates[1],
        "seconds_setup_kernel": round(setup_fast, 4),
        "seconds_solve_kernel": round(solve_fast, 4),
        "seconds_setup_reference": round(setup_ref, 4),
        "seconds_solve_reference": round(solve_ref, 4),
        "speedup": round(solve_ref / max(solve_fast, 1e-9), 2),
    }


def _run_litmus_workload(name):
    program = library.get(name)

    def setup():
        # Model construction, cat parse, check-plan compile and bytecode
        # lowering all happen on the warm-up run.
        model = load_model("lkmm")
        run_litmus(model, program, require_sc_per_location=True)
        return model

    def run(model):
        return run_litmus(model, program, require_sc_per_location=True)

    kernel, reference = _both_configs(setup, run)
    fast, ref = kernel[0], reference[0]
    assert fast.verdict == ref.verdict
    assert fast.candidates == ref.candidates
    assert fast.states == ref.states
    return _row(
        name,
        "litmus",
        fast.verdict,
        (fast.candidates, ref.candidates),
        kernel,
        reference,
    )


def _run_library_sweep():
    """Verdicts over the whole library: kernel vs reference vs jobs=2."""
    programs = library.all_tests()

    def setup():
        models = [load_model("lkmm")]
        verdicts(models, programs, require_sc_per_location=True)
        return models

    def run(models):
        return verdicts(models, programs, require_sc_per_location=True)

    kernel, reference = _both_configs(setup, run)
    fast, ref = kernel[0], reference[0]
    assert fast == ref
    parallel = verdicts(
        [load_model("lkmm")], programs, jobs=2, require_sc_per_location=True
    )
    assert fast == parallel
    return _row(
        f"library sweep ({len(programs)} tests, LKMM)",
        "library-verdicts",
        "identical across backends and jobs=2",
        (len(programs), len(programs)),
        kernel,
        reference,
    )


def _isa2_chain(threads):
    """An ISA2-style message chain of ``threads`` threads: each middle
    thread reads the previous flag under ``smp_mb()`` before raising the
    next, the last thread looks back at the first store.  Forbidden under
    LKMM for every length; the candidate space doubles per thread while
    the critical cycle (and its proof) merely gains two positions."""
    from repro.litmus.parser import parse_litmus

    n = threads
    lines = [
        f"C ISA2-chain-{n}",
        "{ " + " ".join(f"x{i}=0;" for i in range(n)) + " }",
        "P0(int *x0, int *x1)\n{\n    WRITE_ONCE(*x0, 1);\n"
        "    smp_wmb();\n    WRITE_ONCE(*x1, 1);\n}",
    ]
    for i in range(1, n - 1):
        lines.append(
            f"P{i}(int *x{i}, int *x{i + 1})\n{{\n"
            f"    int r0 = READ_ONCE(*x{i});\n    smp_mb();\n"
            f"    WRITE_ONCE(*x{i + 1}, 1);\n}}"
        )
    lines.append(
        f"P{n - 1}(int *x{n - 1}, int *x0)\n{{\n"
        f"    int r0 = READ_ONCE(*x{n - 1});\n    smp_rmb();\n"
        f"    int r1 = READ_ONCE(*x0);\n}}"
    )
    cond = " /\\ ".join(f"{i}:r0=1" for i in range(1, n))
    lines.append(f"exists ({cond} /\\ {n - 1}:r1=0)")
    return parse_litmus("\n".join(lines))


CHAIN_SIZES = (3, 4, 5, 6)


def _enumerated_table(models, programs):
    """The verdict table by enumeration alone, with the early exit and
    verdict-only skipping that :func:`repro.herd.verdicts` defaults to."""
    table = {}
    for program in programs:
        results = run_litmus_many(
            models,
            program,
            require_sc_per_location=True,
            stop_when_decided=True,
            verdict_only=True,
        )
        table[program.name] = {
            name: result.verdict for name, result in results.items()
        }
    return table


def _run_static_prepass():
    """The symbolic pre-pass isolated on the production kernel:
    :func:`repro.herd.verdicts` (pre-pass, then enumeration) against
    :func:`repro.herd.run_litmus_many` (enumeration only, same early
    exit), which never consults the prover.

    The timed workload is the ISA2 fence-chain family, where the
    asymmetry the pre-pass exploits is structural: enumeration must
    visit a candidate space that doubles with every thread, while the
    critical-cycle proof grows by two positions (and is a table lookup
    once the shape is known).  The library assertions ride along
    untimed: the verdict tables must be identical either way, and
    ``static_decided`` (the acceptance counter) must be non-zero."""
    from repro.obs import core as obs_core

    programs = [_isa2_chain(n) for n in CHAIN_SIZES]

    def run(models):
        return verdicts(models, programs, require_sc_per_location=True)

    def run_plain(models):
        return _enumerated_table(models, programs)

    def warmed(runner):
        def setup():
            models = [load_model("lkmm")]
            runner(models)
            return models

        return setup

    _, setup_on, fast, solve_on = _measure(warmed(run), run)
    _, setup_off, plain, solve_off = _measure(warmed(run_plain), run_plain)
    assert fast == plain  # the pre-pass is observationally invisible
    assert all(
        fast[program.name]["LKMM"] == "Forbid" for program in programs
    )
    library_programs = library.all_tests()
    with obs_core.collect() as collector:
        on_table = verdicts(
            [load_model("lkmm")], library_programs,
            require_sc_per_location=True,
        )
    decided = collector.counters.get("static.decided", 0)
    assert decided > 0, "the pre-pass decided nothing on the library"
    off_table = _enumerated_table([load_model("lkmm")], library_programs)
    assert on_table == off_table
    return {
        "test": (
            "static pre-pass (ISA2 fence chains, "
            f"{min(CHAIN_SIZES)}-{max(CHAIN_SIZES)} threads)"
        ),
        "workload": "static-prepass",
        "verdict": (
            f"all Forbid, proved statically; {decided} library cells "
            "decided, tables identical"
        ),
        "candidates_kernel": len(programs),
        "candidates_reference": len(programs),
        "seconds_setup_kernel": round(setup_on, 4),
        "seconds_solve_kernel": round(solve_on, 4),
        "seconds_setup_reference": round(setup_off, 4),
        "seconds_solve_reference": round(solve_off, 4),
        "static_decided": decided,
        "speedup": round(solve_off / max(solve_on, 1e-9), 2),
    }


def _run_rcu_workload():
    program = library.get("RCU-MP")

    def setup():
        verify_implementation(program, loop_bound=1)
        return None

    def run(_):
        return verify_implementation(program, loop_bound=1)

    global SOLVE_ROUNDS
    rounds = SOLVE_ROUNDS
    SOLVE_ROUNDS = 1  # the reference run takes seconds; once is plenty
    try:
        kernel, reference = _both_configs(setup, run)
    finally:
        SOLVE_ROUNDS = rounds
    fast, ref = kernel[0], reference[0]
    assert fast.holds and ref.holds
    assert fast.impl_outcomes == ref.impl_outcomes
    assert fast.spec_outcomes == ref.spec_outcomes
    return _row(
        "RCU-MP implementation (Section 6, loop bound 1)",
        "rcu-implementation",
        "holds",
        (fast.impl_allowed, ref.impl_allowed),
        kernel,
        reference,
    )


def _run_guard_overhead():
    """Safepoint cost on the library sweep under a generous guard.

    The asserted quantity is *safepoint cost*: the measured per-call
    price of the armed safepoint pattern (``if _guard.ACTIVE:
    _guard._current.tick()``) times the number of safepoints the sweep
    actually fires, as a fraction of the sweep's solve time.  A direct
    plain-vs-armed wall-clock diff cannot power a 3% assertion — the
    true cost (~2k safepoints x a few hundred ns on a ~50ms sweep) sits
    well below the +/-5% run-to-run noise of this machine — so the
    end-to-end delta is reported informationally (``overhead_pct_e2e``)
    while the ceiling binds the analytic product of two stable
    measurements.
    """
    from repro.guard import Budget, guard
    from repro.guard import core as guard_core

    programs = library.all_tests()
    generous = Budget(
        wall_seconds=3600.0, max_candidates=10**12, max_mem_mb=65536.0
    )

    def run_plain(models):
        return verdicts(models, programs, require_sc_per_location=True)

    def run_guarded(models):
        with guard(generous):
            return verdicts(models, programs, require_sc_per_location=True)

    start = time.perf_counter()
    models = [load_model("lkmm")]
    run_plain(models)  # warm model/plan caches before any timing
    setup_s = time.perf_counter() - start

    # How many safepoints does one sweep fire?  The sweep runs under the
    # ambient guard (a nested re-arm would hide the ticks from `armed`);
    # note_candidate() also ticks, so candidates are counted twice
    # (conservative).
    with guard(generous) as armed:
        guarded = run_plain(models)
        safepoint_calls = armed._ticks + 2 * armed.candidates

    # Per-call cost of the armed call-site pattern, loop overhead
    # included (conservative).  2^17 iterations exercise the batched
    # clock (every 64 ticks) and rss (every 4096) samplers at their
    # real duty cycle.
    micro_rounds = 1 << 17
    cost_per_call = None
    with guard(generous):
        for _ in range(3):
            start = time.perf_counter()
            for _ in range(micro_rounds):
                if guard_core.ACTIVE:
                    guard_core._current.tick()
            elapsed = time.perf_counter() - start
            per_call = elapsed / micro_rounds
            cost_per_call = (
                per_call
                if cost_per_call is None
                else min(cost_per_call, per_call)
            )

    # Interleaved plain/armed pairs for the informational end-to-end
    # delta (sequential blocks would let CPU-frequency drift masquerade
    # as guard cost).
    solve_plain = solve_guarded = None
    plain = None
    for _ in range(SOLVE_ROUNDS):
        start = time.perf_counter()
        plain = run_plain(models)
        elapsed = time.perf_counter() - start
        solve_plain = elapsed if solve_plain is None else min(solve_plain, elapsed)
        start = time.perf_counter()
        guarded = run_guarded(models)
        elapsed = time.perf_counter() - start
        solve_guarded = (
            elapsed if solve_guarded is None else min(solve_guarded, elapsed)
        )
    assert plain == guarded  # a generous guard never changes verdicts
    safepoint_cost = safepoint_calls * cost_per_call / max(solve_plain, 1e-9)
    overhead_e2e = solve_guarded / max(solve_plain, 1e-9) - 1.0
    return {
        "test": f"guard overhead (library sweep, {len(programs)} tests)",
        "workload": "guard-overhead",
        "verdict": "verdicts identical with generous budget armed",
        "candidates_kernel": len(programs),
        "candidates_reference": len(programs),
        "seconds_setup_kernel": round(setup_s, 4),
        "seconds_solve_kernel": round(solve_guarded, 4),
        "seconds_setup_reference": 0.0,
        "seconds_solve_reference": round(solve_plain, 4),
        "safepoint_calls": safepoint_calls,
        "safepoint_ns": round(cost_per_call * 1e9, 1),
        "overhead_pct": round(safepoint_cost * 100, 2),
        "overhead_pct_e2e": round(overhead_e2e * 100, 2),
        "speedup": None,
    }


def _run_popcount_micro():
    """The bitrel popcount kernel: native ``int.bit_count`` vs fallback.

    The fallback is always timed; the native path only exists on
    Python >= 3.10, so ``speedup`` is ``None`` elsewhere (the fallback is
    then the production path and there is nothing to compare)."""
    masks = [(0x9E3779B97F4A7C15 * (i + 1)) & ((1 << 96) - 1) for i in range(512)]
    rounds = 200

    def time_popcount(fn):
        best = None
        for _ in range(SOLVE_ROUNDS):
            start = time.perf_counter()
            for _ in range(rounds):
                total = 0
                for mask in masks:
                    total += fn(mask)
            elapsed = time.perf_counter() - start
            if best is None or elapsed < best:
                best = elapsed
        return best

    native = _popcount is not _popcount_fallback
    solve_fallback = time_popcount(_popcount_fallback)
    solve_kernel = time_popcount(_popcount)
    assert sum(map(_popcount, masks)) == sum(map(_popcount_fallback, masks))
    return {
        "test": f"popcount x{len(masks) * rounds} (96-bit masks)",
        "workload": "micro-popcount",
        "verdict": "int.bit_count" if native else "fallback only",
        "candidates_kernel": len(masks) * rounds,
        "candidates_reference": len(masks) * rounds,
        "seconds_setup_kernel": 0.0,
        "seconds_solve_kernel": round(solve_kernel, 4),
        "seconds_setup_reference": 0.0,
        "seconds_solve_reference": round(solve_fallback, 4),
        "speedup": (
            round(solve_fallback / max(solve_kernel, 1e-9), 2)
            if native
            else None
        ),
    }


def test_kernel_speedup(benchmark):
    def experiment():
        return [
            _run_litmus_workload("MP+wmb+rmb"),
            _run_litmus_workload("WRC+wmb+acq"),
            _run_library_sweep(),
            _run_static_prepass(),
            _run_rcu_workload(),
            _run_guard_overhead(),
            _run_popcount_micro(),
        ]

    rows = once(benchmark, experiment)

    RESULT_FILE.write_text(json.dumps(rows, indent=2) + "\n")
    print_table(
        "Execution kernel vs the oracle",
        [
            "test",
            "candidates",
            "ref setup (s)",
            "ref solve (s)",
            "kernel setup (s)",
            "kernel solve (s)",
            "speedup",
        ],
        [
            [
                row["test"],
                row["candidates_kernel"],
                row["seconds_setup_reference"],
                row["seconds_solve_reference"],
                row["seconds_setup_kernel"],
                row["seconds_solve_kernel"],
                f"{row['speedup']}x" if row["speedup"] is not None else "n/a",
            ]
            for row in rows
        ],
    )
    print(f"wrote {RESULT_FILE}")

    for row in rows:
        if row["speedup"] is not None:
            assert row["speedup"] >= MIN_ROW_SPEEDUP, (
                f"{row['test']}: kernel speedup {row['speedup']}x below the "
                f"{MIN_ROW_SPEEDUP}x regression floor"
            )
    sweep = next(r for r in rows if r["workload"] == "library-verdicts")
    assert sweep["speedup"] >= MIN_SWEEP_SPEEDUP, (
        f"library sweep speedup {sweep['speedup']}x below the "
        f"{MIN_SWEEP_SPEEDUP}x acceptance floor"
    )
    rcu = next(r for r in rows if r["workload"] == "rcu-implementation")
    assert rcu["speedup"] >= MIN_RCU_SPEEDUP, (
        f"RCU speedup {rcu['speedup']}x below the {MIN_RCU_SPEEDUP}x "
        "acceptance floor"
    )
    guard_row = next(r for r in rows if r["workload"] == "guard-overhead")
    assert guard_row["overhead_pct"] <= MAX_GUARD_OVERHEAD * 100, (
        f"guard safepoints cost {guard_row['overhead_pct']}% on the library "
        f"sweep, above the {MAX_GUARD_OVERHEAD:.0%} ceiling"
    )
