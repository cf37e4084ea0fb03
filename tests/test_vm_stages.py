"""Staged checks with early exit (:func:`repro.kernel.vm.plan_stages`).

Verdict-only callers ask ``allows``: the VM runs one stage per check,
cheapest slice first, and stops at the first violation; the native LK
model stops at its first violated axiom.  None of this may change a
verdict, so this suite holds ``allows(x) == check(x).allowed`` for the
nine bundled cat models and both native LK models over every candidate
of the library, every 10th golden-corpus row (direct and compiled to
each corpus architecture) and RCU-MP with the RCU implementation
inlined at loop bound 1.  It also pins the planner's soundness
precondition and checks that an early exit really skips work.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cat import load_model
from repro.cat.eval import MODELS_DIR
from repro.corpus.golden import load_golden
from repro.corpus.sweep import CORPUS_MODELS
from repro.executions import candidate_executions
from repro.hardware import CompileError, compile_program, get_arch
from repro.kernel import config as kconfig
from repro.kernel import vm
from repro.litmus import library
from repro.lkmm import LinuxKernelModel
from repro.obs import core as obs
from repro.rcu import inline_rcu

BUNDLED = sorted(path.stem for path in MODELS_DIR.glob("*.cat"))

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_corpus.jsonl"


@pytest.fixture(scope="module")
def models():
    return [load_model(name) for name in BUNDLED] + [
        LinuxKernelModel(),
        LinuxKernelModel(with_rcu=False),
    ]


def _library():
    for program in library.all_tests():
        yield program, candidate_executions(program)


def _golden():
    archs = [get_arch(spec.arch) for spec in CORPUS_MODELS if spec.arch]
    for test, _locked in load_golden(GOLDEN_PATH)[::10]:
        yield test.program, candidate_executions(test.program)
        for arch in archs:
            try:
                compiled = compile_program(test.program, arch, rcu="error")
            except CompileError:
                continue
            yield compiled, candidate_executions(compiled)


def _rcu_mp_bound_1():
    # Theorem 2's stream.  The unfiltered one adds only candidates that
    # fail coherence, a case the library covers, at minutes per run.
    program = inline_rcu(library.get("RCU-MP"), loop_bound=1)
    yield program, candidate_executions(program, require_sc_per_location=True)


SOURCES = {"library": _library, "golden": _golden, "rcu-mp@1": _rcu_mp_bound_1}


@pytest.mark.parametrize("source", sorted(SOURCES))
def test_allows_equals_check(models, source):
    with kconfig.use_oracle(False):
        for program, executions in SOURCES[source]():
            for execution in executions:
                for model in models:
                    # allows first, as herd calls it, so check() meets
                    # the prelude and base values allows cached.
                    assert model.allows(execution) == (
                        model.check(execution).allowed
                    ), (program.name, model.name, execution.describe())


# -- the plan ------------------------------------------------------------------


@pytest.mark.parametrize("name", BUNDLED)
def test_stages_partition_the_main_stream(name):
    """The chain precondition holds for every bundled model, and every
    main-stream instruction runs in exactly one stage."""
    program = load_model(name)._vm_program()
    verdict, flagged = vm.plan_stages(program)
    stages = verdict + flagged
    assert sum(len(instrs) for instrs, _, _ in stages) == len(program.main)
    positions = sorted(position for _, position, _ in stages)
    assert positions == [
        position
        for position, check in enumerate(program.checks)
        if not check.invariant
    ]
    assert all(not check.flag for _, _, check in verdict)
    assert all(check.flag for _, _, check in flagged)


def test_lkmm_decides_coherence_first(lkmm_cat):
    verdict, flagged = lkmm_cat._vm_program().stages()
    assert not flagged
    assert [check.label for _, _, check in verdict] == [
        "coherence", "atomic", "happens-before", "propagation", "rcu",
    ]


def _program(main):
    check = vm.VMCheck("acyclic", "c", False, False, 3, False, False)
    return vm.VMProgram(-1, "broken", ("rf", "co"), (), tuple(main), (check,), 4)


@pytest.mark.parametrize("main", [
    # Chain links of register 2 with another instruction between them.
    [(vm.LOAD_BASE, 0, 0, 0), (vm.LOAD_BASE, 1, 1, 0),
     (vm.UNION_REL, 2, 0, 1), (vm.INVERSE, 3, 2, 0),
     (vm.UNION_REL, 2, 2, 0)],
    # A second write of register 2 that does not extend the first.
    [(vm.LOAD_BASE, 0, 0, 0), (vm.LOAD_BASE, 1, 1, 0),
     (vm.UNION_REL, 2, 0, 1), (vm.UNION_REL, 2, 1, 0),
     (vm.INVERSE, 3, 2, 0)],
])
def test_planner_rejects_unsound_chains(main):
    with pytest.raises(AssertionError):
        vm.plan_stages(_program(main))


# -- early exit ----------------------------------------------------------------


def _opcodes(counters):
    return sum(
        hits for name, hits in counters.items() if name.startswith("vm.op.")
    )


def test_coherence_violation_runs_only_the_coherence_stage(lkmm_cat):
    program = lkmm_cat._vm_program()
    verdict, _ = program.stages()
    coherence = verdict[0][0]
    with kconfig.use_oracle(False):
        execution = next(
            x
            for x in candidate_executions(library.get("CoRR"))
            if [v.axiom for v in lkmm_cat.check(x).violations][:1]
            == ["coherence"]
        )
        # check() above built the prelude: only main-stream work remains.
        with obs.collect() as collector:
            assert not lkmm_cat.allows(execution)
        early = collector.counters
        with obs.collect() as collector:
            assert not lkmm_cat.check(execution).allowed
        full = collector.counters
    assert _opcodes(early) == len(coherence) < _opcodes(full)
    assert early["vm.early_exit"] == 1
    assert early["vm.stages_skipped"] == len(verdict) - 1
    assert early["cat.LKMM.violation.coherence"] == 1
    assert "vm.early_exit" not in full


def test_native_allows_stops_at_the_first_axiom(lkmm):
    with kconfig.use_oracle(False):
        execution = next(
            x
            for x in candidate_executions(library.get("MP+mbs"))
            if len(lkmm.check(x).violations) > 1
        )
    with obs.collect() as collector:
        assert not lkmm.allows(execution)
    counters = collector.counters
    violated = [
        name for name in counters if name.startswith("lkmm.violation.")
    ]
    assert len(violated) == 1
    first = lkmm.check(execution).violations[0].axiom
    assert violated == [f"lkmm.violation.{first}"]


def test_bench_prints_early_exit_counters(capsys):
    from repro.tools.cli import herd_main

    with kconfig.use_oracle(False):
        assert herd_main(["--model", "lkmm", "--bench", "MP+wmb+rmb"]) == 0
    out = capsys.readouterr().out
    assert "vm.early_exit = " in out
    assert "vm.stages_skipped = " in out
