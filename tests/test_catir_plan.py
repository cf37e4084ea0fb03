"""Lowered-program equivalence: the bytecode that
:mod:`repro.analysis.catir.plan` lowers each model to must produce
verdicts, axiom labels, witness shapes, and flags identical to the
statement walker, for every bundled model and for small models that
exercise each cat construct the lowering handles; ``REPRO_ORACLE`` is
the opt-out."""

from __future__ import annotations

import pytest

from repro.cat import CatModel, CatError, load_model
from repro.executions import candidate_executions
from repro.herd import verdicts
from repro.kernel import vm
from repro.kernel import config
from repro.obs import core as obs
from repro.litmus import library

PROGRAMS = [
    "MP+wmb+rmb",
    "SB",
    "LB+ctrl",
    "IRIW",
    "RCU-MP",
    "SB+unlock-lock",
]

MODELS = ["lkmm", "lkmm-core", "c11", "tso", "sc", "power", "armv8"]


def available_programs():
    names = set(library.all_names())
    return [name for name in PROGRAMS if name in names]


def fingerprint(result):
    return (
        result.allowed,
        [(v.axiom, v.kind, bool(v.witness)) for v in result.violations],
        [(f.axiom, f.kind) for f in result.flags],
    )


def result_fingerprint(model, execution):
    return fingerprint(model.check(execution))


def model_fingerprints(model, program, limit=40):
    out = []
    for i, execution in enumerate(candidate_executions(program)):
        if i >= limit:
            break
        out.append(result_fingerprint(model, execution))
    return out


def production_and_oracle(model, program):
    """Fingerprints of the same candidates through the VM and through the
    statement walker (the oracle's evaluator)."""
    with config.use_oracle(False):
        with_plan = model_fingerprints(model, program)
    with config.use_oracle():
        without = model_fingerprints(model, program)
    return with_plan, without


@pytest.mark.parametrize("model_name", MODELS)
def test_bundled_models_plan_equivalence(model_name):
    model = load_model(model_name)
    for prog_name in available_programs():
        program = library.get(prog_name)
        with_plan, without = production_and_oracle(model, program)
        assert with_plan == without, f"{model_name} / {prog_name}"


CUSTOM_SOURCES = {
    "negated": "~empty po as has-order\nacyclic po as po-order",
    "flagged": "flag empty rf & po as internal-rf\nacyclic po | rf as ord",
    "set-check": "empty R & W as disjoint\nempty IW & R as init-writes",
    "recursion": (
        "let rec path = po | (path ; rf) | (rf ; path)\n"
        "acyclic path as chained"
    ),
    "mutual-recursion": (
        "let rec a = po | (b ; rf)\nand b = rf | (a ; po)\n"
        "irreflexive a as no-self\nacyclic b as b-ord"
    ),
    "functions": (
        "let hull(r) = r? ; r ; r?\n"
        "empty hull(rf) & id as no-rf-loop"
    ),
    "complement": "empty po & ~po as excluded-middle",
    "set-complement": "empty R & ~R as set-middle",
    "cartesian": "empty rf \\ (W * R) as rf-shape",
    "fencerel": "empty fencerel(Wmb) & id as fence-irr",
    "domain-range": (
        "empty domain(rf) & R as writes-only\n"
        "empty range(rf) & W as reads-only"
    ),
    "inverse": "irreflexive rf^-1 ; co as fr-irr",
    "unnamed-checks": "acyclic po\nempty rf & id",
}


@pytest.mark.parametrize("label", sorted(CUSTOM_SOURCES))
def test_custom_model_plan_equivalence(label):
    model = CatModel.from_source(CUSTOM_SOURCES[label], name=f"plan-{label}")
    assert model._vm_program() is not None, "every construct lowers"
    with_plan, without = production_and_oracle(
        model, library.get("MP+wmb+rmb")
    )
    assert with_plan == without


@pytest.mark.parametrize("backend", ["bitset", "frozenset"])
def test_plan_equivalence_across_backends(backend):
    """The walker agrees with the VM on both relation backends: on bitset
    relations it is the production fallback, on frozenset the oracle."""
    program = library.get("SB")
    model = load_model("lkmm")
    with config.use_oracle(False):
        executions = list(candidate_executions(program))[:40]
        with_plan = [result_fingerprint(model, x) for x in executions]
    with config.use_oracle(backend == "frozenset"):
        executions = list(candidate_executions(program))[:40]
        without = [fingerprint(model._walk(x)) for x in executions]
    assert with_plan == without


class TestOptOut:
    def test_env_opt_out(self, monkeypatch):
        """REPRO_ORACLE=1 routes checks to the walker: no bytecode runs."""
        model = CatModel.from_source("acyclic po as ok", name="env-opt-out")
        execution = next(iter(candidate_executions(library.get("SB"))))
        monkeypatch.setenv("REPRO_ORACLE", "1")
        with obs.collect() as collector:
            assert model.check(execution).allowed
        assert "vm.runs" not in collector.counters
        monkeypatch.setenv("REPRO_ORACLE", "0")
        with obs.collect() as collector:
            assert model.check(execution).allowed
        assert collector.counters["vm.runs"] == 1

    def test_override_beats_env(self, monkeypatch):
        model = CatModel.from_source("acyclic po as ok", name="override")
        execution = next(iter(candidate_executions(library.get("SB"))))
        monkeypatch.setenv("REPRO_ORACLE", "1")
        with config.use_oracle(False), obs.collect() as collector:
            assert model.check(execution).allowed
        assert collector.counters["vm.runs"] == 1

    def test_interpreter_used_when_disabled(self):
        model = CatModel.from_source("acyclic po as ok", name="opt-out")
        program = library.get("SB")
        execution = next(iter(candidate_executions(program)))
        with config.use_oracle():
            assert model.check(execution).allowed
        # The model was never compiled nor lowered on the oracle path.
        assert "compiled" not in vars(model) and "_program" not in vars(model)


class TestPlanStructure:
    def test_shared_subexpressions_scheduled_once(self):
        model = CatModel.from_source(
            "let a = po | rf\nacyclic a as one\nirreflexive a ; a as two",
            name="cse",
        )
        program = model._vm_program()
        assert program is not None
        unions = [
            instr
            for instr in program.prelude + program.main
            if instr[0] == vm.UNION_REL
        ]
        assert len(unions) == 1  # `po | rf` is computed once

    def test_uncompilable_model_falls_back(self):
        # The model cannot compile an unbound name; check() falls back to
        # the walker, which raises the same CatError it always did.
        model = CatModel.from_source("acyclic nonesuch as broken")
        program = library.get("SB")
        execution = next(iter(candidate_executions(program)))
        with config.use_oracle(False):
            with pytest.raises(CatError, match="unbound identifier"):
                model.check(execution)
        assert vars(model)["compiled"] is None
        assert vars(model)["_program"] is None

    def test_model_pickles_without_plan(self):
        import pickle

        model = load_model("tso")
        program = library.get("SB")
        execution = next(iter(candidate_executions(program)))
        with config.use_oracle(False):
            before = result_fingerprint(model, execution)
        clone = pickle.loads(pickle.dumps(model))
        assert "compiled" not in vars(clone) and "_program" not in vars(clone)
        with config.use_oracle(False):
            assert result_fingerprint(clone, execution) == before


def test_golden_style_verdicts_match():
    """The headline acceptance shape: library verdict tables computed in
    production and under the oracle coincide (the full 57x4 table runs
    in the golden suite, which CI exercises in both configurations)."""
    programs = [library.get(name) for name in available_programs()]
    models = [load_model(name) for name in ("lkmm", "c11", "tso", "sc")]
    with config.use_oracle(False):
        with_plan = verdicts(models, programs)
    with config.use_oracle():
        without = verdicts(models, programs)
    assert with_plan == without


def test_each_model_compiles_once(monkeypatch):
    """A verdict, the SC-per-location test, the symbolic prover and the
    model diff all read the one IR the shared :class:`CatModel` owns.
    Every ``compile_statements`` call builds one ``CompiledModel``."""
    from repro.analysis.catir.compile import CompiledModel
    from repro.analysis.catir.diff import diff_models
    from repro.analysis.symbolic import prover
    from repro.cat import eval as cat_eval
    from repro.herd import run_litmus

    compiles = []
    original = CompiledModel.__init__

    def counting(self, name, *args):
        compiles.append(name)
        original(self, name, *args)

    monkeypatch.setattr(CompiledModel, "__init__", counting)
    monkeypatch.setattr(cat_eval, "_MODEL_CACHE", {})
    lkmm = load_model("lkmm")
    run_litmus(lkmm, library.get("MP+wmb+rmb"))
    assert lkmm.sc_per_location
    assert prover.compiled_model(lkmm) is not None
    diff_models("lkmm", "lkmm-core")
    assert compiles.count("LKMM") == 1
    assert compiles.count("LKMM-core") == 1
