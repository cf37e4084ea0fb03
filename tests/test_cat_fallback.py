"""Production checks run on the bytecode VM; walker fallbacks are counted.

:meth:`repro.cat.eval.CatModel.check` falls back from the VM to the
statement walker (the oracle's evaluator) when a model does not lower
(``cat.fallback.unlowerable``).  A fallback costs speed, never a
verdict; this suite pins both halves of that:

* every bundled model lowers, and the whole library under all nine
  bundled models runs with zero fallbacks in production;
* a hand-built model that cannot lower still gets the oracle's verdict,
  and every one of its checks is counted as a fallback.
"""

from __future__ import annotations

import pytest

from repro.cat import CatModel, load_model
from repro.cat.eval import MODELS_DIR
from repro.herd import run_litmus, run_litmus_many
from repro.kernel import config
from repro.litmus import library
from repro.obs import core as obs

BUNDLED = sorted(path.stem for path in MODELS_DIR.glob("*.cat"))

FALLBACKS = ("cat.fallback.unlowerable",)


def test_nine_models_are_bundled():
    assert len(BUNDLED) == 9, BUNDLED


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_model_lowers(name):
    assert load_model(name)._vm_program() is not None


def test_library_runs_without_fallbacks():
    """Library × 9 bundled models in production: every candidate check
    runs on the VM.  ``run_litmus_many`` never consults the prover, so
    every candidate of every test is checked by every model."""
    models = [load_model(name) for name in BUNDLED]
    with config.use_oracle(False), obs.collect() as collector:
        for program in library.all_tests():
            run_litmus_many(models, program)
    counters = collector.counters
    for name in FALLBACKS:
        assert counters.get(name, 0) == 0, name
    checks = sum(counters[f"cat.{model.name}.checks"] for model in models)
    assert counters["vm.runs"] == checks > 0


def _unlowerable_source(depth: int = 70) -> str:
    """A valid model whose function applications nest deeper than the
    IR compiler unfolds: the walker evaluates it, the VM cannot."""
    lines = ["let f0(r) = r"]
    lines += [f"let f{i}(r) = f{i - 1}(r)" for i in range(1, depth)]
    lines.append(f"acyclic f{depth - 1}(po | rf | co | (rf^-1 ; co)) as sc")
    return "\n".join(lines)


def _unlowerable_bindings_source(depth: int = 70) -> str:
    """The deep nesting again, around the bindings a walker could share
    between the candidates of one trace combination: an rf/co-invariant
    ``let`` and an invariant two-binding ``let rec`` group (``ord``
    works out to ``po``), then a variant ``let``."""
    lines = ["let f0(r) = r"]
    lines += [f"let f{i}(r) = f{i - 1}(r)" for i in range(1, depth)]
    lines += [
        "let prog = (po | id) \\ id",
        "let rec ord = prog | (ord ; back^-1)",
        "and back = ord^-1 | (back ; back)",
        "let com = rf | co | (rf^-1 ; co)",
        f"acyclic f{depth - 1}(ord | com) as sc",
    ]
    return "\n".join(lines)


UNLOWERABLE = [
    pytest.param(test_name, source, id=test_name + suffix)
    for suffix, source in (
        ("", _unlowerable_source()),
        ("+invariant-lets", _unlowerable_bindings_source()),
    )
    for test_name in ("SB", "MP", "LB", "2+2W")
]


@pytest.mark.parametrize("test_name, source", UNLOWERABLE)
def test_unlowerable_model_falls_back_to_oracle_verdict(test_name, source):
    model = CatModel.from_source(source, name="deep-sc")
    assert model._vm_program() is None
    program = library.get(test_name)
    with config.use_oracle(False), obs.collect() as collector:
        production = run_litmus(model, program)
    with config.use_oracle():
        oracle = run_litmus(model, program)
    assert production.verdict == oracle.verdict
    assert production.states == oracle.states
    # Every check fell back, and for the one reason.
    assert (
        collector.counters["cat.fallback.unlowerable"]
        == production.candidates
    )
    # The hand-built model is SC: it agrees with the bundled one.
    assert production.verdict == run_litmus(load_model("sc"), program).verdict
