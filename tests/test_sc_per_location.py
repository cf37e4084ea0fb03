"""The SC-per-location filter is derived from the models.

``Model.sc_per_location`` says whether a model forbids every candidate
that violates ``acyclic(po-loc | com)``; ``run_litmus_many`` enumerates
only the candidates satisfying it when every model of the call does.
These tests pin the property and check that the filtered sweep reports
what the unfiltered enumeration does, in the ambient kernel
configuration (production, or the oracle under ``REPRO_ORACLE=1``).
"""

from __future__ import annotations

import pytest

from repro.cat import MODELS_DIR, CatModel, load_model
from repro.executions.enumerate import candidate_executions
from repro.herd import RunResult, run_litmus, run_litmus_many
from repro.litmus import library
from repro.lkmm import LinuxKernelModel

BUNDLED = sorted(path.stem for path in MODELS_DIR.glob("*.cat"))
COHERENCE = "acyclic po-loc | com as coherence"


def test_bundled_models():
    assert len(BUNDLED) == 9
    for name in BUNDLED:
        assert load_model(name).sc_per_location == (name != "c11"), name
    assert LinuxKernelModel().sc_per_location
    assert LinuxKernelModel(with_rcu=False).sc_per_location


def _lkmm_with(coherence: str) -> CatModel:
    source = (MODELS_DIR / "lkmm.cat").read_text()
    assert COHERENCE in source
    return CatModel.from_source(source.replace(COHERENCE, coherence))


@pytest.mark.parametrize(
    "coherence,expected",
    [
        (COHERENCE, True),
        ("", False),
        ("acyclic po-loc | rf as coherence", False),
        ("flag " + COHERENCE, False),
        ("acyclic po-loc | com | ppo as coherence", True),
    ],
    ids=["as-shipped", "deleted", "po-loc-rf", "flag", "with-ppo"],
)
def test_synthetic_lkmm_variants(coherence, expected):
    assert _lkmm_with(coherence).sc_per_location is expected


def test_model_that_does_not_compile():
    model = CatModel.from_source(
        "let com = rf | co\nacyclic (po & loc) | com | undefined-rel\n"
    )
    assert model.sc_per_location is False


def test_one_model_without_the_property_keeps_the_full_stream():
    program = library.get("CoRR")
    full = sum(1 for _ in candidate_executions(program))
    filtered = sum(1 for _ in candidate_executions(program, True))
    assert filtered < full
    lkmm, c11 = load_model("lkmm"), load_model("c11")
    alone = run_litmus_many([lkmm], program)
    assert alone[lkmm.name].candidates == filtered
    mixed = run_litmus_many([lkmm, c11], program)
    assert mixed[lkmm.name].candidates == mixed[c11.name].candidates == full
    assert mixed[lkmm.name].verdict == alone[lkmm.name].verdict


def test_run_litmus_keyword_is_checked_not_selecting():
    program = library.get("CoRR")
    lkmm = LinuxKernelModel()
    assert (
        run_litmus(lkmm, program, require_sc_per_location=True).candidates
        == run_litmus(lkmm, program).candidates
    )
    with pytest.raises(ValueError):
        run_litmus(load_model("c11"), program, require_sc_per_location=True)


@pytest.fixture(scope="module")
def full_streams():
    """Each library test's unfiltered candidates, with whether each one
    violates ``acyclic(po-loc | com)``."""
    return {
        name: [
            (execution, not (execution.po_loc | execution.com).is_acyclic())
            for execution in candidate_executions(library.get(name))
        ]
        for name in library.all_names()
    }


@pytest.mark.parametrize("key", ["lkmm-native", "lkmm", "tso", "sc", "c11"])
def test_filtered_sweep_matches_the_unfiltered_enumeration(full_streams, key):
    model = LinuxKernelModel() if key == "lkmm-native" else load_model(key)
    dropped_somewhere = False
    for name, stream in full_streams.items():
        program = library.get(name)
        result = run_litmus(model, program)
        allowed = [x for x, _ in stream if model.allows(x)]
        expected = RunResult(
            program=program,
            model_name=model.name,
            candidates=len(stream),
            allowed=len(allowed),
            witnesses=sum(
                program.condition.evaluate(x.final_state) for x in allowed
            ),
            states={x.final_state for x in allowed},
        )
        assert result.verdict == expected.verdict, name
        assert result.allowed == expected.allowed, name
        assert result.witnesses == expected.witnesses, name
        assert result.states == expected.states, name
        violating = sum(violates for _, violates in stream)
        if model.sc_per_location:
            assert result.candidates == len(stream) - violating, name
            dropped_somewhere |= violating > 0
        else:
            assert result.candidates == len(stream), name
    assert dropped_somewhere or not model.sc_per_location
