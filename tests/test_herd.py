"""Tests for the top-level herd-style runner."""

import pytest

from repro.herd import ALLOW, FORBID, run_litmus, run_litmus_many, verdicts
from repro.litmus import dsl, library
from repro.lkmm import LinuxKernelModel
from repro.rcu import inline_rcu
from repro.rcu.implementation import _project


class TestRunLitmus:
    def test_counts_consistent(self, lkmm, mp_program):
        result = run_litmus(lkmm, mp_program)
        assert result.candidates == 4
        assert result.allowed == 3
        assert result.witnesses == 0
        assert result.verdict == FORBID

    def test_witness_execution_kept(self, lkmm, sb_program):
        result = run_litmus(lkmm, sb_program)
        assert result.verdict == ALLOW
        assert result.witness_execution is not None
        assert sb_program.condition.evaluate(
            result.witness_execution.final_state
        )

    def test_forbidden_witness_kept(self, lkmm, mp_program):
        result = run_litmus(lkmm, mp_program)
        assert result.forbidden_witness is not None
        assert mp_program.condition.evaluate(
            result.forbidden_witness.final_state
        )

    def test_states_collected(self, lkmm, mp_program):
        result = run_litmus(lkmm, mp_program)
        assert len(result.states) == 3

    def test_observation_summary(self, lkmm):
        result = run_litmus(lkmm, library.get("SB"))
        assert result.observation == "Sometimes"
        result = run_litmus(lkmm, library.get("MP+wmb+rmb"))
        assert result.observation == "Never"

    def test_describe_mentions_name_and_verdict(self, lkmm, mp_program):
        text = run_litmus(lkmm, mp_program).describe()
        assert "MP+wmb+rmb" in text and "Forbid" in text

    def test_forall_condition(self, lkmm):
        program = dsl.program(
            "forall-test",
            dsl.thread(dsl.write_once("x", 1)),
            condition=dsl.forall(dsl.LocValue("x", 1)),
        )
        assert run_litmus(lkmm, program).verdict == ALLOW

    def test_forall_fails_when_not_universal(self, lkmm):
        program = dsl.program(
            "forall-fail",
            dsl.thread(dsl.read_once("r0", "x")),
            dsl.thread(dsl.write_once("x", 1)),
            condition=dsl.forall(dsl.RegValue(0, "r0", 1)),
        )
        assert run_litmus(lkmm, program).verdict == FORBID

    def test_no_condition_counts_everything(self, lkmm):
        program = dsl.program("plain", dsl.thread(dsl.write_once("x", 1)))
        result = run_litmus(lkmm, program)
        assert result.witnesses == result.allowed == 1


def _registers(state):
    return frozenset(state.registers.items())


class TestOutcomeKey:
    """``run_litmus_many(..., outcome_key=...)`` model-checks one allowed
    execution per key (and condition match), yet keeps the full run's
    keyed states and verdicts."""

    @pytest.mark.parametrize(
        "name", ["MP", "SB", "IRIW", "2+2W", "RCU-MP", "RCU-MP+urcu"]
    )
    def test_states_are_the_keyed_states_of_a_full_run(
        self, lkmm, lkmm_cat, name
    ):
        if name.endswith("+urcu"):
            program = inline_rcu(library.get("RCU-MP"), loop_bound=1)
        else:
            program = library.get(name)
        models = [lkmm, lkmm_cat]
        full = run_litmus_many(models, program)
        for key in (lambda state: state, _project, _registers):
            keyed = run_litmus_many(models, program, outcome_key=key)
            for model in models:
                want, got = full[model.name], keyed[model.name]
                assert got.states == {key(state) for state in want.states}
                assert got.candidates == want.candidates
                assert got.allowed <= want.allowed
                assert got.verdict == want.verdict
                assert got.complete

    def test_a_key_blind_to_the_condition_keeps_every_verdict(self, lkmm):
        # One key for every state: at most one allowed execution that
        # meets the condition and one that misses it are checked.
        for program in library.all_tests():
            full = run_litmus(lkmm, program)
            keyed = run_litmus_many(
                [lkmm], program, outcome_key=lambda state: None
            )[lkmm.name]
            assert keyed.verdict == full.verdict, program.name
            assert keyed.states == ({None} if full.states else set())
            assert keyed.allowed <= 2
            assert keyed.candidates == full.candidates

    def test_fewer_model_checks(self, lkmm, monkeypatch):
        program = inline_rcu(library.get("RCU-MP"), loop_bound=1)
        calls = [0]
        original = LinuxKernelModel.allows

        def counting(self, execution):
            calls[0] += 1
            return original(self, execution)

        monkeypatch.setattr(LinuxKernelModel, "allows", counting)
        full = run_litmus(lkmm, program)
        full_calls, calls[0] = calls[0], 0
        keyed = run_litmus_many([lkmm], program, outcome_key=_project)
        assert full_calls == full.candidates == 48
        assert calls[0] < full_calls
        assert keyed[lkmm.name].allowed == 3 < full.allowed == 17


class TestVerdictsTable:
    def test_multiple_models(self, lkmm, c11):
        table = verdicts([lkmm, c11], [library.get("RWC+mbs")])
        row = table["RWC+mbs"]
        assert row["LKMM"] == FORBID
        assert row["C11"] == ALLOW
