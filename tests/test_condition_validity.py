"""One condition-validity rule for the linter and the verdict path.

A condition that names a thread, register or location its program lacks
(:func:`repro.litmus.ast.condition_errors`) is a lint error (LIT002–
LIT004) and gets no verdict: every verdict entry raises
:class:`~repro.litmus.ast.LitmusError` with the linter's message, and
``repro-herd``/``repro-klitmus`` exit 2, in both kernel configurations.
"""

from __future__ import annotations

import json
import re

import pytest

from repro.analysis.litmuslint import lint_program
from repro.analysis.symbolic import decide
from repro.cat.eval import load_model
from repro.corpus.sweep import sweep_row
from repro.guard import Budget, guard
from repro.herd import run_litmus, verdict_row, verdicts
from repro.kernel.config import use_oracle
from repro.litmus.ast import LitmusError, condition_errors
from repro.litmus.parser import parse_litmus
from repro.lkmm import LinuxKernelModel
from repro.rcu.implementation import verify_implementation
from repro.tools.cli import EXIT_USAGE, corpus_main, herd_main, klitmus_main

#: ``P0: x=1`` / ``P1: r0=x`` with a condition in place of ``%s``.
TEMPLATE = """C ill-formed
{}
P0(int *x)
{
  WRITE_ONCE(*x, 1);
}
P1(int *x)
{
  int r0;
  r0 = READ_ONCE(*x);
}
exists (%s)
"""

#: Each ill-formed shape and the linter's code for it.  At the parent of
#: the rule, ``repro-herd`` judged these Forbid, Allow, Forbid, Forbid.
SHAPES = {"y=0": "LIT004", "~y=1": "LIT004", "1:r5=0": "LIT002", "3:r1=0": "LIT003"}


def _ill_formed(condition: str):
    return parse_litmus(TEMPLATE % condition)


def _lint_error(program) -> str:
    """The message of the program's one condition finding."""
    (finding,) = [f for f in lint_program(program) if f.code in SHAPES.values()]
    return finding.message


@pytest.fixture(params=[False, True], ids=["production", "oracle"])
def oracle(request):
    with use_oracle(request.param):
        yield request.param


@pytest.mark.parametrize("condition", sorted(SHAPES))
def test_run_litmus_refuses_with_the_linters_message(condition, oracle):
    program = _ill_formed(condition)
    (finding,) = [f for f in lint_program(program) if f.is_error]
    assert finding.code == SHAPES[condition]
    with pytest.raises(LitmusError) as raised:
        run_litmus(LinuxKernelModel(), program)
    assert finding.message in str(raised.value)
    assert finding.category in str(raised.value)


@pytest.mark.parametrize("condition", sorted(SHAPES))
def test_repro_herd_exits_2_with_the_linters_message(
    condition, oracle, tmp_path, capsys
):
    path = tmp_path / "ill-formed.litmus"
    path.write_text(TEMPLATE % condition)
    assert herd_main(["--model", "lkmm", str(path)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert _lint_error(_ill_formed(condition)) in captured.err
    assert captured.out == ""


def test_repro_klitmus_exits_2(tmp_path, capsys):
    path = tmp_path / "ill-formed.litmus"
    path.write_text(TEMPLATE % "1:r5=0")
    assert klitmus_main(["--arch", "x86", "--runs", "10", str(path)]) == EXIT_USAGE
    assert "condition-unknown-register" in capsys.readouterr().err


def test_repro_corpus_sweep_exits_2(tmp_path, capsys):
    row = {
        "name": "ill-formed", "family": "MP", "threads": 2, "edges": [],
        "digest": "0" * 16, "litmus": TEMPLATE % "3:r1=0",
    }
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(json.dumps(row) + "\n")
    argv = ["sweep", "--corpus", str(corpus), "-o", str(tmp_path / "m.json")]
    assert corpus_main(argv) == EXIT_USAGE
    assert "condition-unknown-thread" in capsys.readouterr().err


def test_every_verdict_path_refuses(oracle):
    program = _ill_formed("y=0")
    message = _lint_error(program)
    lkmm, c11 = load_model("lkmm"), load_model("c11")
    calls = [
        lambda: verdict_row([lkmm, c11], program),
        lambda: verdicts([lkmm], [program]),
        lambda: sweep_row(program),
        lambda: verify_implementation(program),
        lambda: decide(lkmm, program),  # the prover's static verdict
    ]
    for call in calls:
        with pytest.raises(LitmusError, match=re.escape(message)):
            call()
    # A budget degrades a verdict; it never stands in for the rule.
    with guard(Budget(max_candidates=0)), pytest.raises(LitmusError):
        verdict_row([lkmm], program)


def test_a_computed_store_address_may_name_any_location():
    # LIT004's exemption: a store through a register-held pointer can
    # write a location no literal address names, so `y=1` gets a verdict.
    program = parse_litmus(
        """C computed-store
{ p = &y; }
P0(int **p)
{
  int *r1;
  r1 = READ_ONCE(*p);
  WRITE_ONCE(*r1, 1);
}
exists (y=1)
"""
    )
    assert condition_errors(program) == []
    assert run_litmus(LinuxKernelModel(), program).verdict == "Allow"


def test_the_rule_is_the_linters_rule():
    # The linter reports exactly the rule's entries, in order, and the
    # verdict path's message lists them all.
    program = _ill_formed("3:r1=0 /\\ 1:r5=0 /\\ z=1 /\\ 0:r0=&w")
    errors = condition_errors(program)
    assert [category for category, _ in errors] == [
        "condition-unknown-thread",
        "condition-unknown-register",
        "condition-unknown-register",
        "condition-unknown-location",
        "condition-unknown-location",
    ]
    findings = [
        (f.category, f.message)
        for f in lint_program(program)
        if f.category.startswith("condition-unknown-")
    ]
    assert findings == errors
    with pytest.raises(LitmusError) as raised:
        run_litmus(LinuxKernelModel(), program)
    for _, message in errors:
        assert message in str(raised.value)
