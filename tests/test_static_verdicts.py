"""The symbolic prover's contract, frozen and cross-checked.

``tests/data/static_verdicts.json`` freezes what the critical-cycle
prover decides for the whole litmus library under the four golden
models (regenerated only by ``benchmarks/regen_static_verdicts.py``).
This suite holds the prover's three guarantees:

* **soundness** — a statically decided cell NEVER contradicts the
  kernel: every ``Decided-*`` cell must equal the enumerated verdict in
  ``tests/data/verdicts_golden.json``, and over the 500-test golden
  corpus every decision must match the locked sweep rows, in production
  and under the oracle;
* **coverage** — at least 40% of the library is decided under LKMM,
  at least 1758 of the 1839 golden-corpus cells are decided, Forbid
  proofs enumerate zero candidates, the 3–6-thread ISA2 fence chains
  are critical-cycle Forbid proofs, and the drivers surface the
  ``static.decided`` counter;
* **stability** — the decided/unknown map itself must not drift
  silently (a matcher regression that loses proofs fails here with the
  exact cells named).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.symbolic import decide, static_verdict
from repro.cat import load_model
from repro.corpus.golden import load_golden
from repro.corpus.sweep import CORPUS_MODELS, NOT_APPLICABLE, _model
from repro.hardware import CompileError, compile_program, get_arch
from repro.herd import run_litmus_many, verdicts
from repro.kernel import config as kconfig
from repro.litmus import library
from repro.litmus.parser import parse_litmus
from repro.obs import core as obs

DATA = Path(__file__).parent / "data"
SNAPSHOT_PATH = DATA / "static_verdicts.json"
GOLDEN_PATH = DATA / "verdicts_golden.json"
CORPUS_PATH = DATA / "golden_corpus.jsonl"

REGEN_HINT = (
    "static-verdict snapshot drifted; if the change is intentional, rerun "
    "`PYTHONPATH=src python benchmarks/regen_static_verdicts.py` and "
    "review the diff"
)

#: Both kernel configurations, named for the relation backend each runs
#: on: production (bitset) and the oracle (frozenset).
BACKENDS = {"bitset": False, "frozenset": True}


@pytest.fixture(scope="module")
def snapshot():
    return json.loads(SNAPSHOT_PATH.read_text())


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def _models(snapshot):
    return [load_model(name) for name in snapshot["models"]]


def test_snapshot_covers_whole_library(snapshot):
    assert set(snapshot["static"]) == set(library.all_names()), REGEN_HINT


def test_decided_cells_match_enumerated_golden(snapshot, golden):
    """Soundness over the library: a static proof never contradicts the
    enumerated verdict the golden snapshot froze."""
    contradictions = []
    for test_name, row in snapshot["static"].items():
        for model_name, cell in row.items():
            if cell == "Unknown":
                continue
            static = cell.removeprefix("Decided-")
            enumerated = golden["verdicts"][test_name][model_name]
            if static != enumerated:
                contradictions.append(
                    f"{test_name}/{model_name}: static {static} "
                    f"vs enumerated {enumerated}"
                )
    assert contradictions == [], contradictions


@pytest.mark.parametrize("backend", BACKENDS)
def test_library_decisions_are_stable(snapshot, backend):
    """Drift guard, in both kernel configurations: the prover reproduces
    the frozen decided/unknown map cell for cell."""
    models = _models(snapshot)
    drifted = []
    with kconfig.use_oracle(BACKENDS[backend]):
        for test_name in sorted(snapshot["static"]):
            program = library.get(test_name)
            for model in models:
                decision = decide(model, program)
                cell = (
                    "Unknown"
                    if decision is None
                    else f"Decided-{decision.verdict}"
                )
                if cell != snapshot["static"][test_name][model.name]:
                    drifted.append(
                        f"{test_name}/{model.name} [{backend}]: "
                        f"{snapshot['static'][test_name][model.name]} "
                        f"-> {cell}"
                    )
    assert drifted == [], f"{drifted[:10]} {REGEN_HINT}"


def test_lkmm_coverage_floor(snapshot):
    """At least 40% of the library must stay statically decided under
    LKMM — the headline number of the ISSUE."""
    cells = [row["LKMM"] for row in snapshot["static"].values()]
    decided = sum(1 for cell in cells if cell != "Unknown")
    assert decided / len(cells) >= 0.40, f"{decided}/{len(cells)} decided"


def test_forbid_proofs_enumerate_nothing(snapshot):
    """A static Forbid is pure proof: deciding it must not enumerate a
    single candidate execution."""
    models = {model.name: model for model in _models(snapshot)}
    checked = 0
    with obs.collect() as collector:
        for test_name, row in snapshot["static"].items():
            program = library.get(test_name)
            for model_name, cell in row.items():
                if cell != "Decided-Forbid":
                    continue
                decision = decide(models[model_name], program)
                assert decision is not None and decision.verdict == "Forbid"
                checked += 1
    assert checked > 0
    assert collector.counters.get("enumerate.candidates", 0) == 0
    assert collector.counters.get("enumerate.trace_combos", 0) == 0


def test_static_counters_surface(snapshot):
    """The drivers' profile counters: decided and fallback both tick."""
    model = load_model("lkmm")
    with obs.collect() as collector:
        assert static_verdict(model, library.get("MP+wmb+rmb")) == "Forbid"
        assert static_verdict(model, library.get("LB+ctrl+mb")) is None
    assert collector.counters.get("static.decided") == 1
    assert collector.counters.get("static.fallback") == 1


def _isa2_chain(threads):
    """An ISA2-style message chain of ``threads`` threads: each middle
    thread reads the previous flag under ``smp_mb()`` before raising the
    next, the last thread looks back at the first store.  Forbidden under
    LKMM for every length; the candidate space doubles per thread while
    the critical cycle merely gains two positions."""
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


ISA2_CHAINS = [_isa2_chain(n) for n in (3, 4, 5, 6)]


def test_isa2_chains_are_proved_forbidden():
    """The fence-chain family is a critical-cycle proof at every length."""
    model = load_model("lkmm")
    with kconfig.use_oracle(False):
        for program in ISA2_CHAINS:
            decision = decide(model, program)
            assert decision is not None, program.name
            assert (decision.verdict, decision.reason) == (
                "Forbid",
                "critical-cycle",
            ), program.name


def test_isa2_chain_verdicts_match_enumeration():
    """``verdicts`` (a condition-directed sweep in production) equals the
    table built by enumerating every candidate, and every chain is
    Forbid, as the prover proves."""
    models = [load_model("lkmm")]
    table = verdicts(models, ISA2_CHAINS)
    enumerated = {}
    for program in ISA2_CHAINS:
        results = run_litmus_many(models, program)
        enumerated[program.name] = {
            name: result.verdict for name, result in results.items()
        }
    assert table == enumerated
    assert all(row == {"LKMM": "Forbid"} for row in table.values()), table


def _corpus_cells():
    for test, locked in load_golden(CORPUS_PATH):
        for spec in CORPUS_MODELS:
            expected = locked[spec.name]
            if expected == NOT_APPLICABLE:
                continue
            program = test.program
            if spec.arch is not None:
                try:
                    program = compile_program(
                        program, get_arch(spec.arch), rcu="error"
                    )
                except CompileError:
                    continue
            yield test.name, spec, program, expected


#: Corpus coverage floor: cells the prover decides out of those it is
#: asked (every applicable, compilable golden-corpus cell).
CORPUS_DECIDED_FLOOR = (1758, 1839)


@pytest.mark.parametrize("backend", BACKENDS)
def test_corpus_decisions_match_locked_rows(backend):
    """Soundness over the golden stress corpus: 500 generated tests,
    the full 6-model battery, both kernel configurations — a static
    decision must equal the locked enumerated verdict every single time.
    Coverage is pinned too: a regression that loses proofs fails with
    the decided count."""
    contradictions = []
    decided = cells = 0
    with kconfig.use_oracle(BACKENDS[backend]):
        for name, spec, program, expected in _corpus_cells():
            cells += 1
            decision = decide(_model(spec.key), program)
            if decision is None:
                continue
            decided += 1
            if decision.verdict != expected:
                contradictions.append(
                    f"{name}/{spec.name} [{backend}]: static "
                    f"{decision.verdict} ({decision.reason}) "
                    f"vs locked {expected}"
                )
    assert contradictions == [], contradictions[:10]
    floor, total = CORPUS_DECIDED_FLOOR
    assert cells == total, f"{cells} corpus cells, expected {total}"
    assert decided >= floor, f"decided {decided}/{cells}, floor {floor}"
