"""The must/may evaluator behind the symbolic prover's Forbid proofs.

:mod:`repro.analysis.symbolic.match` evaluates compiled cat IR over all
skeleton events into ``must`` ⊆ real ⊆ ``may`` bitset matrices.  These
tests pin the rules whose soundness is not obvious from the code — the
full ``may`` of operators that compose through possibly-initial events,
least-fixpoint ``rec`` groups, the ``rf^-1 ; co`` fusion — plus a long
corpus cycle the evaluator proves without enumerating, and a fuzz
property that fresh diy cycles never make a static decision contradict
the oracle.
"""

from __future__ import annotations

from pathlib import Path

from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro.analysis.catir import ir
from repro.analysis.catir.compile import compile_source
from repro.analysis.symbolic import decide
from repro.analysis.symbolic.footprint import (
    guaranteed_edges,
    resolve_footprint,
)
from repro.analysis.symbolic.match import EdgeSet, MustMay, violated_check
from repro.analysis.symbolic.prover import compiled_model
from repro.analysis.symbolic.skeleton import SkelEvent, extract_skeleton
from repro.cat import load_model
from repro.corpus.golden import load_golden
from repro.diy.edges import ANY, EDGES
from repro.diy.generator import CycleError, generate
from repro.events import ONCE, READ, WRITE
from repro.herd import run_litmus
from repro.kernel import config as kconfig
from repro.litmus import library
from repro.obs import core as obs

CORPUS_PATH = Path(__file__).parent / "data" / "golden_corpus.jsonl"

RF = ir.base("rf", ir.REL)
CO = ir.base("co", ir.REL)
PO = ir.base("po", ir.REL)


def _pairs(values: MustMay, rows):
    """The ``(key, key)`` pairs of a row list."""
    events = values.events
    return {
        (a.key, events[j].key)
        for a, row in zip(events, rows)
        for j in range(values.n)
        if row >> j & 1
    }


def _mp_values():
    program = library.get("MP+wmb+rmb")
    skeleton = extract_skeleton(program)
    edges = guaranteed_edges(
        skeleton, resolve_footprint(skeleton, program.condition.body)
    )
    events = [e for thread in skeleton.threads for e in thread.events]
    return MustMay(events, edges)


# ---------------------------------------------------------------------------
# may: full where intermediates can be initial writes


def test_may_of_seq_plus_star_is_full_because_initial_writes_can_be_intermediates():
    # ``rf^-1 ; [IW] ; co`` relates a read of the initial value to every
    # write of its location, through an initial write that is not a
    # skeleton event.  A may built from skeleton intermediates alone
    # would be empty — and would refute a real pair.
    values = MustMay(
        [SkelEvent(0, 0, READ, ONCE, "x"), SkelEvent(1, 0, WRITE, ONCE, "x")],
        EdgeSet(),
    )
    through_init = ir.seq([ir.inverse(RF), ir.setid(ir.base("IW", ir.SET)), CO])
    for node in (through_init, ir.plus(through_init), ir.star(through_init)):
        may = values.relation(node)[1]
        assert may == values.everything, node.pstr
        assert ((0, 0), (1, 0)) in _pairs(values, may)
    # seq of exact operands is still full: the rule is per operator.
    assert values.relation(ir.seq([PO, PO]))[1] == values.everything


def test_exact_bases_have_equal_must_and_may():
    values = _mp_values()
    for name in ("po", "int", "ext", "loc", "id", "addr", "data", "ctrl"):
        must, may = values.relation(ir.base(name, ir.REL))
        assert must == may, name
    po = _pairs(values, values.must(PO))
    assert ((0, 0), (0, 2)) in po and ((0, 2), (0, 0)) not in po


# ---------------------------------------------------------------------------
# rec: Kleene iteration from empty


_REC_MODEL = """
let rec chain = rf | (chain ; po ; rf)
let rec self = self | (self ; po)
let rec left = right and right = left
irreflexive self as self-loop
acyclic left as left-loop
acyclic chain as chain-loop
"""


def _relay():
    """P0 writes x; P1 and P2 each read and forward; P3 reads z."""
    w0 = SkelEvent(0, 0, WRITE, ONCE, "x", 1)
    r1, w1 = SkelEvent(1, 0, READ, ONCE, "x"), SkelEvent(1, 1, WRITE, ONCE, "y", 1)
    r2, w2 = SkelEvent(2, 0, READ, ONCE, "y"), SkelEvent(2, 1, WRITE, ONCE, "z", 1)
    r3 = SkelEvent(3, 0, READ, ONCE, "z")
    rf = frozenset({(w0.key, r1.key), (w1.key, r2.key), (w2.key, r3.key)})
    return [w0, r1, w1, r2, w2, r3], EdgeSet(rf=rf)


def test_rec_reaches_its_least_fixpoint():
    compiled = compile_source(_REC_MODEL, "rec-test")
    events, edges = _relay()
    values = MustMay(events, edges)
    chain = _pairs(values, values.must(compiled.definitions["chain"]))
    # rf, rf;po;rf and rf;po;rf;po;rf: three iterations past the seed.
    assert chain == {
        ((0, 0), (1, 0)), ((1, 1), (2, 0)), ((2, 1), (3, 0)),
        ((0, 0), (2, 0)), ((1, 1), (3, 0)),
        ((0, 0), (3, 0)),
    }
    assert values.relation(compiled.definitions["chain"])[1] == values.everything


def test_rec_never_proves_itself_from_its_own_seed():
    compiled = compile_source(_REC_MODEL, "rec-test")
    events, edges = _relay()
    values = MustMay(events, edges)
    for name in ("self", "left", "right"):
        assert values.must(compiled.definitions[name]) == values.zero, name
    # The only axiom whose root is non-empty is the acyclic chain, and
    # the relay has no cycle.
    assert violated_check(events, edges, compiled.checks) is None


# ---------------------------------------------------------------------------
# fr fusion


def test_fr_fusion_holds_when_the_read_observes_the_initial_write():
    values = _mp_values()
    fr = ir.seq([ir.inverse(RF), CO])
    # 1:r1=0 reads the initial x: its rf source and coherence successor
    # meet at the initial write, which no skeleton intermediate can
    # stand in for — only the pinned from-read edge proves the pair.
    assert values.edges.fr == frozenset({((1, 2), (0, 0))})
    assert _pairs(values, values.must(fr)) == {((1, 2), (0, 0))}
    assert values.must(ir.inverse(RF)) != values.zero
    assert values.must(CO) == values.zero
    compiled = compiled_model(load_model("lkmm"))
    assert violated_check(values.events, values.edges, compiled.checks)


# ---------------------------------------------------------------------------
# A long corpus cycle


LONG_CYCLE = (
    "AcqdR+Fre+MbdWR+DpDatadW+Rfe+RmbdRR+SyncdRR+Fre+MbdWW+Coe+SyncdWW"
    "+Rfe+DpAddrRbDepdR+rcu-lock"
)


def test_thirteen_edge_corpus_cycle_is_forbidden_without_enumeration():
    golden = {test.name: (test, row) for test, row in load_golden(CORPUS_PATH)}
    test, locked = golden[LONG_CYCLE]
    assert locked["LKMM"] == "Forbid"
    with obs.collect() as collector:
        decision = decide(load_model("lkmm"), test.program)
    assert decision is not None
    assert (decision.verdict, decision.reason) == ("Forbid", "critical-cycle")
    assert collector.counters.get("enumerate.candidates", 0) == 0
    assert collector.counters.get("static.match", 0) >= 1


# ---------------------------------------------------------------------------
# Fuzz: fresh diy cycles, static decision vs the oracle


_EXTERNAL = sorted(name for name, e in EDGES.items() if e.external)


def _joins(prev, nxt) -> bool:
    return nxt.src in (ANY, prev.tgt)


@st.composite
def diy_cycles(draw):
    """Edge-name cycles of 3-6 edges whose endpoint kinds line up."""
    length = draw(st.integers(min_value=3, max_value=6))
    names = [draw(st.sampled_from(_EXTERNAL))]
    for _ in range(length - 1):
        prev = EDGES[names[-1]]
        names.append(draw(st.sampled_from(
            sorted(n for n, e in EDGES.items() if _joins(prev, e))
        )))
    return names


@given(diy_cycles(), st.sampled_from(["lkmm", "c11", "tso", "armv8"]))
@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
def test_random_cycle_decisions_agree_with_the_oracle(edges, model_key):
    try:
        program = generate(edges)
    except CycleError:
        assume(False)
    model = load_model(model_key)
    decision = decide(model, program)
    if decision is None:
        return
    with kconfig.use_oracle():
        oracle = run_litmus(model, program)
    assert decision.verdict == oracle.verdict, (
        f"{program.name}/{model.name}: static {decision.describe()} "
        f"vs oracle {oracle.verdict}"
    )
