"""Equivalence of the production kernel with the oracle.

The performance layer must be invisible: production (bitset relations,
incremental per-trace checking, the bytecode VM, condition-directed
enumeration)
and the parallel driver all have to produce exactly the results of the
oracle (``REPRO_ORACLE=1``: frozenset-of-pairs relations, naive
enumerate-then-filter, the statement walker).  This suite checks that
three ways:

* property tests driving every relation operator through both backends on
  random relations;
* whole litmus runs (native and cat LKMM) compared between production,
  the oracle and the parallel driver — verdicts, candidate/allowed/
  witness counts, and final-state sets must be identical;
* unit tests for the bitset primitives themselves.
"""

import pickle
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.cat import load_model
from repro.corpus.golden import load_golden
from repro.events import Event, ONCE, READ, WRITE
from repro.executions.enumerate import candidate_executions
from repro.herd import run_litmus, run_litmus_many, verdicts
from repro.kernel import config as kconfig
from repro.kernel.bitrel import (
    EventIndex,
    _bits,
    find_cycle_rows,
    index_for,
    reaches,
)
from repro.litmus import dsl, library
from repro.litmus.parser import parse_litmus
from repro.lkmm import LinuxKernelModel
from repro.rcu.implementation import inline_rcu
from repro.relations import EventSet, Relation


def _events(n):
    return [
        Event(
            eid=i,
            tid=i % 2,
            po_index=i // 2,
            kind=READ if i % 3 else WRITE,
            tag=ONCE,
            loc="x" if i % 2 else "y",
            value=i,
        )
        for i in range(n)
    ]


GOLDEN_PATH = Path(__file__).parent / "data" / "golden_corpus.jsonl"

N = 7
EVENTS = _events(N)
UNIVERSE = frozenset(EVENTS)

index_pairs = st.lists(
    st.tuples(st.integers(0, N - 1), st.integers(0, N - 1)), max_size=24
)


def _rel(indices):
    return Relation(
        [(EVENTS[a], EVENTS[b]) for a, b in indices], UNIVERSE
    )


def _both(op):
    """Evaluate ``op`` in production (bitset) and in the oracle
    (frozenset)."""
    with kconfig.use_oracle(False):
        fast = op()
    with kconfig.use_oracle():
        reference = op()
    return fast, reference


def _assert_same_relation(fast, reference):
    assert fast.pairs == reference.pairs
    assert len(fast) == len(reference)
    assert fast.is_empty() == reference.is_empty()


class TestOperatorEquivalence:
    """Every operator, both backends, random inputs."""

    @settings(max_examples=60, deadline=None)
    @given(a=index_pairs, b=index_pairs)
    def test_binary_operators(self, a, b):
        for op in (
            lambda: _rel(a) | _rel(b),
            lambda: _rel(a) & _rel(b),
            lambda: _rel(a) - _rel(b),
            lambda: _rel(a).sequence(_rel(b)),
        ):
            fast, reference = _both(op)
            _assert_same_relation(fast, reference)

    @settings(max_examples=60, deadline=None)
    @given(a=index_pairs)
    def test_unary_operators(self, a):
        for op in (
            lambda: ~_rel(a),
            lambda: _rel(a).inverse(),
            lambda: _rel(a).optional(),
            lambda: _rel(a).transitive_closure(),
            lambda: _rel(a).reflexive_transitive_closure(),
            lambda: _rel(a).domain().identity(),
            lambda: _rel(a).range().identity(),
        ):
            fast, reference = _both(op)
            _assert_same_relation(fast, reference)

    @settings(max_examples=60, deadline=None)
    @given(a=index_pairs)
    def test_predicates(self, a):
        def run():
            r = _rel(a)
            return (
                r.is_irreflexive(),
                r.transitive_closure().is_irreflexive(),
                sorted((p.eid, q.eid) for p, q in r.reflexive_pairs()),
            )

        assert _both(run)[0] == _both(run)[1]

    @settings(max_examples=60, deadline=None)
    @given(a=index_pairs)
    def test_find_cycle_agreement(self, a):
        def cycle():
            return _rel(a).find_cycle()

        fast, reference = _both(cycle)
        # Both backends must agree on *whether* there is a cycle; the
        # witness cycle itself may legitimately differ, but must be real.
        assert (fast is None) == (reference is None)
        if fast is not None:
            # find_cycle returns [e0, ..., e0]: start repeated at the end.
            r = _rel(a)
            assert fast[0] == fast[-1]
            assert all((p, q) in r for p, q in zip(fast, fast[1:]))

    @settings(max_examples=40, deadline=None)
    @given(a=index_pairs, b=index_pairs)
    def test_restrict_and_product(self, a, b):
        dom = EventSet([EVENTS[i] for i in range(0, N, 2)], UNIVERSE)
        rng = EventSet([EVENTS[i] for i in range(1, N, 2)], UNIVERSE)

        def restricted():
            return _rel(a).restrict(domain=dom, range_=rng)

        fast, reference = _both(restricted)
        _assert_same_relation(fast, reference)

        fast, reference = _both(lambda: dom.product(rng))
        _assert_same_relation(fast, reference)


class TestBitsetPrimitives:
    def test_bits_iterates_lowest_first(self):
        assert list(_bits(0b101101)) == [0, 2, 3, 5]
        assert list(_bits(0)) == []

    def test_event_index_is_eid_sorted(self):
        index = EventIndex(UNIVERSE)
        assert [e.eid for e in index.events] == list(range(N))
        assert index.pos[EVENTS[3]] == 3
        assert index.mask_of([EVENTS[0], EVENTS[2]]) == 0b101

    def test_index_cache_is_identity_keyed(self):
        # Universes compare by eid only, so equal-looking frozensets from
        # different trace combinations must NOT share an index.
        other_universe = frozenset(_events(N))
        assert other_universe == UNIVERSE
        assert index_for(UNIVERSE) is index_for(UNIVERSE)
        assert index_for(UNIVERSE) is not index_for(other_universe)

    def test_dense_roundtrip(self):
        pairs = [(EVENTS[0], EVENTS[1]), (EVENTS[5], EVENTS[2])]
        with kconfig.use_oracle(False):
            dense = Relation(pairs, UNIVERSE)
        assert dense.index is index_for(UNIVERSE)
        assert set(dense.pairs) == set(pairs)
        assert len(dense) == 2

    def test_reaches(self):
        # 0 -> 1 -> 2, 3 isolated.
        rows = [0b0010, 0b0100, 0, 0]
        assert reaches(rows, 0, 0b0100)  # 0 reaches 2
        assert not reaches(rows, 2, 0b0001)  # 2 does not reach 0
        assert not reaches(rows, 3, 0b0111)

    def test_acyclicity(self):
        with kconfig.use_oracle(False):
            chain = Relation(
                [(EVENTS[i], EVENTS[i + 1]) for i in range(N - 1)], UNIVERSE
            )
            looped = Relation(
                [(EVENTS[i], EVENTS[i + 1]) for i in range(N - 1)]
                + [(EVENTS[N - 1], EVENTS[0])],
                UNIVERSE,
            )
        assert find_cycle_rows(chain.rows) is None
        assert chain.is_acyclic()
        assert find_cycle_rows(looped.rows) is not None
        assert not looped.is_acyclic()
        assert looped.find_cycle() is not None


#: A cross-section of the library: message passing, store buffering, RCU,
#: RMW, and a 3-thread chain (ISA2/Z6-style tests touch multiple locations).
EQUIV_TESTS = [
    "MP+wmb+rmb",
    "MP+wmb+addr",
    "SB",
    "SB+mbs",
    "LB+ctrl+mb",
    "R+mbs",
    "RCU-MP",
    "At-inc",
]


#: A read of a location that only a pointer names: it gets no initial
#: write and no coherence order.
POINTER_ONLY_LOCATION = """C pointer-only-location
{ p = &y; }
P0(int **p)
{
  int *r1;
  int r2;
  r1 = READ_ONCE(*p);
  WRITE_ONCE(*r1, 1);
  r2 = READ_ONCE(*r1);
}
P1(int **p)
{
  int *r3;
  r3 = READ_ONCE(*p);
  WRITE_ONCE(*r3, 2);
}
exists (0:r2=2)
"""

#: Golden-corpus rows compared in order by the stream test (fixed sample).
CORPUS_STREAM_SAMPLE = 12


def _stream_programs():
    """Programs whose production and oracle candidate streams must match:
    SB+mbs, multi-location multi-write library tests, the inlined RCU-MP
    (loop bounds 1 and 2) and RCU-deferred-free, a pointer-only location,
    a po-loc | rf self-cycle, and a seeded golden-corpus sample."""
    programs = {
        name: library.get(name)
        for name in ("SB+mbs", "2+2W", "IRIW", "WRC", "PeterZ")
    }
    programs["RCU-MP@1"] = inline_rcu(library.get("RCU-MP"), loop_bound=1)
    programs["RCU-MP@2"] = inline_rcu(library.get("RCU-MP"), loop_bound=2)
    programs["RCU-deferred-free@1"] = inline_rcu(
        library.get("RCU-deferred-free"), loop_bound=1
    )
    programs["pointer-only-location"] = parse_litmus(POINTER_ONLY_LOCATION)
    # The read may only take the initial write: reading its own po-later
    # write is a po-loc | rf cycle that no co order can introduce.
    programs["read-own-later-write"] = dsl.program(
        "read-own-later-write",
        dsl.thread(dsl.read_once("r0", "x"), dsl.write_once("x", 1)),
    )
    rows = load_golden(GOLDEN_PATH)
    for test, _ in random.Random(15).sample(rows, CORPUS_STREAM_SAMPLE):
        programs[f"corpus:{test.name}"] = test.program
    return programs


def _library_subset():
    names = set(library.all_names())
    unknown = [name for name in EQUIV_TESTS if name not in names]
    if unknown:
        raise KeyError(f"EQUIV_TESTS names no library test: {unknown}")
    return EQUIV_TESTS


def _summary(result):
    return (
        result.verdict,
        result.candidates,
        result.allowed,
        result.witnesses,
        result.states,
    )


class TestWholeRunEquivalence:
    @pytest.fixture(scope="class")
    def models(self):
        return [LinuxKernelModel(), load_model("lkmm")]

    @pytest.mark.parametrize("name", _library_subset())
    def test_backends_and_incremental_agree(self, models, name):
        program = library.get(name)
        for model in models:
            with kconfig.use_oracle(False):
                fast = _summary(run_litmus(model, program))
            with kconfig.use_oracle():
                reference = _summary(run_litmus(model, program))
            assert fast == reference

    @pytest.mark.parametrize("name", _library_subset())
    def test_unfiltered_enumeration_agrees(self, models, name):
        # C11 lacks sc_per_location, so a run that includes it takes the
        # full stream: production's per-location sweep without the
        # SC-per-location filter against the oracle's naive product.
        program = library.get(name)
        battery = [models[0], load_model("c11")]

        def run():
            results = run_litmus_many(battery, program)
            return [_summary(results[model.name]) for model in battery]

        with kconfig.use_oracle(False):
            fast = run()
        with kconfig.use_oracle():
            reference = run()
        assert fast == reference

    def test_candidate_streams_identical(self):
        # The per-location pruned enumerator must yield the same surviving
        # candidates, with the same events, in the same order as
        # filter-after-build: early exit and max_candidates partial
        # results depend on the order.
        def key(pairs):
            return sorted((a.eid, b.eid) for a, b in pairs)

        def stream(program):
            out = []
            for x in candidate_executions(program, require_sc_per_location=True):
                out.append(
                    (
                        key(x.rf.pairs),
                        key(x.co.pairs),
                        sorted((e.eid, e.kind, e.loc, e.value) for e in x.events),
                    )
                )
                # The production sweep runs on eids before any event
                # exists and builds rf/co rows from them: an eid must be
                # its event's bitset position.
                pos = index_for(x.universe).pos
                assert all(pos[e] == e.eid for e in x.events), program.name
            return out

        for name, program in _stream_programs().items():
            with kconfig.use_oracle(False):
                fast = stream(program)
            with kconfig.use_oracle():
                reference = stream(program)
            assert fast == reference, name
            assert fast, name  # every stream program has a candidate

    def test_parallel_verdicts_match_sequential(self):
        programs = [library.get(name) for name in _library_subset()[:5]]
        models = [LinuxKernelModel()]
        seq = verdicts(models, programs)
        par = verdicts(models, programs, jobs=2)
        assert seq == par

    def test_library_verdicts_agree_across_configs(self):
        # The whole litmus library: production vs the oracle vs the
        # parallel driver must produce one verdict table, for the native
        # and the cat LKMM.
        programs = library.all_tests()
        models = [LinuxKernelModel(), load_model("lkmm")]
        with kconfig.use_oracle(False):
            fast = verdicts(models, programs)
            parallel = verdicts(models, programs, jobs=2)
        with kconfig.use_oracle():
            reference = verdicts(models, programs)
        assert fast == reference
        assert fast == parallel

    def test_verdicts_enumerates_once_per_program(self, monkeypatch):
        import repro.herd as herd

        calls = []
        original = herd.candidate_executions_sharded

        def counting(program, *args, **kwargs):
            calls.append(program.name)
            return original(program, *args, **kwargs)

        monkeypatch.setattr(herd, "candidate_executions_sharded", counting)
        programs = [library.get("SB"), library.get("MP+wmb+rmb")]
        models = [LinuxKernelModel(), load_model("lkmm")]
        with kconfig.use_oracle():
            verdicts(models, programs)
        assert sorted(calls) == ["MP+wmb+rmb", "SB"]
        # Production runs the same one sweep per program (condition-
        # directed, with no pre-pass in front of it).
        calls.clear()
        with kconfig.use_oracle(False):
            verdicts(models, programs)
        assert sorted(calls) == ["MP+wmb+rmb", "SB"]


class TestPickling:
    def test_relation_roundtrip(self):
        relation = _rel([(0, 1), (1, 2), (5, 0)])
        clone = pickle.loads(pickle.dumps(relation))
        assert clone.pairs == relation.pairs
        assert clone.universe == relation.universe
        assert clone.transitive_closure().pairs == (
            relation.transitive_closure().pairs
        )

    def test_candidate_execution_roundtrip(self):
        program = library.get("SB")
        execution = next(iter(candidate_executions(program)))
        clone = pickle.loads(pickle.dumps(execution))
        assert clone.final_state == execution.final_state
        assert clone.rf.pairs == execution.rf.pairs
        assert clone.co.pairs == execution.co.pairs
        model = LinuxKernelModel()
        assert model.allows(clone) == model.allows(execution)


class TestModelCaching:
    def test_load_model_is_memoised(self):
        assert load_model("lkmm") is load_model("lkmm")

    def test_loaded_models_stay_correct_across_runs(self):
        model = load_model("lkmm")
        first = run_litmus(model, library.get("MP+wmb+rmb")).verdict
        second = run_litmus(model, library.get("MP+wmb+rmb")).verdict
        assert first == second == "Forbid"
