"""Tests for candidate-execution enumeration."""

import itertools
from pathlib import Path

import pytest

from repro import obs
from repro.corpus.golden import load_golden
from repro.executions import candidate_executions, count_candidate_executions
from repro.executions import enumerate as enumeration
from repro.executions.thread_sem import enumerate_thread_traces, possible_value_sets
from repro.kernel import config as kconfig
from repro.kernel.skeleton import TraceSkeleton
from repro.litmus import dsl, library
from repro.litmus.outcomes import Exists, NotExists, pinned_atoms
from repro.litmus.parser import parse_litmus
from repro.rcu.implementation import inline_rcu
from repro.relations import Relation


GOLDEN_CORPUS = Path(__file__).parent / "data" / "golden_corpus.jsonl"


def execs(program, **kwargs):
    return list(candidate_executions(program, **kwargs))


class TestCounts:
    def test_single_thread_single_write(self):
        program = dsl.program("t", dsl.thread(dsl.write_once("x", 1)))
        assert count_candidate_executions(program) == 1

    def test_mp_has_four_candidates(self):
        # Two reads with two possible values each; single write per
        # location means co is forced.
        assert count_candidate_executions(library.get("MP")) == 4

    def test_coherence_order_enumerated(self):
        # Two writes to x from different threads: two coherence orders.
        program = dsl.program(
            "t",
            dsl.thread(dsl.write_once("x", 1)),
            dsl.thread(dsl.write_once("x", 2)),
        )
        assert count_candidate_executions(program) == 2

    def test_rf_choices_enumerated(self):
        # A read of value 1 with two same-value writers: two rf choices,
        # each with two co orders.
        program = dsl.program(
            "t",
            dsl.thread(dsl.write_once("x", 1)),
            dsl.thread(dsl.write_once("x", 1)),
            dsl.thread(dsl.read_once("r0", "x")),
        )
        executions = execs(program)
        reading_one = [
            x
            for x in executions
            if any(e.is_read and e.value == 1 for e in x.events)
        ]
        assert len(reading_one) == 4  # 2 rf sources x 2 co orders

    def test_unwritable_value_pruned(self):
        # The only values ever written to x are 0 (init); a trace choosing
        # any other value must not survive... there is none, so exactly one
        # execution exists.
        program = dsl.program("t", dsl.thread(dsl.read_once("r0", "x")))
        executions = execs(program)
        assert len(executions) == 1
        read = next(e for e in executions[0].events if e.is_read)
        assert read.value == 0


class TestStructure:
    def test_init_writes_present(self):
        program = library.get("MP")
        x = execs(program)[0]
        inits = [e for e in x.events if e.is_init]
        assert sorted(e.loc for e in inits) == ["x", "y"]

    def test_po_is_per_thread_total(self):
        x = execs(library.get("MP"))[0]
        for a, b in x.po.pairs:
            assert a.tid == b.tid
            assert a.po_index < b.po_index

    def test_rf_well_formed(self):
        for x in execs(library.get("MP+wmb+rmb")):
            targets = [b for _, b in x.rf.pairs]
            assert len(targets) == len(set(targets))  # one write per read
            for w, r in x.rf.pairs:
                assert w.is_write and r.is_read
                assert w.loc == r.loc and w.value == r.value

    def test_co_total_per_location(self):
        program = dsl.program(
            "t",
            dsl.thread(dsl.write_once("x", 1)),
            dsl.thread(dsl.write_once("x", 2)),
        )
        for x in execs(program):
            writes = [e for e in x.events if e.is_write and e.loc == "x"]
            assert x.co.is_total_order_on(writes)
            # Init write is co-first.
            init = next(e for e in writes if e.is_init)
            for other in writes:
                if other is not init:
                    assert (init, other) in x.co

    def test_rmw_relation(self):
        program = dsl.program("t", dsl.thread(dsl.xchg("r0", "x", 1)))
        x = execs(program)[0]
        assert len(x.rmw) == 1
        (read, write), = x.rmw.pairs
        assert read.is_read and write.is_write

    def test_final_state_registers_and_memory(self):
        program = library.get("MP")
        states = {x.final_state for x in execs(program)}
        # Memory is always x=1, y=1; registers vary.
        for state in states:
            assert state.memory["x"] == 1 and state.memory["y"] == 1
        regs = {
            (s.registers[(1, "r0")], s.registers[(1, "r1")]) for s in states
        }
        assert regs == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_labels_assigned_to_accesses(self):
        x = execs(library.get("MP"))[0]
        accesses = [e for e in x.events if e.is_memory_access and not e.is_init]
        assert all(e.label for e in accesses)
        fences = [e for e in x.events if e.is_fence]
        assert all(not e.label for e in fences)


class TestScpvPrefilter:
    def test_prefilter_only_removes_scpv_violations(self):
        program = library.get("CoRR")
        unfiltered = execs(program)
        filtered = execs(program, require_sc_per_location=True)
        assert len(filtered) < len(unfiltered)
        for x in filtered:
            assert (x.po_loc | x.com).is_acyclic()

    def test_prefilter_preserves_model_verdicts(self, lkmm):
        from repro.herd import run_litmus

        for name in ("MP+wmb+rmb", "SB", "CoRR", "At-inc"):
            program = library.get(name)
            a = run_litmus(lkmm, program)
            b = run_litmus(lkmm, program, require_sc_per_location=True)
            assert a.verdict == b.verdict
            assert a.witnesses == b.witnesses


class TestDerivedRelations:
    def test_fr_definition(self):
        for x in execs(library.get("SB")):
            manual = x.rf.inverse().sequence(x.co)
            assert x.fr == manual

    def test_int_ext_partition(self):
        x = execs(library.get("MP"))[0]
        n = len(x.events)
        assert len(x.int_) + len(x.ext) == n * n

    def test_loc_symmetric_reflexive_on_accesses(self):
        x = execs(library.get("MP"))[0]
        for a, b in x.loc.pairs:
            assert (b, a) in x.loc
            assert a.loc == b.loc


class TestValueFirstPruning:
    """A trace combination with an unwritable read is dropped on its
    proto-events, before any Event or Relation of it exists."""

    @pytest.fixture(scope="class")
    def rcu_mp_bound2(self):
        return inline_rcu(library.get("RCU-MP"), loop_bound=2)

    def test_rcu_mp_bound2_counters(self, rcu_mp_bound2):
        # Runs in the ambient configuration, so the oracle lane
        # (REPRO_ORACLE=1) checks the naive path, which shares the test.
        with obs.collect() as collector:
            candidates = count_candidate_executions(
                rcu_mp_bound2, require_sc_per_location=True
            )
        counters = collector.counters
        assert counters["enumerate.trace_combos"] == 4608
        assert counters["enumerate.pruned.unwritable_trace"] == 3744
        # Of the 864 kept combinations, 28 yield the 64 candidates.
        assert counters["enumerate.pruned.no_survivor"] == 836
        assert counters["enumerate.candidates"] == candidates == 64

    @pytest.mark.parametrize("oracle", [False, True])
    def test_no_relation_is_built_for_a_dropped_combination(
        self, rcu_mp_bound2, oracle, monkeypatch
    ):
        built = [0]
        original = Relation.__init__

        def counting(self, *args, **kwargs):
            built[0] += 1
            original(self, *args, **kwargs)

        monkeypatch.setattr(Relation, "__init__", counting)
        program = rcu_mp_bound2
        value_sets = possible_value_sets(program)
        per_thread = [
            enumerate_thread_traces(thread, value_sets)
            for thread in program.threads
        ]
        locations = program.locations()
        dropped = kept = 0
        with kconfig.use_oracle(oracle), obs.collect() as collector:
            for traces in itertools.product(*per_thread):
                before = built[0]
                # Unfiltered, so the first candidate of a kept combination
                # comes at once in both configurations.
                generator = enumeration._executions_of_traces(
                    program, locations, traces, False
                )
                next(generator, None)
                pruned = collector.counters.get(
                    "enumerate.pruned.unwritable_trace", 0
                )
                if pruned > dropped:
                    dropped += 1
                    assert built[0] == before
                else:
                    kept += 1
                    assert built[0] > before  # po, addr, data, ctrl, rmw
        assert (dropped, kept) == (3744, 864)

    def test_a_combination_without_survivors_is_never_built(
        self, rcu_mp_bound2, monkeypatch
    ):
        # The production per-location sweep runs on the proto-events: a
        # combination that passes the value-first test but has no
        # candidate satisfying acyclic(po-loc | com) builds no Relation
        # and no TraceSkeleton.  (The oracle materialises eagerly, which
        # the unfiltered test above checks.)
        built = {"relations": 0, "skeletons": 0, "materialised": 0}

        def counting(name, original):
            def wrapper(*args, **kwargs):
                built[name] += 1
                return original(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            Relation, "__init__", counting("relations", Relation.__init__)
        )
        monkeypatch.setattr(
            TraceSkeleton,
            "__init__",
            counting("skeletons", TraceSkeleton.__init__),
        )
        monkeypatch.setattr(
            enumeration,
            "_materialise",
            counting("materialised", enumeration._materialise),
        )
        program = rcu_mp_bound2
        value_sets = possible_value_sets(program)
        per_thread = [
            enumerate_thread_traces(thread, value_sets)
            for thread in program.threads
        ]
        locations = program.locations()
        fruitless = fruitful = candidates = 0
        with kconfig.use_oracle(False), obs.collect() as collector:
            for traces in itertools.product(*per_thread):
                before = dict(built)
                found = list(
                    enumeration._executions_of_traces(
                        program, locations, traces, True
                    )
                )
                candidates += len(found)
                if found:
                    fruitful += 1
                    assert built["materialised"] == before["materialised"] + 1
                elif collector.counters.get(
                    "enumerate.pruned.no_survivor", 0
                ) > fruitless:
                    fruitless += 1
                    assert built == before
                else:
                    assert built == before  # an unwritable read
        assert (fruitless, fruitful, candidates) == (836, 28, 64)
        assert built["materialised"] == 28


def _identity_programs():
    """The library, the inlined RCU-MP at loop bound 1 and every 10th
    golden-corpus row."""
    programs = {name: library.get(name) for name in library.all_names()}
    programs["RCU-MP@1"] = inline_rcu(library.get("RCU-MP"), loop_bound=1)
    for test, _ in load_golden(GOLDEN_CORPUS)[::10]:
        programs[f"corpus:{test.name}"] = test.program
    return programs


class TestConditionDirected:
    """Condition pins leave the full stream filtered by the pins, in
    order, on both the naive and the per-location (Scpv) paths."""

    @staticmethod
    def _signature(execution):
        def key(pairs):
            return sorted((a.eid, b.eid) for a, b in pairs)

        return (
            execution.final_state,
            key(execution.rf.pairs),
            key(execution.co.pairs),
        )

    @pytest.mark.parametrize("scpv", [False, True])
    def test_pruned_stream_is_the_filtered_full_stream(self, scpv):
        checked = pruned = 0
        for name, program in _identity_programs().items():
            condition = program.condition
            if not isinstance(condition, (Exists, NotExists)):
                continue
            pins = pinned_atoms(condition.body)
            full = 0
            expected = []
            for execution in candidate_executions(
                program, require_sc_per_location=scpv
            ):
                full += 1
                state = execution.final_state
                if all(pin.evaluate(state) for pin in pins):
                    expected.append(self._signature(execution))
            stream = [
                self._signature(execution)
                for execution in enumeration.candidate_executions_sharded(
                    program, 0, 1, require_sc_per_location=scpv, pins=pins
                )
            ]
            assert stream == expected, name
            checked += 1
            pruned += len(stream) < full
        assert checked > 100 and pruned > 50

    def test_nothing_is_built_for_a_dropped_candidate(self, monkeypatch):
        # On the per-location path a combination is materialised (its
        # events and five base relations plus po-loc) only for a kept
        # candidate, and rf and co rows only for kept candidates.
        built = {"materialised": 0, "relations": 0, "dense": 0}

        def counting(name, original):
            def wrapper(*args, **kwargs):
                built[name] += 1
                return original(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            enumeration,
            "_materialise",
            counting("materialised", enumeration._materialise),
        )
        monkeypatch.setattr(
            Relation, "__init__", counting("relations", Relation.__init__)
        )
        monkeypatch.setattr(
            Relation,
            "_from_dense",
            classmethod(counting("dense", Relation._from_dense.__func__)),
        )
        programs = {
            name: library.get(name)
            for name in ("2+2W", "CoWW", "CoRW", "MP", "R", "S+wmb+data")
        }
        programs["RCU-MP@1"] = inline_rcu(library.get("RCU-MP"), loop_bound=1)
        with kconfig.use_oracle(False):
            for name, program in programs.items():
                built.update(materialised=0, relations=0, dense=0)
                kept = list(
                    enumeration.candidate_executions_sharded(
                        program,
                        0,
                        1,
                        require_sc_per_location=True,
                        pins=pinned_atoms(program.condition.body),
                    )
                )
                combos = len({id(execution.universe) for execution in kept})
                assert built["materialised"] == combos, name
                assert built["relations"] == 6 * combos, name
                assert built["dense"] <= 2 * len(kept), name
