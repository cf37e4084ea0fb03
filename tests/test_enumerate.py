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
from repro.litmus.outcomes import Exists, LocValue, NotExists, pinned_atoms
from repro.litmus.parser import parse_litmus
from repro.rcu.implementation import inline_rcu
from repro.relations import Relation


GOLDEN_CORPUS = Path(__file__).parent / "data" / "golden_corpus.jsonl"


@pytest.fixture(scope="module")
def rcu_mp_bound2():
    return inline_rcu(library.get("RCU-MP"), loop_bound=2)


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

        # LKMM has sc_per_location, so run_litmus sweeps the filtered
        # stream; judging the unfiltered one must agree.
        for name in ("MP+wmb+rmb", "SB", "CoRR", "At-inc"):
            program = library.get(name)
            swept = run_litmus(lkmm, program)
            full = execs(program)
            allowed = [x for x in full if lkmm.allows(x)]
            witnesses = sum(
                program.condition.evaluate(x.final_state) for x in allowed
            )
            if name == "CoRR":
                assert swept.candidates < len(full)
            assert swept.allowed == len(allowed)
            assert swept.witnesses == witnesses


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


def _candidate_key(execution):
    """A candidate, independent of the objects it is built from."""

    def key(pairs):
        return tuple(sorted((a.eid, b.eid) for a, b in pairs))

    return (
        execution.final_state,
        tuple(
            (e.eid, e.tid, e.kind, e.tag, e.loc, e.value, e.label)
            for e in execution.events
        ),
        key(execution.rf.pairs),
        key(execution.co.pairs),
    )


def _scpv_streams(program, pins=()):
    """The pruned (Scpv) candidate stream in production and in the
    oracle, as candidate keys."""
    streams = []
    for oracle in (False, True):
        with kconfig.use_oracle(oracle):
            streams.append(
                [
                    _candidate_key(execution)
                    for execution in enumeration.candidate_executions(
                        program, require_sc_per_location=True, pins=pins
                    )
                ]
            )
    return streams


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
                    expected.append(_candidate_key(execution))
            stream = [
                _candidate_key(execution)
                for execution in enumeration.candidate_executions(
                    program, require_sc_per_location=scpv, pins=pins
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
                    enumeration.candidate_executions(
                        program,
                        require_sc_per_location=True,
                        pins=pinned_atoms(program.condition.body),
                    )
                )
                combos = len({id(execution.universe) for execution in kept})
                assert built["materialised"] == combos, name
                assert built["relations"] == 6 * combos, name
                assert built["dense"] <= 2 * len(kept), name


class TestLocationMemo:
    """The per-location sweep decides each location signature once per
    call, and a combination whose signatures rule it out builds nothing.
    Thread traces are enumerated by the value-set fixpoint only."""

    def test_location_fates_count_distinct_signatures(self, rcu_mp_bound2):
        program = rcu_mp_bound2
        per_thread = [
            enumerate_thread_traces(thread, possible_value_sets(program))
            for thread in program.threads
        ]
        signatures = set()
        for traces in itertools.product(*per_thread):
            for location in program.locations():
                signatures.add(
                    (
                        location,
                        tuple(
                            tuple(
                                (proto.kind, proto.value)
                                for proto in trace.events
                                if proto.loc == location
                            )
                            for trace in traces
                        ),
                    )
                )
        with kconfig.use_oracle(False), obs.collect() as collector:
            count_candidate_executions(program, require_sc_per_location=True)
        fates = collector.counters["enumerate.location_fates"]
        assert fates == len(signatures)
        # Five locations per combination, but few distinct signatures.
        assert fates * 10 < 5 * collector.counters["enumerate.trace_combos"]

    def test_rejected_combinations_build_no_sweep_state(
        self, rcu_mp_bound2, monkeypatch
    ):
        built = {"sweeps": 0, "materialised": 0, "relations": 0}

        def counting(name, original):
            def wrapper(*args, **kwargs):
                built[name] += 1
                return original(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            enumeration, "_sweep", counting("sweeps", enumeration._sweep)
        )
        monkeypatch.setattr(
            enumeration,
            "_materialise",
            counting("materialised", enumeration._materialise),
        )
        monkeypatch.setattr(
            Relation, "__init__", counting("relations", Relation.__init__)
        )
        with kconfig.use_oracle(False), obs.collect() as collector:
            candidates = count_candidate_executions(
                rcu_mp_bound2, require_sc_per_location=True
            )
        counters = collector.counters
        # 3,744 unwritable and 836 fruitless combinations are rejected by
        # memo lookups; only the 28 fruitful ones are swept and built.
        assert counters["enumerate.pruned.unwritable_trace"] == 3744
        assert counters["enumerate.pruned.no_survivor"] == 836
        assert built == {"sweeps": 28, "materialised": 28, "relations": 6 * 28}
        assert candidates == 64

    def test_threads_are_enumerated_once_past_the_fixpoint(
        self, rcu_mp_bound2, monkeypatch
    ):
        from repro.executions import thread_sem

        calls = [0]
        original = thread_sem.enumerate_thread_traces

        def counting(*args, **kwargs):
            calls[0] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(thread_sem, "enumerate_thread_traces", counting)
        possible_value_sets(rcu_mp_bound2)
        fixpoint = calls[0]
        calls[0] = 0
        stream = enumeration.candidate_executions(
            rcu_mp_bound2, require_sc_per_location=True
        )
        next(stream)
        assert calls[0] == fixpoint

    def test_deciding_a_fate_ticks_the_guard(self):
        # Every rf step and co extension spent on a signature is a budget
        # safepoint, whether or not any combination then keeps it.
        from repro.events import READ, WRITE
        from repro.guard import Budget, guard

        # A read of its own thread's later write: one rf step, whose
        # po-loc | rf part is already cyclic.
        cyclic = enumeration._LocationFate(0, None, [((READ, 1), (WRITE, 1))])
        with guard(Budget()) as armed:
            assert not cyclic.feasible()
        assert armed.states == 1
        # Two racing writes: one rf step (no reads), then 2 co extension
        # steps after init and 1 after each first write.
        racy = enumeration._LocationFate(0, None, [((WRITE, 1),), ((WRITE, 2),)])
        with guard(Budget()) as armed:
            assert racy.feasible()
        assert armed.states == 1 + 2 + 1 + 1
        assert racy.orders(0) == [(0, 1, 2), (0, 2, 1)]

    @pytest.mark.parametrize("name", ["RCU-MP", "RCU-deferred-free"])
    @pytest.mark.parametrize("pinned", [False, True], ids=["unpinned", "pinned"])
    def test_stream_equals_the_oracle(self, name, pinned):
        # Loop bound 1 keeps the oracle's naive sweep affordable here;
        # benchmarks/test_rcu_implementation.py repeats this at bound 2.
        program = inline_rcu(library.get(name), loop_bound=1)
        pins = pinned_atoms(program.condition.body) if pinned else ()
        production, oracle = _scpv_streams(program, pins)
        assert production == oracle
        assert production

    @pytest.mark.parametrize("case", ["init", "pins"])
    def test_signatures_keep_locations_apart(self, case):
        # x and y see the same (kind, value) sequences from every thread,
        # but differ in their init values or pins.
        if case == "init":
            program = dsl.program(
                "t",
                dsl.thread(dsl.write_once("x", 1), dsl.write_once("y", 1)),
                dsl.thread(dsl.read_once("r0", "x"), dsl.read_once("r1", "y")),
                init={"x": 0, "y": 1},
            )
            pins = ()
        else:
            program = dsl.program(
                "t",
                dsl.thread(dsl.write_once("x", 1), dsl.write_once("y", 1)),
                dsl.thread(dsl.write_once("x", 2), dsl.write_once("y", 2)),
            )
            pins = (LocValue("x", 2),)
        production, oracle = _scpv_streams(program, pins)
        assert production == oracle
        assert production

    def test_location_read_through_a_pointer_only(self):
        # z is named nowhere but in p's initial value, so it is outside
        # program.locations(): no init write and no coherence order, in
        # both configurations.  Its reads of 0 are unwritable.
        p = dsl.reg
        program = dsl.program(
            "t",
            dsl.thread(dsl.read_once("r0", "p"), dsl.write_once(p("r0"), 1)),
            dsl.thread(
                dsl.read_once("r1", "p"),
                dsl.read_once("r2", p("r1")),
                dsl.read_once("r3", p("r1")),
            ),
            dsl.thread(dsl.read_once("r4", "p"), dsl.write_once(p("r4"), 2)),
            init={"p": dsl.ptr("z")},
        )
        assert "z" not in program.locations()
        production, oracle = _scpv_streams(program)
        assert production == oracle
        assert len(production) == 4  # r2, r3 each read 1 or 2
