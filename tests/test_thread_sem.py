"""Tests for per-thread semantics: traces, dependencies, value sets."""

import pytest

from repro.events import FENCE, Pointer, READ, WRITE
from repro.litmus import dsl
from repro.litmus.ast import Assume, BinOp, Const, Reg, Thread, UnOp
from repro.executions import thread_sem
from repro.executions.thread_sem import (
    SemanticsError,
    enumerate_thread_traces,
    possible_value_sets,
    thread_segments,
    traces_at_fixpoint,
)
from repro.guard import Budget, guard
from repro.guard.core import GuardStop
from repro.litmus import library
from repro.rcu.implementation import inline_rcu


def traces(body, values):
    return enumerate_thread_traces(Thread(tuple(body)), values)


class TestStraightLine:
    def test_single_write(self):
        (trace,) = traces([dsl.write_once("x", 1)], {"x": {0, 1}})
        (event,) = trace.events
        assert event.kind == WRITE and event.loc == "x" and event.value == 1

    def test_read_branches_over_values(self):
        result = traces([dsl.read_once("r0", "x")], {"x": {0, 1, 2}})
        assert len(result) == 3
        assert sorted(t.events[0].value for t in result) == [0, 1, 2]

    def test_final_registers(self):
        result = traces([dsl.read_once("r0", "x")], {"x": {7}})
        assert result[0].final_regs == {"r0": 7}

    def test_fence_emits_event(self):
        (trace,) = traces([dsl.smp_mb()], {})
        assert trace.events[0].kind == FENCE
        assert trace.events[0].tag == "mb"

    def test_local_assign_no_event(self):
        (trace,) = traces(
            [dsl.assign("r0", 5), dsl.write_once("x", "r0")], {"x": {0}}
        )
        assert len(trace.events) == 1
        assert trace.events[0].value == 5


class TestDependencies:
    def test_data_dependency(self):
        result = traces(
            [dsl.read_once("r0", "x"), dsl.write_once("y", "r0")],
            {"x": {0, 1}, "y": {0}},
        )
        for trace in result:
            write = trace.events[1]
            assert write.data_deps == {0}
            assert write.value == trace.events[0].value

    def test_address_dependency(self):
        result = traces(
            [dsl.read_once("r0", "p"), dsl.read_once("r1", dsl.reg("r0"))],
            {"p": {Pointer("x")}, "x": {0}},
        )
        (trace,) = result
        dependent = trace.events[1]
        assert dependent.loc == "x"
        assert dependent.addr_deps == {0}

    def test_control_dependency_extends_past_join(self):
        body = [
            dsl.read_once("r0", "x"),
            dsl.if_then(dsl.eq("r0", 1), [dsl.write_once("y", 1)]),
            dsl.write_once("z", 2),
        ]
        result = traces(body, {"x": {0, 1}, "y": {0}, "z": {0}})
        taken = next(t for t in result if t.events[0].value == 1)
        # Both the write in the branch and the one after the join carry the
        # control dependency.
        assert taken.events[1].ctrl_deps == {0}
        assert taken.events[2].ctrl_deps == {0}

    def test_untaken_branch_produces_no_events(self):
        body = [
            dsl.read_once("r0", "x"),
            dsl.if_then(dsl.eq("r0", 1), [dsl.write_once("y", 1)]),
        ]
        result = traces(body, {"x": {0, 1}, "y": {0}})
        untaken = next(t for t in result if t.events[0].value == 0)
        assert len(untaken.events) == 1

    def test_arithmetic_preserves_taint(self):
        body = [
            dsl.read_once("r0", "x"),
            dsl.write_once("y", dsl.add("r0", 1)),
        ]
        result = traces(body, {"x": {0}, "y": {0}})
        assert result[0].events[1].data_deps == {0}
        assert result[0].events[1].value == 1


class TestRmw:
    def test_xchg_full_fences(self):
        (trace,) = traces([dsl.xchg("r0", "x", 1)], {"x": {0}})
        kinds = [e.kind for e in trace.events]
        tags = [e.tag for e in trace.events]
        assert kinds == [FENCE, READ, WRITE, FENCE]
        assert tags == ["mb", "once", "once", "mb"]
        assert trace.rmw_pairs == ((1, 2),)

    def test_xchg_relaxed_no_fences(self):
        (trace,) = traces([dsl.xchg_relaxed("r0", "x", 1)], {"x": {0}})
        assert [e.kind for e in trace.events] == [READ, WRITE]

    def test_xchg_acquire_tags(self):
        (trace,) = traces([dsl.xchg_acquire("r0", "x", 1)], {"x": {0}})
        assert trace.events[0].tag == "acquire"
        assert trace.events[1].tag == "once"

    def test_xchg_release_tags(self):
        (trace,) = traces([dsl.xchg_release("r0", "x", 1)], {"x": {0}})
        assert trace.events[1].tag == "release"

    def test_increment_uses_read_value(self):
        (a, b) = traces([dsl.atomic_inc_return("r0", "x")], {"x": {0, 5}})
        read_to_written = {t.events[1].value: t.events[2].value for t in (a, b)}
        assert read_to_written == {0: 1, 5: 6}

    def test_spin_lock_requires_free(self):
        result = traces([dsl.spin_lock("l")], {"l": {0, 1}})
        assert len(result) == 1  # only the read-0 branch survives
        assert result[0].events[0].value == 0
        assert result[0].events[1].value == 1

    def test_cmpxchg_success_and_failure(self):
        result = traces([dsl.cmpxchg("r0", "x", 0, 1)], {"x": {0, 3}})
        # Success path (read 0): fences + read + write.
        success = next(t for t in result if t.final_regs["r0"] == 0)
        assert any(e.kind == WRITE for e in success.events)
        # Failure path (read 3): no write event.
        failure = next(t for t in result if t.final_regs["r0"] == 3)
        assert not any(e.kind == WRITE for e in failure.events)


class TestAssume:
    def test_assume_false_discards_trace(self):
        assert traces([Assume(Const(0))], {}) == []

    def test_assume_true_keeps_trace(self):
        assert len(traces([Assume(Const(1))], {})) == 1

    def test_assume_filters_read_values(self):
        body = [
            dsl.read_once("r0", "x"),
            Assume(BinOp("==", Reg("r0"), Const(1))),
        ]
        result = traces(body, {"x": {0, 1, 2}})
        assert len(result) == 1
        assert result[0].final_regs["r0"] == 1


class TestErrors:
    def test_non_pointer_address_rejected(self):
        from repro.litmus.ast import Load, Const as C

        with pytest.raises(SemanticsError):
            traces([Load("r0", C(5), "once")], {})


class TestValueSets:
    def test_constants_and_init(self):
        program = dsl.program(
            "t",
            dsl.thread(dsl.write_once("x", 1)),
            dsl.thread(dsl.write_once("x", 2)),
            init={"x": 0},
        )
        values = possible_value_sets(program)
        assert values["x"] == {0, 1, 2}

    def test_copied_values_reach_fixpoint(self):
        program = dsl.program(
            "t",
            dsl.thread(dsl.read_once("r0", "x"), dsl.write_once("y", "r0")),
            dsl.thread(dsl.write_once("x", 7)),
        )
        values = possible_value_sets(program)
        assert values["y"] == {0, 7}

    def test_pointer_values(self):
        program = dsl.program(
            "t",
            dsl.thread(dsl.write_once("p", dsl.ptr("x"))),
            init={"p": dsl.ptr("z"), "x": 0, "z": 0},
        )
        values = possible_value_sets(program)
        assert values["p"] == {Pointer("z"), Pointer("x")}


class TestWritten:
    """``written`` collects the writes of the returned traces, once per
    DFS frame, never a write on a path an ``assume`` discards."""

    @staticmethod
    def _cases():
        programs = [library.get(name) for name in library.all_names()]
        programs.append(inline_rcu(library.get("RCU-MP"), loop_bound=2))
        programs.append(
            dsl.program(
                "t",
                dsl.thread(
                    dsl.read_once("r0", "x"),
                    dsl.write_once("z", Reg("r0")),
                    dsl.cmpxchg(
                        "r1", "y", Reg("r0"), BinOp("+", Reg("r0"), Const(5))
                    ),
                    dsl.xchg("r2", "v", Reg("r0")),
                    Assume(BinOp("==", Reg("r0"), Const(1))),
                    dsl.write_once("w", 3),
                ),
                dsl.thread(dsl.spin_lock("y"), dsl.write_once("x", 1)),
            )
        )
        for program in programs:
            values = possible_value_sets(program)
            for thread in program.threads:
                yield thread, values

    def test_written_equals_a_scan_of_the_traces(self):
        for thread, values in self._cases():
            written = set()
            result = enumerate_thread_traces(thread, values, written=written)
            assert written == {
                (event.loc, event.value)
                for trace in result
                for event in trace.events
                if event.kind == WRITE
            }


class TestTracesAtFixpoint:
    @staticmethod
    def _fingerprint(traces):
        return [(t.events, t.rmw_pairs, t.final_regs) for t in traces]

    @pytest.mark.parametrize(
        "name", ["MP", "MP+wmb+addr", "RCU-MP@2", "copy-chain", "max_rounds=1"]
    )
    def test_final_round_traces_equal_a_fresh_enumeration(self, name):
        max_rounds = None
        if name.startswith("RCU-MP@"):
            program = inline_rcu(library.get("RCU-MP"), loop_bound=2)
        elif name in ("copy-chain", "max_rounds=1"):
            # y's value 7 is found in round 2, so round 1 does not converge.
            program = dsl.program(
                "t",
                dsl.thread(dsl.read_once("r0", "x"), dsl.write_once("y", "r0")),
                dsl.thread(dsl.read_once("r1", "y")),
                dsl.thread(dsl.write_once("x", 7)),
            )
            max_rounds = 1 if name == "max_rounds=1" else None
        else:
            program = library.get(name)
        values, per_thread = traces_at_fixpoint(program, max_rounds)
        assert values == possible_value_sets(program, max_rounds)
        assert len(per_thread) == len(program.threads)
        for thread, traces in zip(program.threads, per_thread):
            assert self._fingerprint(traces) == self._fingerprint(
                enumerate_thread_traces(thread, values)
            )


    @staticmethod
    def _every_thread_every_round(program):
        """The value sets of the plain fixpoint: every thread enumerated
        in every round, until a round adds no value."""
        values = {
            location: {program.initial_value(location)}
            for location in program.locations()
        }
        changed = True
        while changed:
            changed = False
            for thread in program.threads:
                for trace in enumerate_thread_traces(thread, values):
                    for event in trace.events:
                        if event.kind == WRITE:
                            locs = values.setdefault(event.loc, {0})
                            if event.value not in locs:
                                locs.add(event.value)
                                changed = True
        return values

    @pytest.mark.parametrize("name", ["RCU-MP@2", "assume-discards-all"])
    def test_threads_are_enumerated_again_only_when_a_queried_location_grows(
        self, name, monkeypatch
    ):
        if name == "RCU-MP@2":
            # Both threads are enumerated twice; a final round that only
            # confirms the sets would enumerate both a third time.
            program = inline_rcu(library.get("RCU-MP"), loop_bound=2)
            expected = [0, 1, 0, 1]
        else:
            # P0 reads x and assumes a value only P1 writes: in round 1
            # every branch of P0 is discarded, so it has no trace and no
            # write, yet it queried x.  P1's write to x makes it stale.
            program = dsl.program(
                "t",
                dsl.thread(
                    dsl.read_once("r0", "x"),
                    Assume(BinOp("==", Reg("r0"), Const(1))),
                    dsl.write_once("y", 1),
                ),
                dsl.thread(dsl.write_once("x", 1)),
            )
            expected = [0, 1, 0]
        enumerated = []
        original = thread_sem.enumerate_thread_segments

        def counting(thread, *args, **kwargs):
            enumerated.append(program.threads.index(thread))
            return original(thread, *args, **kwargs)

        monkeypatch.setattr(thread_sem, "enumerate_thread_segments", counting)
        values, per_thread = traces_at_fixpoint(program)
        assert enumerated == expected
        monkeypatch.undo()
        assert values == self._every_thread_every_round(program)
        if name == "assume-discards-all":
            assert values["y"] == {0, 1}
        for thread, traces in zip(program.threads, per_thread):
            assert traces
            assert self._fingerprint(traces) == self._fingerprint(
                enumerate_thread_traces(thread, values)
            )


class TestBudget:
    def test_a_state_budget_stops_the_fixpoint(self):
        # Inlined RCU-MP at loop bound 3 has about 3,100 thread traces;
        # each DFS frame ticks the armed budget, so 100 states stop the
        # enumeration long before it ends.
        program = inline_rcu(library.get("RCU-MP"), loop_bound=3)
        with pytest.raises(GuardStop) as stopped:
            with guard(Budget(max_states=100)):
                traces_at_fixpoint(program)
        assert stopped.value.interruption.reason == "states"
        assert stopped.value.interruption.candidates == 0


def _segmented(*body):
    """The segment cases' program: ``body``, a writer of every location
    it reads, and ``body`` again (threads have their own registers)."""
    return dsl.program(
        "segments",
        dsl.thread(*body),
        dsl.thread(
            dsl.write_once("x", 1),
            dsl.write_once("y", 1),
            dsl.write_once("w", 1),
        ),
        dsl.thread(*body),
        init={"p": dsl.ptr("v")},
        condition=dsl.exists_regs((0, "r1", 1), (2, "r1", 1)),
    )


def segment_case(name):
    """A program whose first and last threads run the named shape: the
    cut each tests, with the segment count :func:`thread_segments` must
    give it."""
    r = dsl.reg
    mark = dsl.if_then(dsl.eq("r0", 1), [dsl.write_once("z", 1)])
    if name == "live-register":
        # r0 is read after the join and written before it: no cut.
        body = [
            dsl.read_once("r0", "x"), mark,
            dsl.read_once("r1", "y"), dsl.write_once("v", r("r0")),
        ]
        return _segmented(*body), 1
    if name == "ctrl-across":
        # Two cuts; the last segment's events depend by control on x and
        # y, and by data and address on its own reads.
        body = [
            dsl.read_once("r0", "x"), mark,
            dsl.read_once("r1", "y"),
            dsl.if_then(dsl.eq("r1", 1), [dsl.write_once("v", 1)]),
            dsl.read_once("r2", "w"), dsl.read_once("r4", "p"),
            dsl.write_once(r("r4"), 2), dsl.write_once("u", r("r2")),
        ]
        return _segmented(*body), 3
    if name == "rmw-later":
        body = [
            dsl.read_once("r0", "x"), mark,
            dsl.xchg("r1", "y", 2),
            dsl.cmpxchg("r2", "w", 1, dsl.add("r1", 1)),
        ]
        return _segmented(*body), 2
    if name == "assume-later":
        # The later segment keeps only y = 1; with ``empty`` no path.
        body = [
            dsl.read_once("r0", "x"), mark,
            dsl.read_once("r1", "y"), Assume(dsl.eq("r1", 1)),
        ]
        return _segmented(*body), 2
    if name == "assume-empty":
        body = [
            dsl.read_once("r0", "x"), mark,
            dsl.read_once("r1", "y"), Assume(dsl.eq("r1", 7)),
            dsl.write_once("v", 1),
        ]
        return _segmented(*body), 2
    if name == "overwrite":
        # r0 is written again before the later segment reads it: a cut,
        # and r0 ends with the later value in its earlier place.
        body = [
            dsl.read_once("r0", "x"), mark, dsl.assign("r1", 1),
            dsl.read_once("r0", "y"), dsl.write_once("v", r("r0")),
            dsl.assign("r3", r("r0")),
        ]
        program = _segmented(*body)
        return (
            dsl.program(
                "overwrite", *program.threads,
                condition=dsl.exists_regs((0, "r0", 1), (2, "r0", 0)),
            ),
            2,
        )
    bound = int(name.split("@")[1])
    return inline_rcu(library.get("RCU-MP"), loop_bound=bound), 2


SEGMENT_CASES = [
    "live-register", "ctrl-across", "rmw-later", "assume-later",
    "assume-empty", "overwrite", "RCU-MP@1", "RCU-MP@2", "RCU-MP@3",
]


def whole_bodies(monkeypatch):
    """Enumerate every thread as one segment, as before segmentation."""
    monkeypatch.setattr(thread_sem, "thread_segments", lambda body: [tuple(body)])


class TestSegments:
    """A thread's traces are the joins of its segment paths, and equal
    the whole-body walk's: events, dependencies, RMW pairs, final
    registers in order, and the final control dependencies."""

    @staticmethod
    def _fingerprint(per_thread):
        return [
            [
                (t.events, t.rmw_pairs, list(t.final_regs.items()), t.ctrl)
                for t in traces
            ]
            for traces in per_thread
        ]

    @pytest.mark.parametrize("name", SEGMENT_CASES)
    def test_the_cut(self, name):
        program, count = segment_case(name)
        cut = thread_segments(program.threads[-1].body)
        assert len(cut) == count
        assert [i for segment in cut for i in segment] == list(
            program.threads[-1].body
        )
        straight = program.threads[0 if name.startswith("RCU") else 1].body
        assert thread_segments(straight) == [straight]

    @pytest.mark.parametrize("name", SEGMENT_CASES)
    def test_fixpoint_equals_the_whole_trace_walk(self, name, monkeypatch):
        program, _ = segment_case(name)
        values, per_thread = traces_at_fixpoint(program)
        with monkeypatch.context() as patched:
            whole_bodies(patched)
            whole_values, whole = traces_at_fixpoint(program)
        assert values == whole_values
        assert self._fingerprint(per_thread) == self._fingerprint(whole)
        for thread, traces in zip(program.threads, per_thread):
            assert self._fingerprint([traces]) == self._fingerprint(
                [enumerate_thread_traces(thread, values)]
            )
        if name == "assume-empty":
            assert per_thread[0] == per_thread[2] == []
            assert values["v"] == {0}  # a write on no trace is not recorded
        else:
            assert all(per_thread)

    def test_ctrl_crosses_the_cut(self):
        program, _ = segment_case("ctrl-across")
        values = possible_value_sets(program)
        for trace in traces_at_fixpoint(program)[1][0]:
            reads = [i for i, e in enumerate(trace.events) if e.kind == READ]
            x, y, w, p = reads
            v, u = trace.events[-2:]
            assert (v.loc, v.addr_deps, v.ctrl_deps) == ("v", {p}, {x, y})
            assert (u.loc, u.data_deps, u.ctrl_deps) == ("u", {w}, {x, y})
            assert trace.ctrl == frozenset({x, y})
        assert values["u"] == {0, 1}

    def test_rmw_pairs_move_past_the_earlier_segment(self):
        program, _ = segment_case("rmw-later")
        for trace in traces_at_fixpoint(program)[1][0]:
            kinds = [(e.kind, e.loc) for e in trace.events]
            start = kinds.index((READ, "y"))
            assert trace.rmw_pairs[0] == (start, start + 1)
            for r, w in trace.rmw_pairs:
                assert trace.events[r].kind == READ and trace.events[w].kind == WRITE
                assert trace.events[w].data_deps >= {r}

    def test_later_value_of_a_register_wins_in_its_earlier_place(self):
        program, _ = segment_case("overwrite")
        for trace in traces_at_fixpoint(program)[1][0]:
            y = next(e for e in trace.events if e.loc == "y")
            assert list(trace.final_regs) == ["r0", "r1", "r3"]
            assert trace.final_regs["r0"] == trace.final_regs["r3"] == y.value
