"""Tests for the operational simulator (the klitmus substitute)."""

import copy
import random
import re
from pathlib import Path

import pytest

from repro import obs
from repro.corpus.golden import load_golden
from repro.hardware import compile_program, get_arch
from repro.hardware.archspec import TABLE5_ARCHS
from repro.hardware.opsim import (
    OperationalSimulator,
    SimulationError,
    _Memory,
    _Node,
    _ThreadState,
    _ThreadTable,
)
from repro.litmus import dsl, library
from repro.litmus.outcomes import FinalState

GOLDEN_CORPUS = Path(__file__).parent / "data" / "golden_corpus.jsonl"


def simulator(name, arch_name):
    arch = get_arch(arch_name)
    compiled = compile_program(library.get(name), arch, rcu="keep")
    return OperationalSimulator(compiled, arch), library.get(name).condition


def observed(name, arch_name, runs=2000, seed=1):
    sim, condition = simulator(name, arch_name)
    histogram = sim.sample(runs, seed=seed)
    return sum(
        count for state, count in histogram.items() if condition.evaluate(state)
    )


class TestSequentialBaseline:
    def test_sc_is_sequentially_consistent(self):
        # Under the SC spec none of the classic weak outcomes appear.
        for name in ("SB", "MP", "LB", "WRC", "RWC"):
            assert observed(name, "SC", runs=1500) == 0

    def test_deterministic_single_thread(self):
        program = dsl.program(
            "single",
            dsl.thread(dsl.write_once("x", 1), dsl.read_once("r0", "x")),
        )
        arch = get_arch("x86")
        sim = OperationalSimulator(compile_program(program, arch), arch)
        state = sim.run_once(random.Random(0))
        assert state.registers[(0, "r0")] == 1  # store forwarding
        assert state.memory["x"] == 1


class TestTsoBehaviour:
    def test_store_buffering_observed_on_x86(self):
        assert observed("SB", "x86") > 0

    def test_mp_never_reorders_on_x86(self):
        assert observed("MP", "x86") == 0

    def test_lb_never_on_x86(self):
        assert observed("LB", "x86") == 0

    def test_mfence_kills_store_buffering(self):
        assert observed("SB+mbs", "x86") == 0


class TestWeakBehaviour:
    @pytest.mark.parametrize("arch", ["Power8", "ARMv8", "ARMv7"])
    def test_weak_archs_show_mp_and_lb(self, arch):
        assert observed("MP", arch) > 0
        assert observed("LB", arch) > 0

    @pytest.mark.parametrize("arch", ["Power8", "ARMv8", "ARMv7"])
    def test_fences_restore_order(self, arch):
        assert observed("MP+wmb+rmb", arch) == 0
        assert observed("SB+mbs", arch) == 0

    def test_dependency_orders_lb(self):
        # LB+datas: data dependencies forbid the cycle operationally too.
        assert observed("LB+datas", "Power8") == 0

    def test_ctrl_plus_mb_forbidden(self):
        assert observed("LB+ctrl+mb", "ARMv8") == 0

    def test_wmb_acq_difference_between_power_and_arm(self):
        # lwsync orders R->W so Power forbids WRC+wmb+acq; ARMv8's dmb.st
        # does not, so the outcome is reachable there (cf. Table 5: the LK
        # model allows it).
        assert observed("WRC+wmb+acq", "Power8") == 0


class TestAtomicsAndLocks:
    def test_rmw_atomicity(self):
        assert observed("At-inc", "Power8") == 0
        assert observed("At-relaxed", "ARMv8") == 0

    def test_spinlock_mutual_exclusion(self):
        assert observed("lock-mutex", "Power8", runs=800) == 0

    def test_lock_handoff(self):
        assert observed("MP+unlock-acq", "ARMv8", runs=800) == 0

    @pytest.mark.parametrize("arch", ["x86", "ARMv8"])
    def test_lock_read_waits_for_the_unlock(self, arch):
        # The spin_lock's read value is checked against memory on every
        # step, never memoised: P1 takes the lock only once P0's unlock is
        # visible to it (on x86, once it has left P0's store buffer).
        sim, _ = simulator("MP+unlock-acq", arch)
        rng = random.Random(3)
        for _ in range(200):
            state, trace = sim.run_once_traced(rng)
            events = {e.event_id: e for e in trace.events}
            (lock_read,) = [
                e for e in trace.events
                if e.tid == 1 and e.kind == "R" and e.loc == "l"
            ]
            unlock = events[trace.rf[lock_read.event_id]]
            assert (unlock.tid, unlock.kind, unlock.loc) == (0, "W", "l")
            assert state.registers[(1, "r0")] == 1

    @pytest.mark.parametrize("arch", ["x86", "ARMv8"])
    def test_lock_never_released_deadlocks(self, arch):
        program = dsl.program(
            "Lock-held", dsl.thread(dsl.spin_lock("l")), init={"l": 1}
        )
        sim = OperationalSimulator(
            compile_program(program, get_arch(arch)), get_arch(arch)
        )
        # The compiled program is named after the test and the machine;
        # its one thread is stuck at stream index 0.
        message = (
            f"no eligible action in Lock-held@{arch} "
            "(deadlock at heads [(0, 0)])"
        )
        with pytest.raises(SimulationError, match=re.escape(message)):
            sim.run_once(random.Random(0))


class TestOfferMemo:
    """Each thread's offers are worked out once per thread state."""

    def test_each_thread_state_is_walked_once(self, monkeypatch):
        walks = {}
        walk = _ThreadTable._walk

        def counting_walk(table, *state):
            walks[id(table)] = walks.get(id(table), 0) + 1
            return walk(table, *state)

        monkeypatch.setattr(_ThreadTable, "_walk", counting_walk)
        for name in ("SB", "WRC"):
            sim, _ = simulator(name, "ARMv8")
            sim.sample(500, seed=1)
            for table in sim._tables:
                assert walks[id(table)] == len(table.memo)
                assert walks[id(table)] <= 10

    def test_simulators_share_no_memo(self):
        first, _ = simulator("WRC", "ARMv8")
        second, _ = simulator("WRC", "x86")
        first.sample(50, seed=1)
        second.sample(50, seed=1)
        memos = [
            id(table.memo) for sim in (first, second) for table in sim._tables
        ]
        assert len(set(memos)) == len(memos)


def traced_histogram(sim, runs, rng):
    """The histogram of ``runs`` full-simulator runs, in first-occurrence
    order."""
    histogram = {}
    for _ in range(runs):
        state, _ = sim.run_once_traced(rng)
        histogram[state] = histogram.get(state, 0) + 1
    return histogram


def reachable_states(sim):
    """Every state the full simulator can reach, by breadth-first search
    (registers compared as sets, store buffers without write ids)."""

    def state_of(threads, memory, syncs):
        return (
            tuple(
                (
                    t.done, t.fetched, t.syncing, frozenset(t.regs.items()),
                    tuple(entry[:2] for entry in t.buffer), t.rcu_depth,
                )
                for t in threads
            ),
            frozenset(memory.values.items()),
            tuple((s.thread, frozenset(s.waiting_for), s.number) for s in syncs),
        )

    tables = {id(table): table for table in sim._tables}
    start = (
        [_ThreadState(table) for table in sim._tables],
        _Memory(sim._initial, None),
        [],
    )
    seen = {state_of(*start)}
    frontier = [start]
    while frontier:
        world = frontier.pop()
        for action in sim._eligible_actions(*world):
            threads, memory, syncs = copy.deepcopy(world, dict(tables))
            sim._step(action, threads, memory, syncs, None)
            state = state_of(threads, memory, syncs)
            if state not in seen:
                seen.add(state)
                frontier.append((threads, memory, syncs))
    return seen


def terminal_states(sim):
    """The final state of every terminal node, the state graph closed by
    expanding every action slot; a deadlocked node fails the test."""
    sim.sample(1, seed=0)  # builds the root
    seen, stack, finals = set(), [sim._root], []
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        assert node.error is None, node.error
        if node.final is not None:
            finals.append(node.final)
        for index, successor in enumerate(node.successors):
            stack.append(successor or sim._expand(node, index))
    return finals


class TestStateGraph:
    """Untraced runs walk the interned state graph; traced runs run the
    full simulator; both draw the same random stream."""

    @pytest.mark.parametrize("arch", TABLE5_ARCHS)
    @pytest.mark.parametrize("name", library.TABLE5 + ["SB+unlock-lock"])
    def test_sample_equals_the_full_simulator(self, name, arch):
        sim, _ = simulator(name, arch)
        walked = random.Random(5)
        full = random.Random(5)
        histogram = sim.sample(150, rng=walked)
        # Same states, same counts, same first-occurrence order.
        assert list(histogram.items()) == list(
            traced_histogram(sim, 150, full).items()
        )
        assert walked.getstate() == full.getstate()

    def test_deadlock_raises_on_every_run(self):
        arch = get_arch("ARMv8")
        program = dsl.program(
            "Lock-held", dsl.thread(dsl.spin_lock("l")), init={"l": 1}
        )
        sim = OperationalSimulator(compile_program(program, arch), arch)
        message = (
            "no eligible action in Lock-held@ARMv8 "
            "(deadlock at heads [(0, 0)])"
        )
        for seed in range(3):
            with pytest.raises(SimulationError, match=re.escape(message)):
                sim.sample(5, seed=seed)
        with pytest.raises(SimulationError, match=re.escape(message)):
            sim.run_once_traced(random.Random(0))

    # MP's reader may complete its two loads in either order, so its
    # registers fill in either order too.
    @pytest.mark.parametrize("name, states", [("SB", 49), ("MP", 53)])
    def test_each_state_is_interned_once(self, name, states):
        sim, _ = simulator(name, "ARMv8")
        sim.sample(500, seed=1)
        assert len(sim._nodes) == len(reachable_states(sim)) == states
        sim.sample(500, seed=2)
        assert len(sim._nodes) == states

    def test_histogram_does_not_alias_the_graph(self):
        sim, _ = simulator("SB", "ARMv8")
        for state in sim.sample(200, seed=1):
            state.registers.clear()
            state.memory.clear()
        sim.run_once(random.Random(0)).memory.clear()
        first, second = sim.sample(200, seed=1), sim.sample(200, seed=1)
        assert first == second
        assert all(state.memory for state in first)

    def test_growth_is_counted(self):
        sim, _ = simulator("SB", "ARMv8")
        with obs.collect() as collector:
            sim.sample(500, seed=1)
            sim.sample(500, seed=2)
        edges = sum(
            successor is not None
            for node in sim._nodes.values()
            for successor in node.successors
        )
        assert collector.counters == {"opsim.states": 49, "opsim.edges": 98}
        assert edges == 98


def fan(width):
    """A simulator whose state graph is one root with ``width`` actions,
    action ``i`` leading to a terminal node whose memory holds ``x = i``:
    each run reports the index its one step drew."""
    sim, _ = simulator("SB", "x86")
    root = sim._root = _Node(("root",), [("drain", 0, -1)] * width)
    for index in range(width):
        end = root.successors[index] = _Node(("end", index), [])
        end.final = FinalState({}, {"x": index})
    return sim


class LcgRandom(random.Random):
    """A generator whose bits come from its own ``getrandbits``."""

    def __init__(self, seed):
        super().__init__(seed)
        self.x = seed

    def getrandbits(self, k):
        self.x = (self.x * 6364136223846793005 + 1442695040888963407) % 2**64
        return self.x >> (64 - k)


class TestDraw:
    """A walk's step draws exactly what ``randrange`` draws."""

    WIDTHS = range(1, 131)  # every 2**k and 2**k + 1 up to 129

    @pytest.mark.parametrize("seed", range(20))
    def test_draw_equals_randrange(self, seed):
        walked, reference = random.Random(seed), random.Random(seed)
        for width in self.WIDTHS:
            sim = fan(width)
            draws = [sim.run_once(walked).memory["x"] for _ in range(5)]
            assert draws == [reference.randrange(width) for _ in range(5)], width
            assert walked.getstate() == reference.getstate(), width

    def test_subclass_overriding_getrandbits(self):
        for seed in range(20):
            walked, reference = LcgRandom(seed), LcgRandom(seed)
            for width in self.WIDTHS:
                sim = fan(width)
                draws = [sim.run_once(walked).memory["x"] for _ in range(5)]
                assert draws == [reference.randrange(width) for _ in range(5)]
                assert walked.x == reference.x
            assert walked.getstate() == reference.getstate()


@pytest.fixture(scope="module")
def golden_rows():
    entries = load_golden(GOLDEN_CORPUS)
    return {test.name: (test, verdicts) for test, verdicts in entries}


class TestRcuOperationalSemantics:
    @pytest.mark.parametrize("arch", ["Power8", "ARMv8", "ARMv7", "x86"])
    def test_rcu_mp_never_observed(self, arch):
        assert observed("RCU-MP", arch, runs=1500) == 0

    @pytest.mark.parametrize("arch", ["Power8", "x86"])
    def test_rcu_deferred_free_never_observed(self, arch):
        assert observed("RCU-deferred-free", arch, runs=1500) == 0

    def test_grace_period_waits_for_reader(self):
        # A GP-only SB-like test: sync acts as a full fence.
        assert observed("SB+mb+sync", "Power8", runs=1500) == 0

    def test_nested_rscs(self):
        assert observed("RCU-MP+nested", "ARMv8", runs=1000) == 0

    @pytest.mark.parametrize(
        "name, arch",
        [
            (name, arch)
            for name in (
                "Coe+SyncdWR+Fre+PodWW+PodWR+Fre+PodWW+SyncdWW+rcu-lock",
                "AcqdR+Fre+PodWR+Fre+SyncdWW+Coe+Coe+MbdWR+rcu-lock",
            )
            for arch in TABLE5_ARCHS
        ]
        + [
            (
                "Coe+PodWR+PodRW+Rfe+SyncdRR+DpAddrdR+Fre+MbdWW+SyncdWR"
                "+Fre+MbdWW+rcu-lock",
                "Power8",
            )
        ],
    )
    def test_grace_period_drains_every_store_buffer(
        self, golden_rows, name, arch
    ):
        """Golden rows whose cycle passes a grace period and a reader's
        buffered store: no reachable final state satisfies the condition
        LKMM forbids, and no state deadlocks."""
        test, verdicts = golden_rows[name]
        assert verdicts["LKMM"] == "Forbid"
        arch_spec = get_arch(arch)
        sim = OperationalSimulator(
            compile_program(test.program, arch_spec, rcu="keep"), arch_spec
        )
        finals = terminal_states(sim)
        assert finals
        assert not any(test.program.condition.evaluate(s) for s in finals)


class TestReproducibility:
    """Determinism contract: all randomness flows through one explicit rng.

    These pin the deflaked API — any code path that falls back to global
    ``random`` state or per-process hashing breaks one of them.
    """

    def test_same_seed_same_histogram(self):
        sim, _ = simulator("SB", "Power8")
        assert sim.sample(300, seed=7) == sim.sample(300, seed=7)

    def test_different_seeds_differ(self):
        sim, _ = simulator("SB", "Power8")
        assert sim.sample(300, seed=1) != sim.sample(300, seed=2)

    def test_fresh_instances_agree(self):
        # Determinism must not depend on simulator instance state.
        first, _ = simulator("MP", "ARMv8")
        second, _ = simulator("MP", "ARMv8")
        assert first.sample(300, seed=11) == second.sample(300, seed=11)

    def test_injected_rng_matches_seed(self):
        sim, _ = simulator("SB", "Power8")
        assert sim.sample(300, rng=random.Random(7)) == sim.sample(
            300, seed=7
        )

    def test_global_random_state_is_untouched(self):
        sim, _ = simulator("SB", "Power8")
        random.seed(1234)
        before = random.getstate()
        sim.sample(200, seed=3)
        assert random.getstate() == before

    def test_run_klitmus_deterministic(self):
        from repro.hardware import run_klitmus

        program = library.get("SB")
        first = run_klitmus(program, "Power8", runs=300, seed=5)
        second = run_klitmus(program, "Power8", runs=300, seed=5)
        assert first.histogram == second.histogram
        assert first.observed == second.observed

    def test_run_klitmus_accepts_injected_rng(self):
        from repro.hardware import run_klitmus

        program = library.get("SB")
        first = run_klitmus(
            program, "Power8", runs=300, rng=random.Random(42)
        )
        second = run_klitmus(
            program, "Power8", runs=300, rng=random.Random(42)
        )
        assert first.histogram == second.histogram

    def test_sample_executions_deterministic(self):
        from repro.hardware.trace import sample_executions

        program = library.get("MP")

        def final_states(**kwargs):
            return [
                sorted(
                    (e.tid, e.po_index, e.kind, e.loc, e.value)
                    for e in x.events
                )
                for x in sample_executions(program, "Power8", 50, **kwargs)
            ]

        assert final_states(seed=9) == final_states(seed=9)
        assert final_states(rng=random.Random(9)) == final_states(seed=9)
