"""An operational weak-memory simulator — the klitmus substitute.

The paper runs each litmus test billions of times as a kernel module and
histograms the final states (Section 5.1).  This simulator plays that
role: it *executes* an architecture-level program (produced by
:mod:`repro.hardware.compile`) under a randomised scheduler, with the
machinery that makes real hardware weak:

* a per-thread **store buffer**: a store becomes visible to its own thread
  immediately (forwarding) but to others only when the buffer drains —
  this alone yields TSO behaviours (SB) on x86;
* an **out-of-order window** (weak architectures only): an instruction may
  complete before earlier ones, unless an architecture rule, a fence, a
  same-location access, or a register dependency (address/data) forbids
  it; stores and everything else wait for unresolved branches (no
  speculative stores), which is why control dependencies order R -> W;
* native **RCU grace periods**: ``synchronize_rcu`` snapshots the threads
  currently inside a read-side critical section and cannot complete until
  each of them has left it, exactly the "wait for pre-existing readers"
  behaviour of the kernel's implementation; nor until every thread's
  store buffer is empty, as every CPU passes a full barrier within a
  grace period in the kernel.

The simulator is deliberately *at least as strong* as the corresponding
axiomatic model (e.g. it is multicopy atomic and never reorders dependent
loads, unlike the Alpha model): every outcome it can produce is allowed by
the architecture model, mirroring the paper's situation where "the
machines are stronger than required by our model".

Everything about the program that a run cannot change is worked out once,
when the simulator is built: each thread is *lowered* into a numbered
instruction table (the arms of every ``if`` included), with each
instruction's needed registers, whether it closes the reordering window,
and a bitmask of the later instructions that may not complete while it is
pending (the architecture's reordering rules of :meth:`_may_pass` plus
register dependencies).  A stream holds each instruction number at most
once and in increasing order, so a thread's progress is two bitmasks over
numbers: ``fetched`` (the stream: the body plus the resolved ``if`` arms)
and ``done``.  The registers holding a value are exactly those written by
the done instructions, so everything the window walk reads except one
thing is a function of ``(done, fetched, syncing)`` — ``syncing`` being
whether the thread's own grace period is in flight.  Each lowered table
therefore memoises its offers under that key.  The exception is a
``spin_lock``'s read value, which depends on memory: the entry keeps such
a lock apart, and the scheduler checks it against the thread's view of
memory.

An untraced run (:meth:`~OperationalSimulator.run_once`,
:meth:`~OperationalSimulator.sample`) is a walk over the simulator's
*state graph*, built lazily and kept for the simulator's lifetime.  A
state is everything a run can still observe: each thread's progress,
registers, store buffer (without write ids) and RCU depth, the memory
values and the pending grace periods.  Each state is interned once, as a
node holding its eligible actions (in the scheduler's order), one
successor slot per action, filled the first time the action is taken,
and the state itself, from which an unexplored action is executed by the
full simulator (on the concrete state last expanded into, when that is
still the node's).  A terminal node keeps its final state and a
deadlocked one its error, and every node the number of its actions and
the bits one draw among them takes.  So a step of a walk costs one
``rng.getrandbits`` draw (redrawn while it is out of range, as
``random.Random.randrange`` does) and one slot lookup, while each
distinct state and edge is computed once however many runs pass through
it.

:meth:`OperationalSimulator.run_once_traced` runs the full simulator and
also records a *trace* — which write each read observed (rf), the order
writes reached memory (co), and the dependency taints — from which
:mod:`repro.hardware.trace` rebuilds a
:class:`~repro.executions.candidate.CandidateExecution`, enabling
execution-level (not merely state-level) validation against the
axiomatic models.  Both kinds of run take each step through the one
:meth:`~OperationalSimulator._step` and draw the same random stream, so a
seed yields the same final states whether traced or not.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.events import (
    Pointer,
    RCU_LOCK,
    RCU_UNLOCK,
    SYNC_RCU,
    Value,
)
from repro.hardware.archspec import ArchSpec
from repro.litmus.ast import (
    BinOp,
    CmpXchg,
    Const,
    Expr,
    Fence,
    If,
    Instruction,
    Load,
    LocalAssign,
    Program,
    Reg,
    Rmw,
    Store,
    UnOp,
    const_location,
    expr_registers,
    register_written,
    registers_read,
)
from repro.litmus.outcomes import FinalState
from repro.obs import core as _obs

_LK_SPECIALS = (RCU_LOCK, RCU_UNLOCK, SYNC_RCU)

_NO_TAINTS: FrozenSet[int] = frozenset()


class SimulationError(Exception):
    """Raised when the simulator cannot make progress (deadlock)."""


@dataclass
class TraceEvent:
    """One recorded dynamic event (access or fence) of a run."""

    event_id: int
    tid: int
    po_index: int
    kind: str  # "R" | "W" | "F"
    tag: str
    loc: Optional[str] = None
    value: Optional[Value] = None
    addr_taints: FrozenSet[int] = _NO_TAINTS
    data_taints: FrozenSet[int] = _NO_TAINTS
    ctrl_taints: FrozenSet[int] = _NO_TAINTS


@dataclass
class RunTrace:
    """The full record of one run: events, rf, co, rmw pairs."""

    events: List[TraceEvent] = field(default_factory=list)
    #: read event id -> write event id it observed.
    rf: Dict[int, int] = field(default_factory=dict)
    #: location -> write event ids in the order they reached memory
    #: (initialising write first).
    co_order: Dict[str, List[int]] = field(default_factory=dict)
    #: (read id, write id) pairs of read-modify-writes.
    rmw_pairs: List[Tuple[int, int]] = field(default_factory=list)
    #: location -> id of its initialising write.
    init_ids: Dict[str, int] = field(default_factory=dict)
    _next_id: int = 0

    def new_id(self) -> int:
        event_id = self._next_id
        self._next_id += 1
        return event_id


#: What a thread offers in one state: the actions it may take, and the
#: spin_locks it may take once their lock reads free.  A spin_lock closes
#: the window, so it comes after every other offer.
_Offers = Tuple[
    Tuple[Tuple[str, int, int], ...],
    Tuple[Tuple[Tuple[str, int, int], Rmw], ...],
]


class _ThreadTable:
    """One thread's program lowered for the step loop, with its offer memo.

    Instructions are numbered in program order, each ``if`` followed by
    its then-arm and then its else-arm.  A dynamic stream takes at most
    one arm of each ``if``, so it holds each number at most once and in
    increasing order: the bitmask of the numbers it holds stands for the
    stream, and a bitmask over numbers for any set of its entries.
    """

    def __init__(
        self,
        tid: int,
        body: Sequence[Instruction],
        may_pass: Callable[[Instruction, Instruction], bool],
        window: int,
    ):
        self.tid = tid
        self.window = window
        self.instructions: List[Instruction] = []
        #: ``if`` number -> (then-arm mask, else-arm mask).
        self.arms: Dict[int, Tuple[int, int]] = {}
        #: The numbers of the stream before any branch resolves.
        self.body = self._number(body)
        instructions = self.instructions
        #: Registers each instruction reads before it can start.
        self.needed: List[FrozenSet[str]] = [
            registers_read(ins) for ins in instructions
        ]
        #: The register each instruction writes when it completes, if any.
        self.written: List[Optional[str]] = [
            register_written(ins) for ins in instructions
        ]
        #: Nothing later may start while this one is pending (fetch order).
        self.stops: List[bool] = [_blocks_window(ins) for ins in instructions]
        #: Bit ``later`` of ``held[earlier]`` is set when ``later`` may not
        #: start while ``earlier`` is pending: an architecture rule forbids
        #: the reordering, or ``earlier`` writes a register ``later`` reads.
        self.held: List[int] = []
        for earlier_no, earlier in enumerate(instructions):
            target = self.written[earlier_no]
            mask = 0
            for later_no in range(earlier_no + 1, len(instructions)):
                if target in self.needed[later_no] or not may_pass(
                    earlier, instructions[later_no]
                ):
                    mask |= 1 << later_no
            self.held.append(mask)
        #: (done, fetched, syncing) -> the thread's offers in that state.
        self.memo: Dict[Tuple[int, int, bool], _Offers] = {}

    def _number(self, body: Sequence[Instruction]) -> int:
        mask = 0
        for ins in body:
            number = len(self.instructions)
            self.instructions.append(ins)
            mask |= 1 << number
            if isinstance(ins, If):
                then = self._number(ins.then)
                self.arms[number] = (then, self._number(ins.orelse))
        return mask

    def offers(self, done: int, fetched: int, syncing: bool) -> _Offers:
        """The actions the thread offers with ``done`` of its ``fetched``
        instructions complete and its own grace period pending or not."""
        key = (done, fetched, syncing)
        entry = self.memo.get(key)
        if entry is None:
            entry = self.memo[key] = self._walk(*key)
        return entry

    def _walk(self, done: int, fetched: int, syncing: bool) -> _Offers:
        """Walk the window: what may start now, in fetch order."""
        pending = fetched & ~done
        if not pending:
            return (), ()
        needed, stops, held = self.needed, self.stops, self.held
        produced = {self.written[number] for number in _numbers(done)}
        offers: List[Tuple[str, int, int]] = []
        spins: List[Tuple[Tuple[str, int, int], Rmw]] = []
        # Later instructions held back by the pending ones walked so far.
        blocked = 0
        # The window: ``window`` stream entries from the first pending one.
        head = _lowest(pending)
        for number in _numbers(fetched >> head << head)[: self.window]:
            if done >> number & 1:
                continue
            if not blocked >> number & 1 and produced >= needed[number]:
                ins = self.instructions[number]
                action = ("execute", self.tid, number)
                if isinstance(ins, Rmw) and ins.require_read_value is not None:
                    # A spin_lock's read value is checked on every step.
                    spins.append((action, ins))
                elif not (
                    isinstance(ins, Fence) and ins.tag == SYNC_RCU and syncing
                ):
                    # A thread starts one grace period at a time.
                    offers.append(action)
            if stops[number]:
                break
            blocked |= held[number]
        return tuple(offers), tuple(spins)


@dataclass
class _PendingSync:
    """An in-flight synchronize_rcu: waits for the snapshotted readers."""

    thread: int
    waiting_for: Set[int]
    #: Instruction number of the synchronize_rcu fence.
    number: int


class _ThreadState:
    """Runtime state of one simulated thread."""

    def __init__(self, table: _ThreadTable):
        self.tid = table.tid
        self.table = table
        #: Numbers of the instructions in the stream; grows as branches
        #: resolve.
        self.fetched = table.body
        #: Numbers of the completed instructions.
        self.done = 0
        #: Whether the thread's own synchronize_rcu is in flight.
        self.syncing = False
        self.regs: Dict[str, Value] = {}
        #: Register -> ids of the dynamic reads its value derives from
        #: (traced runs only).
        self.taints: Dict[str, FrozenSet[int]] = {}
        #: Reads controlling every instruction from here on (resolved
        #: branches' condition taints; traced runs only).
        self.ctrl: FrozenSet[int] = _NO_TAINTS
        #: FIFO store buffer of (location, value, write event id); the id
        #: is None in an untraced run.
        self.buffer: List[Tuple[str, Value, Optional[int]]] = []
        self.rcu_depth = 0

    @property
    def finished(self) -> bool:
        return self.done == self.fetched and not self.buffer

    def snapshot(self) -> Tuple:
        """The thread's part of an untraced state (registers sorted by
        name, buffered stores without write ids)."""
        return (
            self.done,
            self.fetched,
            self.syncing,
            tuple(sorted(self.regs.items())),
            tuple((loc, value) for loc, value, _ in self.buffer),
            self.rcu_depth,
        )

    @classmethod
    def restore(cls, table: _ThreadTable, snapshot: Tuple) -> "_ThreadState":
        thread = cls(table)
        done, fetched, syncing, regs, buffer, rcu_depth = snapshot
        thread.done, thread.fetched, thread.syncing = done, fetched, syncing
        thread.regs = dict(regs)
        thread.buffer = [(loc, value, None) for loc, value in buffer]
        thread.rcu_depth = rcu_depth
        return thread

    def po_index(self, number: int) -> int:
        """Stream index of ``number``: how many fetched numbers precede it."""
        return bin(self.fetched & ((1 << number) - 1)).count("1")

    def head_index(self) -> int:
        """Stream index of the first instruction not yet complete."""
        pending = self.fetched & ~self.done
        return self.po_index(
            _lowest(pending) if pending else self.fetched.bit_length()
        )


class _Memory:
    """Shared memory with write provenance.

    ``writer`` holds the id of each location's visible write; in an
    untraced run (``trace`` is None) every id is None.
    """

    def __init__(
        self, initial: Sequence[Tuple[str, Value]], trace: Optional[RunTrace]
    ):
        self.values: Dict[str, Value] = dict(initial)
        self.writer: Dict[str, Optional[int]] = dict.fromkeys(self.values)
        self.trace = trace
        if trace is None:
            return
        for loc, value in initial:
            init_id = trace.new_id()
            trace.init_ids[loc] = init_id
            trace.events.append(
                TraceEvent(init_id, -1, len(trace.init_ids) - 1, "W", "once", loc, value)
            )
            trace.co_order.setdefault(loc, []).append(init_id)
            self.writer[loc] = init_id

    def commit(self, loc: str, value: Value, write_id: Optional[int]) -> None:
        self.values[loc] = value
        self.writer[loc] = write_id
        if self.trace is not None:
            self.trace.co_order.setdefault(loc, []).append(write_id)


class _Node:
    """One interned untraced state of the simulator's state graph."""

    __slots__ = ("state", "actions", "successors", "width", "bits", "final", "error")

    def __init__(self, state: Tuple, actions: List[Tuple[str, int, int]]):
        #: The state itself: per-thread snapshots, memory values, pending
        #: grace periods.
        self.state = state
        #: The eligible actions, in the scheduler's order.
        self.actions = actions
        #: The node each action leads to, once it has been taken.
        self.successors: List[Optional[_Node]] = [None] * len(actions)
        #: How many actions a step chooses among (0 at a terminal node),
        #: and the bits one ``getrandbits`` draw of that choice takes.
        self.width = len(actions)
        self.bits = self.width.bit_length()
        #: A terminal node's final state (never handed out: callers get
        #: copies).
        self.final: Optional[FinalState] = None
        #: A deadlocked node's message.
        self.error: Optional[str] = None


class _World:
    """A concrete untraced state, on which the full simulator steps."""

    __slots__ = ("threads", "memory", "syncs", "node")

    def __init__(
        self,
        threads: List[_ThreadState],
        memory: _Memory,
        syncs: List[_PendingSync],
    ):
        self.threads = threads
        self.memory = memory
        self.syncs = syncs
        #: The node whose state the world holds, if any.
        self.node: Optional[_Node] = None

    @classmethod
    def restore(cls, tables: List[_ThreadTable], state: Tuple) -> "_World":
        snapshots, values, pending = state
        return cls(
            [
                _ThreadState.restore(table, snapshot)
                for table, snapshot in zip(tables, snapshots)
            ],
            _Memory(values, None),
            [
                _PendingSync(tid, set(waiting), number)
                for tid, waiting, number in pending
            ],
        )


class OperationalSimulator:
    """Runs one architecture-level program to completion, many times."""

    def __init__(self, program: Program, arch: ArchSpec):
        self.program = program
        self.arch = arch
        window = arch.window if arch.out_of_order else 1
        self._tables = [
            _ThreadTable(tid, thread.body, self._may_pass, window)
            for tid, thread in enumerate(program.threads)
        ]
        self._initial = [
            (loc, program.initial_value(loc)) for loc in program.locations()
        ]
        #: The state graph of untraced runs: state -> its node.
        self._nodes: Dict[Tuple, _Node] = {}
        self._root: Optional[_Node] = None
        #: The concrete state the graph was last expanded into.
        self._world: Optional[_World] = None

    # -- public API ------------------------------------------------------

    def run_once(self, rng: random.Random) -> FinalState:
        """One complete run under a random schedule; returns the final
        state (registers and memory).  Draws from ``rng`` as
        :meth:`sample` does."""
        (state,) = self.sample(1, rng=rng)
        return state

    def run_once_traced(
        self, rng: random.Random
    ) -> Tuple[FinalState, RunTrace]:
        """One complete run; returns the final state and the full trace.

        The reference scheduler: it chooses each step's action with
        ``rng.randrange(len(actions))``.  For a :class:`random.Random` it
        consumes ``rng`` exactly as :meth:`run_once` does and reaches the
        same final state."""
        trace = RunTrace()
        memory = _Memory(self._initial, trace)
        threads = [_ThreadState(table) for table in self._tables]
        syncs: List[_PendingSync] = []
        while True:
            actions = self._eligible_actions(threads, memory, syncs)
            if not actions:
                break
            action = actions[rng.randrange(len(actions))]
            self._step(action, threads, memory, syncs, trace)
        error = self._stuck(threads, syncs)
        if error is not None:
            raise SimulationError(error)
        return _final_state(threads, memory), trace

    def sample(
        self,
        runs: int,
        seed: int = 0,
        rng: Optional[random.Random] = None,
    ) -> Dict[FinalState, int]:
        """Run ``runs`` times; histogram of final states.

        Scheduling randomness comes exclusively from ``rng`` when given,
        else from a fresh ``random.Random(seed)`` — never from global
        ``random`` state — so a fixed seed reproduces the exact histogram
        across processes and simulator instances.  The histogram lists
        the final states in the order the runs first reached them.

        The rng contract: a step chooses among its ``n`` eligible actions
        by drawing ``i = rng.getrandbits(n.bit_length())`` until
        ``i < n``, and takes action ``i``.  For :class:`random.Random`
        (and a subclass that overrides ``getrandbits`` or nothing) this
        is exactly what ``rng.randrange(n)`` consumes and returns, so
        every seed replays the schedules of :meth:`run_once_traced`.
        """
        if rng is None:
            rng = random.Random(seed)
        getrandbits = rng.getrandbits
        root = self._root or self._make_root()
        # Runs per terminal node, in the order the runs first reached it.
        ends: Dict[_Node, int] = {}
        for _ in range(runs):
            # One walk of the state graph from the root to a terminal node.
            node = root
            width = node.width
            while width:
                bits = node.bits
                index = getrandbits(bits)
                while index >= width:
                    index = getrandbits(bits)
                node = node.successors[index] or self._expand(node, index)
                width = node.width
            if node.error is not None:
                raise SimulationError(node.error)
            ends[node] = ends.get(node, 0) + 1
        histogram: Dict[FinalState, int] = {}
        for end, count in ends.items():
            # Distinct terminal nodes may share a final state (they differ
            # in the ``if`` arms taken); the first one keeps its place.
            state = _copy(end.final)
            histogram[state] = histogram.get(state, 0) + count
        return histogram

    # -- the state graph --------------------------------------------------

    def _make_root(self) -> _Node:
        """Intern the initial state as the root of the state graph."""
        world = _World(
            [_ThreadState(table) for table in self._tables],
            _Memory(self._initial, None),
            [],
        )
        self._root = self._intern(
            tuple(thread.snapshot() for thread in world.threads), world
        )
        return self._root

    def _expand(self, node: _Node, index: int) -> _Node:
        """Take ``node``'s action ``index`` for the first time.

        The action runs on the live world when that still holds
        ``node``'s state (a run exploring new states keeps it), else on
        one restored from the node.  A step changes only the acting
        thread, memory and the pending grace periods, so the other
        threads' snapshots carry over.
        """
        world = self._world
        if world is None or world.node is not node:
            world = self._world = _World.restore(self._tables, node.state)
        # The step mutates the world: until it is interned again, it
        # holds no node's state.
        world.node = None
        action = node.actions[index]
        self._step(action, world.threads, world.memory, world.syncs, None)
        tid = action[1]
        snapshots = node.state[0]
        snapshots = (
            snapshots[:tid] + (world.threads[tid].snapshot(),) + snapshots[tid + 1:]
        )
        successor = node.successors[index] = self._intern(snapshots, world)
        if _obs.ENABLED:
            _obs.count("opsim.edges")
        return successor

    def _intern(self, snapshots: Tuple, world: _World) -> _Node:
        """The node of ``world``'s state (``snapshots`` being its threads'),
        made on first sight; ``world`` becomes the live world."""
        threads, memory, syncs = world.threads, world.memory, world.syncs
        state = (
            snapshots,
            tuple(memory.values.items()),
            tuple(
                (sync.thread, frozenset(sync.waiting_for), sync.number)
                for sync in syncs
            ),
        )
        node = self._nodes.get(state)
        if node is None:
            node = self._nodes[state] = _Node(
                state, self._eligible_actions(threads, memory, syncs)
            )
            if not node.actions:
                node.error = self._stuck(threads, syncs)
                if node.error is None:
                    node.final = _final_state(threads, memory)
            if _obs.ENABLED:
                _obs.count("opsim.states")
        world.node = node
        self._world = world
        return node

    # -- stepping ---------------------------------------------------------

    def _step(
        self,
        action: Tuple[str, int, int],
        threads: List[_ThreadState],
        memory: _Memory,
        syncs: List[_PendingSync],
        trace: Optional[RunTrace],
    ) -> None:
        """Take one scheduler ``action``: drain a buffered store, finish a
        grace period or execute an instruction; record its events in
        ``trace`` unless it is None."""
        kind, tid, number = action
        thread = threads[tid]
        if kind == "drain":
            loc, value, write_id = thread.buffer.pop(0)
            memory.commit(loc, value, write_id)
        elif kind == "sync-done":
            syncs[:] = [s for s in syncs if s.thread != tid]
            thread.syncing = False
            thread.done |= 1 << number
        else:
            self._execute(thread, number, memory, threads, syncs, trace)

    def _stuck(
        self, threads: List[_ThreadState], syncs: List[_PendingSync]
    ) -> Optional[str]:
        """For a state without eligible actions: the deadlock message, or
        None when every thread has finished."""
        if all(t.finished for t in threads) and not syncs:
            return None
        return (
            f"no eligible action in {self.program.name} "
            f"(deadlock at heads "
            f"{[(t.tid, t.head_index()) for t in threads]})"
        )

    # -- scheduling -------------------------------------------------------

    def _eligible_actions(
        self,
        threads: List[_ThreadState],
        memory: _Memory,
        syncs: List[_PendingSync],
    ) -> List[Tuple[str, int, int]]:
        actions: List[Tuple[str, int, int]] = []
        for thread in threads:
            if thread.buffer:
                actions.append(("drain", thread.tid, -1))
            offers, spins = thread.table.offers(
                thread.done, thread.fetched, thread.syncing
            )
            actions += offers
            for action, ins in spins:
                # A spin_lock can only start when the lock value matches.
                loc = self._eval_addr(ins.addr, thread.regs)
                current, _ = self._buffered_value(thread, loc, memory)
                if current == ins.require_read_value:
                    actions.append(action)
        if any(thread.buffer for thread in threads):
            # Every CPU passes a full barrier within a grace period: none
            # ends while a store is still buffered.
            return actions
        for sync in syncs:
            if not any(
                threads[tid].rcu_depth > 0 for tid in sync.waiting_for
            ):
                # All snapshotted readers have left their RSCS.
                actions.append(("sync-done", sync.thread, sync.number))
        return actions

    def _may_pass(self, earlier: Instruction, later: Instruction) -> bool:
        """May ``later`` complete while ``earlier`` is still pending?"""
        if isinstance(earlier, (If, Rmw, CmpXchg)):
            return False
        if isinstance(later, (Rmw, CmpXchg)):
            return False
        if isinstance(earlier, LocalAssign) or isinstance(later, LocalAssign):
            return True
        if isinstance(earlier, Fence):
            if earlier.tag in _LK_SPECIALS:
                return False
            rule = self.arch.fence_rule(earlier.tag)
            if isinstance(later, Fence):
                return False  # fences stay ordered with each other
            later_kind = "R" if isinstance(later, Load) else "W"
            # later may pass the fence iff the fence blocks no (k, later)
            # pair for any earlier kind k — conservatively, iff later's
            # kind never appears as the blocked later side.
            return all(b != later_kind for (_, b) in rule.blocks)
        if isinstance(later, Fence):
            if later.tag in _LK_SPECIALS:
                return False
            rule = self.arch.fence_rule(later.tag)
            earlier_kind = "R" if isinstance(earlier, Load) else "W"
            return all(a != earlier_kind for (a, _) in rule.blocks)
        if not self.arch.out_of_order:
            return False
        # Same-location accesses stay in order (coherence).
        earlier_loc = _static_location(earlier)
        later_loc = _static_location(later)
        if earlier_loc is None or later_loc is None or earlier_loc == later_loc:
            return False
        # Acquire loads / release stores (instruction-based, e.g. ARMv8).
        if isinstance(earlier, Load) and earlier.tag == "ldar":
            return False
        if isinstance(later, Store) and later.tag == "stlr":
            return False
        return True

    # -- execution --------------------------------------------------------

    def _execute(
        self,
        thread: _ThreadState,
        number: int,
        memory: _Memory,
        threads: List[_ThreadState],
        syncs: List[_PendingSync],
        trace: Optional[RunTrace],
    ) -> None:
        """Perform instruction ``number``; record its events in ``trace``
        unless it is None."""
        ins = thread.table.instructions[number]
        regs = thread.regs
        # The stream index, which a traced event records as its po index.
        index = thread.po_index(number) if trace is not None else -1

        if isinstance(ins, Load):
            loc = self._eval_addr(ins.addr, regs)
            value, source = self._buffered_value(thread, loc, memory)
            if trace is not None:
                read_id = trace.new_id()
                trace.events.append(
                    TraceEvent(
                        read_id, thread.tid, index, "R", ins.tag, loc, value,
                        addr_taints=self._taints(ins.addr, thread),
                        ctrl_taints=thread.ctrl,
                    )
                )
                trace.rf[read_id] = source
                thread.taints[ins.reg] = frozenset({read_id})
            regs[ins.reg] = value
            thread.done |= 1 << number
            return

        if isinstance(ins, Store):
            loc = self._eval_addr(ins.addr, regs)
            value = self._eval(ins.value, regs)
            write_id = None
            if trace is not None:
                write_id = trace.new_id()
                trace.events.append(
                    TraceEvent(
                        write_id, thread.tid, index, "W", ins.tag, loc, value,
                        addr_taints=self._taints(ins.addr, thread),
                        data_taints=self._taints(ins.value, thread),
                        ctrl_taints=thread.ctrl,
                    )
                )
            if self.arch.store_buffer:
                thread.buffer.append((loc, value, write_id))
            else:
                memory.commit(loc, value, write_id)
            thread.done |= 1 << number
            return

        if isinstance(ins, LocalAssign):
            regs[ins.reg] = self._eval(ins.expr, regs)
            if trace is not None:
                thread.taints[ins.reg] = self._taints(ins.expr, thread)
            thread.done |= 1 << number
            return

        if isinstance(ins, Fence):
            if ins.tag == RCU_LOCK:
                thread.rcu_depth += 1
            elif ins.tag == RCU_UNLOCK:
                thread.rcu_depth -= 1
            elif ins.tag == SYNC_RCU:
                # Full-fence entry: drain, then wait for current readers.
                self._drain(thread, memory)
                waiting = {
                    t.tid
                    for t in threads
                    if t.tid != thread.tid and t.rcu_depth > 0
                }
                self._record_fence(thread, index, ins, trace)
                syncs.append(_PendingSync(thread.tid, waiting, number))
                thread.syncing = True
                return  # completion happens via the "sync-done" action
            else:
                if self.arch.fence_rule(ins.tag).drains:
                    self._drain(thread, memory)
            self._record_fence(thread, index, ins, trace)
            thread.done |= 1 << number
            return

        if isinstance(ins, (Rmw, CmpXchg)):
            # Atomic: drain the buffer, then read-modify-write memory.
            self._drain(thread, memory)
            loc = self._eval_addr(ins.addr, regs)
            old = memory.values[loc]
            # A cmpxchg writes only when it reads the expected value; both
            # of its events are tagged "once".
            succeeds = True
            if isinstance(ins, CmpXchg):
                succeeds = old == self._eval(ins.expected, regs)
            read_id = None
            if trace is not None:
                addr_taints = self._taints(ins.addr, thread)
                read_id = trace.new_id()
                trace.events.append(
                    TraceEvent(
                        read_id, thread.tid, index, "R",
                        ins.read_tag if isinstance(ins, Rmw) else "once",
                        loc, old,
                        addr_taints=addr_taints, ctrl_taints=thread.ctrl,
                    )
                )
                trace.rf[read_id] = memory.writer[loc]
                thread.taints[ins.reg] = frozenset({read_id})
            regs[ins.reg] = old
            if succeeds:
                new_value = self._eval(ins.new_value, regs)
                write_id = None
                if trace is not None:
                    write_id = trace.new_id()
                    trace.events.append(
                        TraceEvent(
                            write_id, thread.tid, index, "W",
                            ins.write_tag if isinstance(ins, Rmw) else "once",
                            loc, new_value,
                            addr_taints=addr_taints,
                            data_taints=self._taints(ins.new_value, thread)
                            | {read_id},
                            ctrl_taints=thread.ctrl,
                        )
                    )
                    trace.rmw_pairs.append((read_id, write_id))
                memory.commit(loc, new_value, write_id)
            thread.done |= 1 << number
            return

        if isinstance(ins, If):
            cond = self._eval(ins.cond, regs)
            taken = bool(cond) if not isinstance(cond, Pointer) else True
            then, orelse = thread.table.arms[number]
            thread.fetched |= then if taken else orelse
            if trace is not None:
                thread.ctrl = thread.ctrl | self._taints(ins.cond, thread)
            thread.done |= 1 << number
            return

        raise SimulationError(f"cannot simulate {ins!r}")

    def _record_fence(
        self,
        thread: _ThreadState,
        index: int,
        ins: Fence,
        trace: Optional[RunTrace],
    ) -> None:
        if trace is not None:
            trace.events.append(
                TraceEvent(
                    trace.new_id(), thread.tid, index, "F", ins.tag,
                    ctrl_taints=thread.ctrl,
                )
            )

    def _drain(self, thread: _ThreadState, memory: _Memory) -> None:
        for loc, value, write_id in thread.buffer:
            memory.commit(loc, value, write_id)
        thread.buffer.clear()

    def _buffered_value(
        self, thread: _ThreadState, loc: str, memory: _Memory
    ) -> Tuple[Value, Optional[int]]:
        """The value visible to ``thread`` at ``loc`` and the id of the
        write providing it (store forwarding first)."""
        for buffered_loc, value, write_id in reversed(thread.buffer):
            if buffered_loc == loc:
                return value, write_id
        return memory.values[loc], memory.writer[loc]

    # -- expression evaluation -------------------------------------------

    def _eval(self, expr: Expr, regs: Dict[str, Value]) -> Value:
        if isinstance(expr, Const):
            return expr.value
        if isinstance(expr, Reg):
            return regs.get(expr.name, 0)
        if isinstance(expr, BinOp):
            return expr.apply(self._eval(expr.lhs, regs), self._eval(expr.rhs, regs))
        if isinstance(expr, UnOp):
            return expr.apply(self._eval(expr.operand, regs))
        raise SimulationError(f"cannot evaluate {expr!r}")

    def _taints(self, expr: Expr, thread: _ThreadState) -> FrozenSet[int]:
        """Ids of the reads ``expr``'s current value derives from."""
        taints: Set[int] = set()
        for name in expr_registers(expr):
            taints |= thread.taints.get(name, _NO_TAINTS)
        return frozenset(taints)

    def _eval_addr(self, expr: Expr, regs: Dict[str, Value]) -> str:
        value = self._eval(expr, regs)
        if not isinstance(value, Pointer):
            raise SimulationError(f"non-pointer address {value!r}")
        return value.loc


# -- static helpers ----------------------------------------------------------


def _final_state(threads: List[_ThreadState], memory: _Memory) -> FinalState:
    registers = {
        (t.tid, name): value for t in threads for name, value in t.regs.items()
    }
    return FinalState(registers, memory.values)


def _copy(state: FinalState) -> FinalState:
    return FinalState(dict(state.registers), dict(state.memory))


def _numbers(mask: int) -> List[int]:
    """The numbers whose bits are set in ``mask``, in increasing order."""
    numbers = []
    while mask:
        low = mask & -mask
        numbers.append(low.bit_length() - 1)
        mask ^= low
    return numbers


def _lowest(mask: int) -> int:
    """The smallest number whose bit is set in a non-zero ``mask``."""
    return (mask & -mask).bit_length() - 1


def _blocks_window(ins: Instruction) -> bool:
    """Instructions nothing may be reordered past (in fetch order)."""
    if isinstance(ins, If):
        return True  # no speculation past unresolved branches
    if isinstance(ins, (Rmw, CmpXchg)):
        return True
    if isinstance(ins, Fence) and ins.tag in _LK_SPECIALS:
        return True
    return False


def _static_location(ins: Instruction) -> Optional[str]:
    """The literal location of a load or store, or None if dynamic."""
    if isinstance(ins, (Load, Store)):
        return const_location(ins.addr)
    return None
