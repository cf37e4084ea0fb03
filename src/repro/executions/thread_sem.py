"""Per-thread semantics: from instructions to event traces.

Each thread of a litmus test is evaluated into the set of its possible
*traces*.  A trace fixes, for every dynamic read, the value it returns;
therefore evaluation is fully concrete along a trace, and conditionals
simply follow the arm selected by the (chosen) read values.  Enumeration
over read values uses the per-location *possible value sets* — the fixpoint
of "values any write can produce" seeded with the initial values.

Dependencies are computed by taint tracking, as herd does:

* a register written by a read is tainted by that read;
* the **address dependency** of an access collects the taints of its
  address expression;
* the **data dependency** of a write collects the taints of its value
  expression;
* after a conditional whose condition is tainted by a read, *every*
  subsequent event of the thread carries a **control dependency** from that
  read (herd's treatment: ``ctrl`` extends past the join point).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.events import FENCE, MB, Pointer, READ, Value, WRITE
from repro.guard import core as _guard
from repro.litmus.ast import (
    Assume,
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
    RMW_VARIANTS,
    Rmw,
    Store,
    Thread,
    UnOp,
)


class SemanticsError(Exception):
    """Raised when a thread cannot be evaluated (e.g. non-pointer address)."""


#: A register environment: name -> (value, taints).  Taints are indices of
#: read events (within the trace being built) the value depends on.
RegEnv = Dict[str, Tuple[Value, FrozenSet[int]]]


@dataclass(frozen=True)
class ProtoEvent:
    """A thread-local event before global ids are assigned.

    ``addr_deps``/``data_deps``/``ctrl_deps`` hold trace-local indices of
    the read events this event depends on.
    """

    kind: str
    tag: str
    loc: Optional[str] = None
    value: Optional[Value] = None
    addr_deps: FrozenSet[int] = frozenset()
    data_deps: FrozenSet[int] = frozenset()
    ctrl_deps: FrozenSet[int] = frozenset()

    @property
    def is_read(self) -> bool:
        return self.kind == READ

    @property
    def is_write(self) -> bool:
        return self.kind == WRITE


@dataclass(frozen=True)
class ThreadTrace:
    """One possible trace of a thread.

    Attributes:
        events: The events, in program order.
        rmw_pairs: Pairs of indices ``(read, write)`` forming RMWs.
        final_regs: Register values at the end of the trace.
    """

    events: Tuple[ProtoEvent, ...]
    rmw_pairs: Tuple[Tuple[int, int], ...]
    final_regs: Dict[str, Value] = field(default_factory=dict, hash=False, compare=False)


ValueSets = Dict[str, Set[Value]]

#: The instructions still to run, as a cons list ``(first, rest)``, or
#: ``None`` when there are none.
Todo = Optional[Tuple[Instruction, "Todo"]]


def enumerate_thread_traces(
    thread: Thread,
    value_sets: ValueSets,
    queried: Optional[Set[str]] = None,
    written: Optional[Set[Tuple[str, Value]]] = None,
) -> List[ThreadTrace]:
    """All traces of ``thread``, branching reads over ``value_sets``.

    Every location a read looks up in ``value_sets`` is added to
    ``queried`` (when given), even one whose every branch an ``assume``
    then discards: the traces depend on ``value_sets`` only there.
    The ``(location, value)`` pair of every write of a returned trace is
    added to ``written`` (when given).
    """
    traces: List[ThreadTrace] = []
    todo: Todo = None
    for ins in reversed(thread.body):
        todo = (ins, todo)
    _run(
        todo, {}, [], [], frozenset(), value_sets,
        set() if queried is None else queried,
        set() if written is None else written, traces,
    )
    return traces


def _run(
    todo: Todo,
    regs: RegEnv,
    events: List[ProtoEvent],
    rmw_pairs: List[Tuple[int, int]],
    ctrl: FrozenSet[int],
    value_sets: ValueSets,
    queried: Set[str],
    written: Set[Tuple[str, Value]],
    out: List[ThreadTrace],
) -> None:
    """DFS over the remaining instructions; appends complete traces to
    ``out``.

    Straight-line instructions run in this frame, which owns ``regs`` and
    ``events`` and updates them in place.  A read recurses once per value
    it may return, on fresh copies, then ends the frame.  The writes a
    frame adds go to ``written`` once, when the frame ends having added
    a trace to ``out``: a write on a path every ``assume`` discards is not
    recorded.
    """
    if _guard.ACTIVE:
        _guard._current.tick()  # budget safepoint: one frame, a read branch
    start = len(out)
    stores: List[Tuple[str, Value]] = []
    while todo is not None:
        ins, todo = todo

        if isinstance(ins, LocalAssign):
            regs[ins.reg] = _eval(ins.expr, regs)
            continue

        if isinstance(ins, Assume):
            value, _ = _eval(ins.cond, regs)
            if isinstance(value, Pointer) or value:
                continue
            return  # falsy assumption: the trace is discarded

        if isinstance(ins, Fence):
            events.append(ProtoEvent(FENCE, ins.tag, ctrl_deps=ctrl))
            continue

        if isinstance(ins, Store):
            loc, addr_deps = _eval_address(ins.addr, regs)
            value, data_deps = _eval(ins.value, regs)
            events.append(
                ProtoEvent(WRITE, ins.tag, loc, value, addr_deps, data_deps, ctrl)
            )
            stores.append((loc, value))
            continue

        if isinstance(ins, If):
            cond, cond_deps = _eval(ins.cond, regs)
            if isinstance(cond, Pointer):
                taken = True  # non-NULL pointer
            else:
                taken = bool(cond)
            for branch_ins in reversed(ins.then if taken else ins.orelse):
                todo = (branch_ins, todo)
            ctrl = ctrl | cond_deps
            continue

        if isinstance(ins, Load):
            loc, addr_deps = _eval_address(ins.addr, regs)
            read_index = len(events)
            for chosen in _location_values(loc, value_sets, queried):
                read = ProtoEvent(
                    READ, ins.tag, loc, chosen, addr_deps, ctrl_deps=ctrl
                )
                new_events = events + [read]
                if ins.rb_dep:
                    new_events.append(ProtoEvent(FENCE, "rb-dep", ctrl_deps=ctrl))
                new_regs = dict(regs)
                new_regs[ins.reg] = (chosen, frozenset({read_index}))
                _run(
                    todo, new_regs, new_events, rmw_pairs, ctrl, value_sets,
                    queried, written, out,
                )
            break

        if isinstance(ins, Rmw):
            loc, addr_deps = _eval_address(ins.addr, regs)
            for chosen in _location_values(loc, value_sets, queried):
                required = ins.require_read_value
                if required is not None and chosen != required:
                    continue
                new_events = list(events)
                if ins.full_fences:
                    new_events.append(ProtoEvent(FENCE, MB, ctrl_deps=ctrl))
                read_index = len(new_events)
                new_events.append(
                    ProtoEvent(
                        READ, ins.read_tag, loc, chosen, addr_deps, ctrl_deps=ctrl
                    )
                )
                new_regs = dict(regs)
                new_regs[ins.reg] = (chosen, frozenset({read_index}))
                new_value, data_deps = _eval(ins.new_value, new_regs)
                write_index = len(new_events)
                new_events.append(
                    ProtoEvent(
                        WRITE,
                        ins.write_tag,
                        loc,
                        new_value,
                        addr_deps,
                        data_deps | frozenset({read_index}),
                        ctrl,
                    )
                )
                if ins.full_fences:
                    new_events.append(ProtoEvent(FENCE, MB, ctrl_deps=ctrl))
                before = len(out)
                _run(
                    todo,
                    new_regs,
                    new_events,
                    rmw_pairs + [(read_index, write_index)],
                    ctrl,
                    value_sets,
                    queried,
                    written,
                    out,
                )
                if len(out) > before:
                    written.add((loc, new_value))
            break

        if isinstance(ins, CmpXchg):
            loc, addr_deps = _eval_address(ins.addr, regs)
            expected, expected_deps = _eval(ins.expected, regs)
            read_tag, write_tag, full_fences = RMW_VARIANTS[ins.variant]
            for chosen in _location_values(loc, value_sets, queried):
                success = chosen == expected
                new_events = list(events)
                if success and full_fences:
                    new_events.append(ProtoEvent(FENCE, MB, ctrl_deps=ctrl))
                read_index = len(new_events)
                # A failed cmpxchg provides no ordering: its read stays "once".
                tag = read_tag if success else "once"
                new_events.append(
                    ProtoEvent(READ, tag, loc, chosen, addr_deps, ctrl_deps=ctrl)
                )
                new_regs = dict(regs)
                new_regs[ins.reg] = (chosen, frozenset({read_index}))
                new_rmw = list(rmw_pairs)
                if success:
                    new_value, data_deps = _eval(ins.new_value, new_regs)
                    write_index = len(new_events)
                    new_events.append(
                        ProtoEvent(
                            WRITE,
                            write_tag,
                            loc,
                            new_value,
                            addr_deps,
                            data_deps | expected_deps | frozenset({read_index}),
                            ctrl,
                        )
                    )
                    new_rmw.append((read_index, write_index))
                    if full_fences:
                        new_events.append(ProtoEvent(FENCE, MB, ctrl_deps=ctrl))
                before = len(out)
                _run(
                    todo, new_regs, new_events, new_rmw, ctrl, value_sets,
                    queried, written, out,
                )
                if success and len(out) > before:
                    written.add((loc, new_value))
            break

        raise SemanticsError(f"unknown instruction {ins!r}")
    else:
        out.append(
            ThreadTrace(
                tuple(events),
                tuple(rmw_pairs),
                {name: value for name, (value, _) in regs.items()},
            )
        )
    if stores and len(out) > start:
        written.update(stores)


def _location_values(loc: str, value_sets: ValueSets, queried: Set[str]):
    queried.add(loc)
    values = value_sets.get(loc)
    if not values:
        return [0]
    return sorted(values, key=repr)


def _eval(expr: Expr, regs: RegEnv) -> Tuple[Value, FrozenSet[int]]:
    """Evaluate an expression, returning its value and read taints."""
    if isinstance(expr, Const):
        return expr.value, frozenset()
    if isinstance(expr, Reg):
        return regs.get(expr.name, (0, frozenset()))
    if isinstance(expr, BinOp):
        lhs, ldeps = _eval(expr.lhs, regs)
        rhs, rdeps = _eval(expr.rhs, regs)
        return expr.apply(lhs, rhs), ldeps | rdeps
    if isinstance(expr, UnOp):
        value, deps = _eval(expr.operand, regs)
        return expr.apply(value), deps
    raise SemanticsError(f"unknown expression {expr!r}")


def _eval_address(expr: Expr, regs: RegEnv) -> Tuple[str, FrozenSet[int]]:
    value, deps = _eval(expr, regs)
    if not isinstance(value, Pointer):
        raise SemanticsError(
            f"address expression {expr!r} evaluated to non-pointer {value!r}"
        )
    return value.loc, deps


def possible_value_sets(program: Program, max_rounds: Optional[int] = None) -> ValueSets:
    """Fixpoint of the per-location possible-value sets.

    Starts from the initial values and repeatedly re-evaluates the threads
    whose reads may now return more values, adding any value some write
    can produce.  The fixpoint is reached in at most as many rounds as
    there are instructions (each round can only lengthen real
    read-to-write value chains by one); ``max_rounds`` guards against
    pathological programs.
    """
    return traces_at_fixpoint(program, max_rounds)[0]


def traces_at_fixpoint(
    program: Program, max_rounds: Optional[int] = None
) -> Tuple[ValueSets, List[List[ThreadTrace]]]:
    """:func:`possible_value_sets` and every thread's traces under them.

    The iteration is incremental.  A thread's traces depend on the value
    sets only at the locations its reads queried (see
    :func:`enumerate_thread_traces`), so a thread is enumerated again
    only when one of those gained a value since its last enumeration.
    Each round enumerates, in thread order, the threads that are stale
    when reached, adding their writes' values as it goes; the round that
    finds none stale ends the iteration.  Every thread's traces are then
    those a fresh enumeration under the final sets returns, in the same
    order.  The value sets grow as in a round that enumerates every
    thread, so they are the same after each round.  When ``max_rounds``
    runs out first, the stale threads are enumerated once more.
    """
    threads = program.threads
    if max_rounds is None:
        max_rounds = sum(_instruction_count(t.body) for t in threads) + 2

    values: ValueSets = {
        location: {program.initial_value(location)}
        for location in program.locations()
    }
    per_thread: List[List[ThreadTrace]] = [[] for _ in threads]
    queried: List[Set[str]] = [set() for _ in threads]
    stale = [True] * len(threads)
    for _ in range(max_rounds):
        if not any(stale):
            break
        for tid, thread in enumerate(threads):
            if not stale[tid]:
                continue
            stale[tid] = False
            queried[tid] = set()
            written: Set[Tuple[str, Value]] = set()
            per_thread[tid] = enumerate_thread_traces(
                thread, values, queried[tid], written
            )
            for loc, value in written:
                locs = values.setdefault(loc, {0})
                if value not in locs:
                    locs.add(value)
                    for other, locations in enumerate(queried):
                        if loc in locations:
                            stale[other] = True
    for tid, thread in enumerate(threads):
        if stale[tid]:
            per_thread[tid] = enumerate_thread_traces(thread, values)
    return values, per_thread


def _instruction_count(body: Sequence[Instruction]) -> int:
    count = 0
    for ins in body:
        count += 1
        if isinstance(ins, If):
            count += _instruction_count(ins.then) + _instruction_count(ins.orelse)
    return count
