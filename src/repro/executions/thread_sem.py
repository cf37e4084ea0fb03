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
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from repro.events import FENCE, MB, Pointer, READ, Value, WRITE
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


def enumerate_thread_traces(
    thread: Thread, value_sets: ValueSets
) -> List[ThreadTrace]:
    """All traces of ``thread``, branching reads over ``value_sets``."""
    return list(_run(list(thread.body), {}, [], [], frozenset(), value_sets))


def _run(
    todo: List[Instruction],
    regs: RegEnv,
    events: List[ProtoEvent],
    rmw_pairs: List[Tuple[int, int]],
    ctrl: FrozenSet[int],
    value_sets: ValueSets,
) -> Iterator[ThreadTrace]:
    """DFS over the remaining instructions; yields complete traces."""
    if not todo:
        yield ThreadTrace(
            tuple(events),
            tuple(rmw_pairs),
            {name: value for name, (value, _) in regs.items()},
        )
        return

    ins, rest = todo[0], todo[1:]

    if isinstance(ins, LocalAssign):
        value, deps = _eval(ins.expr, regs)
        new_regs = dict(regs)
        new_regs[ins.reg] = (value, deps)
        yield from _run(rest, new_regs, events, rmw_pairs, ctrl, value_sets)
        return

    if isinstance(ins, Assume):
        value, _ = _eval(ins.cond, regs)
        if isinstance(value, Pointer) or value:
            yield from _run(rest, regs, events, rmw_pairs, ctrl, value_sets)
        return  # falsy assumption: the trace is discarded

    if isinstance(ins, Fence):
        fence = ProtoEvent(FENCE, ins.tag, ctrl_deps=ctrl)
        yield from _run(rest, regs, events + [fence], rmw_pairs, ctrl, value_sets)
        return

    if isinstance(ins, Store):
        loc, addr_deps = _eval_address(ins.addr, regs)
        value, data_deps = _eval(ins.value, regs)
        write = ProtoEvent(
            WRITE, ins.tag, loc, value, addr_deps, data_deps, ctrl
        )
        yield from _run(rest, regs, events + [write], rmw_pairs, ctrl, value_sets)
        return

    if isinstance(ins, Load):
        loc, addr_deps = _eval_address(ins.addr, regs)
        read_index = len(events)
        for chosen in _location_values(loc, value_sets):
            read = ProtoEvent(
                READ, ins.tag, loc, chosen, addr_deps, ctrl_deps=ctrl
            )
            new_events = events + [read]
            if ins.rb_dep:
                new_events.append(ProtoEvent(FENCE, "rb-dep", ctrl_deps=ctrl))
            new_regs = dict(regs)
            new_regs[ins.reg] = (chosen, frozenset({read_index}))
            yield from _run(
                rest, new_regs, new_events, rmw_pairs, ctrl, value_sets
            )
        return

    if isinstance(ins, Rmw):
        loc, addr_deps = _eval_address(ins.addr, regs)
        for chosen in _location_values(loc, value_sets):
            if ins.require_read_value is not None and chosen != ins.require_read_value:
                continue
            new_events = list(events)
            if ins.full_fences:
                new_events.append(ProtoEvent(FENCE, MB, ctrl_deps=ctrl))
            read_index = len(new_events)
            new_events.append(
                ProtoEvent(READ, ins.read_tag, loc, chosen, addr_deps, ctrl_deps=ctrl)
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
            yield from _run(
                rest,
                new_regs,
                new_events,
                rmw_pairs + [(read_index, write_index)],
                ctrl,
                value_sets,
            )
        return

    if isinstance(ins, CmpXchg):
        loc, addr_deps = _eval_address(ins.addr, regs)
        expected, expected_deps = _eval(ins.expected, regs)
        from repro.litmus.ast import RMW_VARIANTS

        read_tag, write_tag, full_fences = RMW_VARIANTS[ins.variant]
        for chosen in _location_values(loc, value_sets):
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
            yield from _run(
                rest, new_regs, new_events, new_rmw, ctrl, value_sets
            )
        return

    if isinstance(ins, If):
        cond, cond_deps = _eval(ins.cond, regs)
        if isinstance(cond, Pointer):
            taken = True  # non-NULL pointer
        else:
            taken = bool(cond)
        branch = list(ins.then if taken else ins.orelse)
        yield from _run(
            branch + rest, regs, events, rmw_pairs, ctrl | cond_deps, value_sets
        )
        return

    raise SemanticsError(f"unknown instruction {ins!r}")


def _location_values(loc: str, value_sets: ValueSets):
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

    Starts from the initial values and repeatedly re-evaluates every thread,
    adding any value some write can produce.  The fixpoint is reached in at
    most as many rounds as there are instructions (each round can only
    lengthen real read-to-write value chains by one); ``max_rounds`` guards
    against pathological programs.
    """
    return traces_at_fixpoint(program, max_rounds)[0]


def traces_at_fixpoint(
    program: Program, max_rounds: Optional[int] = None
) -> Tuple[ValueSets, List[List[ThreadTrace]]]:
    """:func:`possible_value_sets` and every thread's traces under them.

    The round that finds no new value evaluated each thread under the
    final sets, so its traces are returned as they are: equal to a fresh
    :func:`enumerate_thread_traces` per thread, without enumerating again.
    Only when ``max_rounds`` runs out first are the threads enumerated
    once more.
    """
    if max_rounds is None:
        max_rounds = sum(_instruction_count(t.body) for t in program.threads) + 2

    values: ValueSets = {
        location: {program.initial_value(location)}
        for location in program.locations()
    }
    for _ in range(max_rounds):
        changed = False
        per_thread: List[List[ThreadTrace]] = []
        for thread in program.threads:
            traces = enumerate_thread_traces(thread, values)
            per_thread.append(traces)
            for trace in traces:
                for event in trace.events:
                    if event.is_write:
                        locs = values.setdefault(event.loc, {0})
                        if event.value not in locs:
                            locs.add(event.value)
                            changed = True
        if not changed:
            return values, per_thread
    return values, [
        enumerate_thread_traces(thread, values) for thread in program.threads
    ]


def _instruction_count(body: Sequence[Instruction]) -> int:
    count = 0
    for ins in body:
        count += 1
        if isinstance(ins, If):
            count += _instruction_count(ins.then) + _instruction_count(ins.orelse)
    return count
