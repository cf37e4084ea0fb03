"""The static program skeleton: events that exist in *every* execution.

The symbolic prover (:mod:`repro.analysis.symbolic.prover`) reasons about
facts that hold across all candidate executions of a litmus test.  Its
foundation is the *skeleton*: one event list per thread whose structure —
kinds, locations, tags, fences, syntactic dependencies — is identical in
every trace the per-thread semantics (:mod:`repro.executions.thread_sem`)
can produce.  That is exactly the straight-line fragment: ``Load`` /
``Store`` / ``Fence`` / ``LocalAssign``, plus conditionals whose condition
folds to a compile-time constant (the diy generator's control-dependency
idiom, ``if ((r & 0) == 0) { ... }``) — those follow the same arm in every
trace, so splicing the taken arm in preserves the trace structure
verbatim, including herd's rule that a control dependency extends to every
event after the branch.

Anything that makes the *structure* trace-dependent — RMWs (a failed
``cmpxchg`` emits fewer events), ``Assume`` filters, branches on loaded
values, register-dependent addresses — raises :class:`Unsupported`, and
the prover falls back to full enumeration.  Values are tracked
symbolically: a constant where derivable (mirroring the identities of
:func:`repro.analysis.flow.analyses.fold_expr`, which hold in every
trace: ``x ^ x = 0``, ``x & 0 = 0``, ``x == x = 1``, ...), the
:data:`UNKNOWN` sentinel otherwise.  Taints stay *syntactic* exactly as
thread_sem computes them: ``r ^ r`` folds to 0 but still carries ``r``'s
read in its dependency set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.events import FENCE, Pointer, READ, WRITE
from repro.litmus.ast import (
    BinOp,
    Const,
    Expr,
    Fence,
    If,
    Instruction,
    LitmusError,
    Load,
    LocalAssign,
    Program,
    Reg,
    Store,
    UnOp,
)


class Unsupported(Exception):
    """The program is outside the statically analysable fragment."""


class _Unknown:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "UNKNOWN"


#: Sentinel for "varies across traces" (distinct from any litmus value).
UNKNOWN = _Unknown()


@dataclass(frozen=True)
class SkelEvent:
    """One event of the skeleton, mirroring a trace's ``ProtoEvent`` but
    with symbolic values.  ``index`` is the event's position within its
    thread — identical to the trace-local index thread_sem assigns, so
    the dependency sets line up with real traces pair for pair."""

    tid: int
    index: int
    kind: str
    tag: str
    loc: Optional[str] = None
    value: object = None  # writes: constant or UNKNOWN
    addr_deps: FrozenSet[int] = frozenset()
    data_deps: FrozenSet[int] = frozenset()
    ctrl_deps: FrozenSet[int] = frozenset()

    @property
    def key(self) -> Tuple[int, int]:
        return (self.tid, self.index)

    def describe(self) -> str:
        body = self.loc if self.loc is not None else self.tag
        return f"P{self.tid}:{self.index}:{self.kind}{body or ''}"


#: A register's origin: ("const", value) when its final value is the same
#: compile-time constant in every trace, ("read", index) when it is
#: exactly the value returned by the thread's read at ``index``,
#: ("opaque", None) otherwise.
RegOrigin = Tuple[str, object]


@dataclass
class ThreadSkeleton:
    events: Tuple[SkelEvent, ...]
    #: Final register origins at thread exit.
    final_regs: Dict[str, RegOrigin]


@dataclass
class ProgramSkeleton:
    program: Program
    threads: Tuple[ThreadSkeleton, ...]

    def event(self, key: Tuple[int, int]) -> SkelEvent:
        tid, index = key
        return self.threads[tid].events[index]

    def accesses(self) -> List[SkelEvent]:
        return [
            event
            for thread in self.threads
            for event in thread.events
            if event.kind in (READ, WRITE)
        ]

    def writes_to(self, loc: str) -> List[SkelEvent]:
        return [
            event
            for thread in self.threads
            for event in thread.events
            if event.kind == WRITE and event.loc == loc
        ]

    def fences_between(self, a: SkelEvent, b: SkelEvent) -> List[SkelEvent]:
        """Fence events po-between two same-thread events."""
        if a.tid != b.tid:
            return []
        lo, hi = min(a.index, b.index), max(a.index, b.index)
        return [
            event
            for event in self.threads[a.tid].events[lo + 1:hi]
            if event.kind == FENCE
        ]


_SymValue = object  # a litmus Value, or UNKNOWN
_SymEnv = Dict[str, Tuple[_SymValue, FrozenSet[int], Optional[int]]]


def _eval_sym(expr: Expr, env: _SymEnv) -> Tuple[_SymValue, FrozenSet[int]]:
    """Symbolic mirror of ``thread_sem._eval``: the value every trace
    computes (or UNKNOWN), with the *syntactic* read taints every trace
    carries.  The identities follow fold_expr and are facts about all
    traces: whatever value ``x`` takes, ``x ^ x`` is 0."""
    if isinstance(expr, Const):
        return expr.value, frozenset()
    if isinstance(expr, Reg):
        value, taints, _ = env.get(expr.name, (0, frozenset(), None))
        return value, taints
    if isinstance(expr, UnOp):
        value, taints = _eval_sym(expr.operand, env)
        if value is UNKNOWN:
            return UNKNOWN, taints
        try:
            return expr.apply(value), taints
        except LitmusError:
            raise Unsupported(f"unevaluable expression {expr!r}")
    if isinstance(expr, BinOp):
        lhs, ltaints = _eval_sym(expr.lhs, env)
        rhs, rtaints = _eval_sym(expr.rhs, env)
        taints = ltaints | rtaints
        if lhs is not UNKNOWN and rhs is not UNKNOWN:
            try:
                return expr.apply(lhs, rhs), taints
            except LitmusError:
                raise Unsupported(f"unevaluable expression {expr!r}")
        if expr.lhs == expr.rhs:
            if expr.op in ("^", "-"):
                return 0, taints
            if expr.op in ("==", "<=", ">="):
                return 1, taints
            if expr.op in ("!=", "<", ">"):
                return 0, taints
        if expr.op in ("*", "&") and (lhs == 0 or rhs == 0):
            return 0, taints
        if expr.op == "&&" and (lhs == 0 or rhs == 0):
            return 0, taints
        if expr.op == "||" and (
            (lhs is not UNKNOWN and lhs != 0)
            or (rhs is not UNKNOWN and rhs != 0)
        ):
            return 1, taints
        return UNKNOWN, taints
    raise Unsupported(f"unknown expression {expr!r}")


def _static_loc(expr: Expr, env: _SymEnv) -> Tuple[str, FrozenSet[int]]:
    value, taints = _eval_sym(expr, env)
    if isinstance(value, Pointer):
        return value.loc, taints
    raise Unsupported(f"address {expr!r} is not a static pointer")


def _extract_thread(tid: int, body: Tuple[Instruction, ...]) -> ThreadSkeleton:
    events: List[SkelEvent] = []
    env: _SymEnv = {}
    ctrl: FrozenSet[int] = frozenset()

    def run(instructions) -> None:
        nonlocal ctrl
        for ins in instructions:
            if isinstance(ins, LocalAssign):
                value, taints = _eval_sym(ins.expr, env)
                source = None
                if isinstance(ins.expr, Reg):
                    source = env.get(
                        ins.expr.name, (0, frozenset(), None)
                    )[2]
                env[ins.reg] = (value, taints, source)
            elif isinstance(ins, Fence):
                events.append(
                    SkelEvent(tid, len(events), FENCE, ins.tag,
                              ctrl_deps=ctrl)
                )
            elif isinstance(ins, Store):
                loc, addr_deps = _static_loc(ins.addr, env)
                value, data_deps = _eval_sym(ins.value, env)
                events.append(
                    SkelEvent(tid, len(events), WRITE, ins.tag, loc,
                              UNKNOWN if value is UNKNOWN else value,
                              addr_deps, data_deps, ctrl)
                )
            elif isinstance(ins, Load):
                loc, addr_deps = _static_loc(ins.addr, env)
                read_index = len(events)
                events.append(
                    SkelEvent(tid, read_index, READ, ins.tag, loc,
                              addr_deps=addr_deps, ctrl_deps=ctrl)
                )
                if ins.rb_dep:
                    events.append(
                        SkelEvent(tid, len(events), FENCE, "rb-dep",
                                  ctrl_deps=ctrl)
                    )
                env[ins.reg] = (
                    UNKNOWN, frozenset({read_index}), read_index
                )
            elif isinstance(ins, If):
                value, taints = _eval_sym(ins.cond, env)
                if value is UNKNOWN:
                    raise Unsupported(
                        "branch on a value that varies across traces"
                    )
                taken = True if isinstance(value, Pointer) else bool(value)
                ctrl = ctrl | taints
                run(ins.then if taken else ins.orelse)
            else:
                raise Unsupported(f"unsupported instruction {ins!r}")

    run(body)
    final: Dict[str, RegOrigin] = {}
    for reg, (value, _, source) in env.items():
        if value is not UNKNOWN:
            final[reg] = ("const", value)
        elif source is not None:
            final[reg] = ("read", source)
        else:
            final[reg] = ("opaque", None)
    return ThreadSkeleton(tuple(events), final)


def extract_skeleton(program: Program) -> ProgramSkeleton:
    """The program's skeleton, or :class:`Unsupported`."""
    return ProgramSkeleton(
        program,
        tuple(
            _extract_thread(tid, tuple(thread.body))
            for tid, thread in enumerate(program.threads)
        ),
    )
