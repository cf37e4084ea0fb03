"""Abstract syntax of litmus-test programs.

Instructions correspond to the Linux-kernel primitives of Tables 3 and 4 of
the paper.  Each primitive is represented by the events it gives rise to:

==============================  =======================================
LK/C primitive                  Event(s)
==============================  =======================================
``READ_ONCE()``                 ``R[once]``
``WRITE_ONCE()``                ``W[once]``
``smp_load_acquire()``          ``R[acquire]``
``smp_store_release()``         ``W[release]``
``smp_rmb()``                   ``F[rmb]``
``smp_wmb()``                   ``F[wmb]``
``smp_mb()``                    ``F[mb]``
``smp_read_barrier_depends()``  ``F[rb-dep]``
``xchg_relaxed()``              ``R[once], W[once]``
``xchg_acquire()``              ``R[acquire], W[once]``
``xchg_release()``              ``R[once], W[release]``
``xchg()``                      ``F[mb], R[once], W[once], F[mb]``
``rcu_dereference()``           ``R[once], F[rb-dep]``
``rcu_assign_pointer()``        ``W[release]``
``rcu_read_lock()``             ``F[rcu-lock]``
``rcu_read_unlock()``           ``F[rcu-unlock]``
``synchronize_rcu()``           ``F[sync-rcu]``
==============================  =======================================

Expressions evaluate to integers or :class:`~repro.events.Pointer` values;
evaluation also tracks which read events the result *depends on*, which is
how the address, data, and control dependency relations are computed
(:mod:`repro.executions.thread_sem`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from repro.events import ACQUIRE, ONCE, Pointer, RELEASE, Value
from repro.litmus.outcomes import Condition, LocValue, condition_atoms


class LitmusError(Exception):
    """Raised for malformed litmus programs."""


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expr:
    """Base class for value expressions."""

    __slots__ = ()


@dataclass(frozen=True)
class Const(Expr):
    """A literal value: an integer or a pointer ``&loc``."""

    value: Value

    def __repr__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class Reg(Expr):
    """A private (per-thread) register, e.g. ``r1``."""

    name: str

    def __repr__(self) -> str:
        return self.name


_INT_OPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "^": lambda a, b: a ^ b,
    "&": lambda a, b: a & b,
    "|": lambda a, b: a | b,
    "<": lambda a, b: int(a < b),
    ">": lambda a, b: int(a > b),
    "<=": lambda a, b: int(a <= b),
    ">=": lambda a, b: int(a >= b),
    "&&": lambda a, b: int(bool(a) and bool(b)),
    "||": lambda a, b: int(bool(a) or bool(b)),
}


@dataclass(frozen=True)
class BinOp(Expr):
    """A binary operation.  ``==``/``!=`` also compare pointers."""

    op: str
    lhs: Expr
    rhs: Expr

    def apply(self, a: Value, b: Value) -> Value:
        if self.op == "==":
            return int(a == b)
        if self.op == "!=":
            return int(a != b)
        fn = _INT_OPS.get(self.op)
        if fn is None:
            raise LitmusError(f"unknown binary operator {self.op!r}")
        if isinstance(a, Pointer) or isinstance(b, Pointer):
            # Pointer arithmetic exists only for diy-style false address
            # dependencies: `p + (r & 0)` keeps the address but taints it.
            if self.op == "+" and isinstance(a, Pointer) and b == 0:
                return a
            raise LitmusError(
                f"operator {self.op!r} is not defined on pointers ({a!r}, {b!r})"
            )
        return fn(a, b)

    def __repr__(self) -> str:
        return f"({self.lhs!r} {self.op} {self.rhs!r})"


@dataclass(frozen=True)
class UnOp(Expr):
    """A unary operation: ``!`` or ``-``."""

    op: str
    operand: Expr

    def apply(self, a: Value) -> Value:
        if isinstance(a, Pointer):
            if self.op == "!":
                return 0  # pointers to named locations are never NULL here
            raise LitmusError(f"operator {self.op!r} is not defined on pointers")
        if self.op == "!":
            return int(not a)
        if self.op == "-":
            return -a
        raise LitmusError(f"unknown unary operator {self.op!r}")

    def __repr__(self) -> str:
        return f"{self.op}{self.operand!r}"


# ---------------------------------------------------------------------------
# Instructions
# ---------------------------------------------------------------------------


class Instruction:
    """Base class for thread instructions.

    Every concrete instruction carries an optional ``lineno`` — the 1-based
    source line the parser saw it on — excluded from equality and repr so
    that structurally identical programs compare equal regardless of
    formatting.  Programs built through the DSL leave it ``None``.
    """

    __slots__ = ()


#: The ``lineno`` field shared by all instruction dataclasses.
def _lineno_field():
    return field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Load(Instruction):
    """``reg = READ_ONCE(*addr)`` (or acquire / plain variants).

    ``addr`` must evaluate to a :class:`Pointer`.  ``tag`` is ``once``,
    ``acquire`` or ``plain``.  When ``rb_dep`` is true a trailing
    ``F[rb-dep]`` event is emitted, which is how ``rcu_dereference`` is
    modelled (Table 4).
    """

    reg: str
    addr: Expr
    tag: str = ONCE
    rb_dep: bool = False
    lineno: Optional[int] = _lineno_field()

    def __repr__(self) -> str:
        return f"{self.reg} = R[{self.tag}](*{self.addr!r})"


@dataclass(frozen=True)
class Store(Instruction):
    """``WRITE_ONCE(*addr, value)`` (or release / plain variants)."""

    addr: Expr
    value: Expr
    tag: str = ONCE
    lineno: Optional[int] = _lineno_field()

    def __repr__(self) -> str:
        return f"W[{self.tag}](*{self.addr!r}, {self.value!r})"


@dataclass(frozen=True)
class Fence(Instruction):
    """A fence primitive: ``smp_mb``, ``smp_wmb``, ``rcu_read_lock``, ..."""

    tag: str
    lineno: Optional[int] = _lineno_field()

    def __repr__(self) -> str:
        return f"F[{self.tag}]"


#: xchg variants and the tags of the read and write they produce, plus
#: whether they are bracketed by full fences (Table 3).
RMW_VARIANTS: Dict[str, Tuple[str, str, bool]] = {
    "xchg": (ONCE, ONCE, True),
    "xchg_relaxed": (ONCE, ONCE, False),
    "xchg_acquire": (ACQUIRE, ONCE, False),
    "xchg_release": (ONCE, RELEASE, False),
}


@dataclass(frozen=True)
class Rmw(Instruction):
    """``reg = xchg*(addr, value)`` — an unconditional read-modify-write.

    The read and write events are linked by the ``rmw`` relation and subject
    to the At axiom (no intervening external write).  When
    ``require_read_value`` is set, only executions where the read returns
    that value are generated; this models acquiring an uncontended spinlock
    (Section 7 of the paper emulates ``spin_lock`` as an ``xchg_acquire``
    that must observe the lock free).

    ``new_value`` may mention ``Reg(reg)``, which at that point holds the
    value just read — this is how ``atomic_add_return``-style increments are
    expressed (``new_value=BinOp('+', Reg(reg), Const(1))``).
    """

    reg: str
    addr: Expr
    new_value: Expr
    variant: str = "xchg"
    require_read_value: Optional[Value] = None
    lineno: Optional[int] = _lineno_field()

    def __post_init__(self) -> None:
        if self.variant not in RMW_VARIANTS:
            raise LitmusError(f"unknown rmw variant {self.variant!r}")

    @property
    def read_tag(self) -> str:
        return RMW_VARIANTS[self.variant][0]

    @property
    def write_tag(self) -> str:
        return RMW_VARIANTS[self.variant][1]

    @property
    def full_fences(self) -> bool:
        return RMW_VARIANTS[self.variant][2]

    def __repr__(self) -> str:
        return f"{self.reg} = {self.variant}(*{self.addr!r}, {self.new_value!r})"


@dataclass(frozen=True)
class CmpXchg(Instruction):
    """``reg = cmpxchg*(addr, expected, new)`` — a conditional RMW.

    On success (read value equals ``expected``) the write event is emitted
    and linked via ``rmw``; on failure only the read happens.  Both outcomes
    are enumerated.  Variants mirror :data:`RMW_VARIANTS`; per the kernel's
    documented semantics a failed ``cmpxchg`` provides no ordering beyond
    its read, so the surrounding full fences of the ``cmpxchg`` variant are
    emitted only on success.
    """

    reg: str
    addr: Expr
    expected: Expr
    new_value: Expr
    variant: str = "xchg"
    lineno: Optional[int] = _lineno_field()

    def __post_init__(self) -> None:
        if self.variant not in RMW_VARIANTS:
            raise LitmusError(f"unknown cmpxchg variant {self.variant!r}")

    def __repr__(self) -> str:
        return (
            f"{self.reg} = cmp-{self.variant}"
            f"(*{self.addr!r}, {self.expected!r}, {self.new_value!r})"
        )


@dataclass(frozen=True)
class If(Instruction):
    """``if (cond) { then } else { orelse }``.

    Any read feeding ``cond`` acquires a control dependency to every event
    emitted after the branch (in either arm *and* after the join), matching
    herd's treatment of ``ctrl``.
    """

    cond: Expr
    then: Tuple[Instruction, ...]
    orelse: Tuple[Instruction, ...] = ()
    lineno: Optional[int] = _lineno_field()

    def __repr__(self) -> str:
        return f"if ({self.cond!r}) {{...{len(self.then)}}} else {{...{len(self.orelse)}}}"


@dataclass(frozen=True)
class LocalAssign(Instruction):
    """``reg = expr`` — private register arithmetic, no events emitted."""

    reg: str
    expr: Expr
    lineno: Optional[int] = _lineno_field()

    def __repr__(self) -> str:
        return f"{self.reg} := {self.expr!r}"


@dataclass(frozen=True)
class Assume(Instruction):
    """Discard the trace unless ``cond`` holds.

    A verification construct (not a kernel primitive): used to bound loop
    unrolling — a ``while`` loop unrolled N times ends in ``Assume(!cond)``
    so that only executions where the loop exits within N iterations are
    considered, as in bounded model checking (cf. the paper's Section 1.4
    discussion of CBMC-based RCU verification).
    """

    cond: Expr
    lineno: Optional[int] = _lineno_field()

    def __repr__(self) -> str:
        return f"assume({self.cond!r})"


# ---------------------------------------------------------------------------
# What an instruction reads, writes and accesses
# ---------------------------------------------------------------------------


def expr_registers(expr: Expr) -> FrozenSet[str]:
    """Every register name ``expr`` mentions."""
    if isinstance(expr, Reg):
        return frozenset((expr.name,))
    if isinstance(expr, BinOp):
        return expr_registers(expr.lhs) | expr_registers(expr.rhs)
    if isinstance(expr, UnOp):
        return expr_registers(expr.operand)
    return frozenset()


def registers_read(ins: Instruction) -> FrozenSet[str]:
    """The registers whose *prior* values ``ins`` reads.

    An RMW's ``new_value`` naming its own destination register means the
    value just read (see :class:`Rmw`), so that is no read of the register.
    """
    if isinstance(ins, (Rmw, CmpXchg)):
        regs = expr_registers(ins.addr) | (expr_registers(ins.new_value) - {ins.reg})
        if isinstance(ins, CmpXchg):
            regs |= expr_registers(ins.expected)
        return regs
    regs = frozenset()
    for expr in _instruction_exprs(ins):
        regs |= expr_registers(expr)
    return regs


def register_written(ins: Instruction) -> Optional[str]:
    """The register ``ins`` assigns, if any."""
    if isinstance(ins, (Load, Rmw, CmpXchg, LocalAssign)):
        return ins.reg
    return None


def accesses(ins: Instruction) -> Tuple[Tuple[bool, Expr, str], ...]:
    """The shared-memory accesses of ``ins`` as ``(is_write, addr, tag)``,
    in program order: an RMW reads, then writes (a ``cmpxchg`` writes only
    on success)."""
    if isinstance(ins, Load):
        return ((False, ins.addr, ins.tag),)
    if isinstance(ins, Store):
        return ((True, ins.addr, ins.tag),)
    if isinstance(ins, (Rmw, CmpXchg)):
        read_tag, write_tag, _ = RMW_VARIANTS[ins.variant]
        return ((False, ins.addr, read_tag), (True, ins.addr, write_tag))
    return ()


def const_location(addr: Expr) -> Optional[str]:
    """The location a literal ``&loc`` address names; ``None`` for any
    other expression (no folding: ``&x + 0`` has no syntactic location)."""
    if isinstance(addr, Const) and isinstance(addr.value, Pointer):
        return addr.value.loc
    return None


def preorder(body: Sequence[Instruction]) -> Iterator[Instruction]:
    """Every instruction of ``body`` in program order, each ``If``
    followed by its then-arm and then its else-arm."""
    for ins in body:
        yield ins
        if isinstance(ins, If):
            yield from preorder(ins.then)
            yield from preorder(ins.orelse)


# ---------------------------------------------------------------------------
# Threads and programs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Thread:
    """One thread: a straight-line body of instructions (with branches)."""

    body: Tuple[Instruction, ...]

    def __len__(self) -> int:
        return len(self.body)


@dataclass(frozen=True)
class Program:
    """A complete litmus test.

    Attributes:
        name: Test name (e.g. ``MP+wmb+rmb``).
        threads: The concurrent threads.
        init: Initial values of shared locations.  Locations that appear in
            the program but not here start at 0, as in herd.
        condition: The final-state condition (``exists``/``forall``/...)
            or ``None`` for tests judged purely on allowed executions.
    """

    name: str
    threads: Tuple[Thread, ...]
    init: Dict[str, Value] = field(default_factory=dict)
    condition: Optional[Condition] = None

    def __post_init__(self) -> None:
        if not self.threads:
            raise LitmusError(f"litmus test {self.name!r} has no threads")

    @property
    def num_threads(self) -> int:
        return len(self.threads)

    def locations(self) -> List[str]:
        """All shared locations: those in ``init`` plus any statically named
        in the program text, sorted for determinism."""
        locs = set(self.init)
        for th in self.threads:
            for ins in preorder(th.body):
                for expr in _instruction_exprs(ins):
                    _collect_expr_locations(expr, locs)
        return sorted(locs)

    def initial_value(self, location: str) -> Value:
        return self.init.get(location, 0)

    def __repr__(self) -> str:
        return f"<Program {self.name}: {self.num_threads} threads>"


def condition_errors(program: Program) -> List[Tuple[str, str]]:
    """The ``(category, message)`` of each thread, register or location
    that ``program``'s condition names and the program lacks: the one
    validity rule, which the linter reports (LIT002–LIT004) and the
    verdict path enforces (:func:`check_condition`).  Locations come
    last.  A location is known when ``init`` has it or a literal ``&loc``
    accesses it, and every location is when a store's address is
    computed.  herd7 reads a location named only in the condition as 0;
    here it is an error, like an unknown register, because its value is
    the same in every execution and it is almost always a misspelling.
    """
    threads = program.threads
    errors: List[Tuple[str, str]] = []
    named: List[str] = []
    for atom in condition_atoms(program.condition):
        if isinstance(atom, LocValue):
            named.append(atom.loc)
        elif not 0 <= atom.tid < len(threads):
            errors.append(("condition-unknown-thread", (
                f"condition mentions thread {atom.tid}, but the test has "
                f"only P0..P{len(threads) - 1}"
            )))
        elif atom.reg not in map(register_written, preorder(threads[atom.tid].body)):
            errors.append(("condition-unknown-register", (
                f"condition mentions {atom.tid}:{atom.reg}, but P{atom.tid} "
                f"never assigns {atom.reg!r}"
            )))
        if isinstance(atom.value, Pointer):
            named.append(atom.value.loc)
    if not named:
        return errors
    known = set(program.init)
    for thread in threads:
        for ins in preorder(thread.body):
            for is_write, addr, _ in accesses(ins):
                loc = const_location(addr)
                if loc is not None:
                    known.add(loc)
                elif is_write:
                    return errors  # a computed store address: any location
    return errors + [
        ("condition-unknown-location", (
            f"condition mentions location {loc!r}, which the program "
            "neither initialises nor accesses"
        ))
        for loc in named
        if loc not in known
    ]


def check_condition(program: Program) -> None:
    """Raise :class:`LitmusError` with every :func:`condition_errors`
    entry, if any: such a condition gets no verdict."""
    errors = condition_errors(program)
    if errors:
        raise LitmusError(f"{program.name}: " + "; ".join(map(": ".join, errors)))


def _instruction_exprs(ins: Instruction) -> List[Expr]:
    if isinstance(ins, Load):
        return [ins.addr]
    if isinstance(ins, Store):
        return [ins.addr, ins.value]
    if isinstance(ins, Rmw):
        return [ins.addr, ins.new_value]
    if isinstance(ins, CmpXchg):
        return [ins.addr, ins.expected, ins.new_value]
    if isinstance(ins, If):
        return [ins.cond]
    if isinstance(ins, LocalAssign):
        return [ins.expr]
    if isinstance(ins, Assume):
        return [ins.cond]
    return []


def _collect_expr_locations(expr: Expr, locs: set) -> None:
    if isinstance(expr, Const) and isinstance(expr.value, Pointer):
        locs.add(expr.value.loc)
    elif isinstance(expr, BinOp):
        _collect_expr_locations(expr.lhs, locs)
        _collect_expr_locations(expr.rhs, locs)
    elif isinstance(expr, UnOp):
        _collect_expr_locations(expr.operand, locs)
