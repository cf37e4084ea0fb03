"""The litmus flow analyses and the structural walk that solves them.

A thread body is structured and loop-free: the only control flow is the
``If``, and loops are unrolled into ``Assume``-terminated straight-line
code before they reach the AST (see :class:`~repro.litmus.ast.Assume`).
So an analysis is solved exactly by one walk over the body.
:func:`forward` folds an analysis's transfer over the instructions; at
an ``If`` it applies the transfer of the condition, walks each arm from
that value and joins the arm exits.  :func:`backward` walks the same
structure from the end.  An arm that the ``If``'s condition, folded with
no environment (:func:`fold_expr`), never takes carries no run-time
state: it is walked from the analysis bottom and its exit is not
joined, and inside it every straight-line run starts from bottom again,
since nothing reaches it.

Four analyses, each with a deliberately small lattice over hashable
values:

* reaching definitions — sets of ``(register, site)`` pairs, where a site
  is the ``id`` of the defining instruction or :data:`UNINIT`;
* liveness — sets of live register names (backward;
  :func:`live_registers` runs it over a thread body);
* constant propagation — per-register flat lattice
  ``unknown < constant < VARIES``, encoded as ``(register, value)`` pairs;
* region analysis — *sets of path states* ``(rcu_depth, held_locks)``.
  A loop-free body has finitely many paths, so tracking one state per
  path is both exact and terminating (see DESIGN.md's soundness note).

:func:`fold_expr` also serves the fragile-dependency checker: it
evaluates an expression to a compile-time constant whenever a compiler
could — constant operands, but also dependency-breaking algebraic
identities such as ``r ^ r``, ``r - r``, ``r * 0``, ``r & 0`` and
always-true comparisons.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.events import Pointer, RCU_LOCK, RCU_UNLOCK, RELEASE, Value
from repro.litmus.ast import (
    BinOp,
    CmpXchg,
    Const,
    Expr,
    Fence,
    If,
    Instruction,
    LocalAssign,
    LitmusError,
    Program,
    Reg,
    Rmw,
    Store,
    UnOp,
    const_location,
    preorder,
    register_written,
    registers_read,
)

#: The reaching-definitions site of a register never assigned.
UNINIT = "uninit"

#: The constant-propagation token for "varies at runtime".
VARIES = "<varies>"

#: Each instruction of a body (in :func:`~repro.litmus.ast.preorder`
#: order) with the analysis value at it.
States = List[Tuple[Instruction, object]]


# ---------------------------------------------------------------------------
# Expression helpers
# ---------------------------------------------------------------------------


def fold_expr(expr: Expr, env: Optional[Dict[str, Value]] = None) -> Optional[Value]:
    """The compile-time constant value of ``expr``, or ``None``.

    ``env`` maps registers to known constants (from constant propagation);
    registers absent from it vary.  Beyond plain folding, the identities a
    compiler may exploit to erase a syntactic dependency are applied:
    ``e ^ e = e - e = 0``, ``e * 0 = e & 0 = 0``, ``e == e = 1`` (and the
    other reflexive comparisons), short-circuiting ``&&``/``||``.
    """
    env = env or {}
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Reg):
        value = env.get(expr.name, VARIES)
        return None if value == VARIES else value
    if isinstance(expr, UnOp):
        operand = fold_expr(expr.operand, env)
        if operand is None:
            return None
        try:
            return expr.apply(operand)
        except LitmusError:
            return None
    if isinstance(expr, BinOp):
        lhs = fold_expr(expr.lhs, env)
        rhs = fold_expr(expr.rhs, env)
        if lhs is not None and rhs is not None:
            try:
                return expr.apply(lhs, rhs)
            except LitmusError:
                return None
        # Dependency-breaking identities on varying operands.
        if expr.lhs == expr.rhs:
            if expr.op in ("^", "-"):
                return 0
            if expr.op in ("==", "<=", ">="):
                return 1
            if expr.op in ("!=", "<", ">"):
                return 0
        if expr.op in ("*", "&") and (lhs == 0 or rhs == 0):
            return 0
        if expr.op == "&&" and (lhs == 0 or rhs == 0):
            return 0
        if expr.op == "||" and (
            (lhs is not None and lhs != 0) or (rhs is not None and rhs != 0)
        ):
            return 1
        return None
    return None


def static_location(addr: Expr) -> Optional[str]:
    """The statically-known location of an address expression, if any:
    a literal ``&loc``, or an expression that folds to one."""
    loc = const_location(addr)
    if loc is not None:
        return loc
    value = fold_expr(addr)
    if isinstance(value, Pointer):
        return value.loc
    return None


# ---------------------------------------------------------------------------
# The structural walk
# ---------------------------------------------------------------------------


def _arms_taken(branch: If, reachable: bool) -> Tuple[bool, bool]:
    """Whether the then- and else-arm of ``branch`` can run: neither in
    unreachable code, one when the condition folds to a constant."""
    if not reachable:
        return False, False
    value = fold_expr(branch.cond)
    if value is None:
        return True, True
    return bool(value), not value


def forward(analysis, body: Sequence[Instruction]) -> Tuple[States, object]:
    """Solve a forward ``analysis`` over ``body``: each instruction with
    the value *before* it, and the value at the body's exit."""
    states: States = []

    def walk(instructions, value, reachable):
        for ins in instructions:
            states.append((ins, value))
            value = analysis.transfer(ins, value)
            if isinstance(ins, If):
                then_taken, else_taken = _arms_taken(ins, reachable)
                exit_value = analysis.bottom()
                for arm, taken in ((ins.then, then_taken), (ins.orelse, else_taken)):
                    arm_exit = walk(arm, value if taken else analysis.bottom(), taken)
                    if taken:
                        exit_value = analysis.join(exit_value, arm_exit)
                value = exit_value
        return value

    return states, walk(body, analysis.boundary(), True)


def backward(analysis, body: Sequence[Instruction]) -> Tuple[States, object]:
    """Solve a backward ``analysis`` over ``body``: each instruction (in
    program order) with the value *after* it, and the value at the
    body's entry."""
    states: States = []

    def walk(instructions, value, reachable):
        for ins in reversed(instructions):
            if isinstance(ins, If):
                then_taken, else_taken = _arms_taken(ins, reachable)
                entry_value = analysis.bottom()
                # The else-arm first: the states come out in reverse
                # program order, and are reversed once at the end.
                for arm, taken in ((ins.orelse, else_taken), (ins.then, then_taken)):
                    arm_entry = walk(arm, value if taken else analysis.bottom(), taken)
                    if taken:
                        entry_value = analysis.join(entry_value, arm_entry)
                value = entry_value
            states.append((ins, value))
            value = analysis.transfer(ins, value)
        return value

    entry = walk(body, analysis.boundary(), True)
    states.reverse()
    return states, entry


# ---------------------------------------------------------------------------
# Reaching definitions (forward)
# ---------------------------------------------------------------------------


class ReachingDefinitions:
    """Which definition sites may supply each register's current value.

    Values are frozensets of ``(register, site)`` pairs; the pseudo-site
    :data:`UNINIT` reaching a use means the register may still hold no
    value on some path to that point.
    """

    def __init__(self, body: Sequence[Instruction]):
        #: Every register the body assigns or reads.
        self.registers: Set[str] = set()
        for ins in preorder(body):
            self.registers |= registers_read(ins)
            self.registers.add(register_written(ins))
        self.registers.discard(None)

    def boundary(self):
        return frozenset((reg, UNINIT) for reg in self.registers)

    def bottom(self):
        return frozenset()

    def join(self, a, b):
        return a | b

    def transfer(self, ins: Instruction, value):
        defined = register_written(ins)
        if defined is None:
            return value
        kept = frozenset(pair for pair in value if pair[0] != defined)
        return kept | {(defined, id(ins))}


# ---------------------------------------------------------------------------
# Liveness (backward)
# ---------------------------------------------------------------------------


class Liveness:
    """Registers whose current value may still be read later.

    ``exit_live`` seeds the analysis with the registers observable after
    the thread ends — those the litmus final-state condition mentions for
    this thread.
    """

    def __init__(self, exit_live: Iterable[str] = ()):
        self.exit_live = frozenset(exit_live)

    def boundary(self):
        return self.exit_live

    def bottom(self):
        return frozenset()

    def join(self, a, b):
        return a | b

    def transfer(self, ins: Instruction, value):
        defined = register_written(ins)
        if defined is not None:
            value = value - {defined}
        return value | registers_read(ins)


def live_registers(
    body: Sequence[Instruction], exit_live: Iterable[str] = ()
) -> States:
    """Each instruction of ``body`` (in program order, each ``If`` before
    its arms) with the set of registers live just after it; ``exit_live``
    are the registers read after the body ends."""
    return backward(Liveness(exit_live), body)[0]


# ---------------------------------------------------------------------------
# Constant propagation (forward)
# ---------------------------------------------------------------------------


class ConstantPropagation:
    """Per-register constants, for folding dependency expressions through
    local arithmetic (``r1 = r0 & 0; WRITE_ONCE(*p, r1)`` is as fragile
    as writing ``r0 & 0`` inline).

    Values are frozensets of ``(register, constant-or-VARIES)`` pairs;
    registers not yet assigned are absent (their value is undefined, which
    we conservatively treat as varying when used).
    """

    def boundary(self):
        return frozenset()

    def bottom(self):
        # "Unreached" must be the join identity and is distinct from the
        # reachable-but-nothing-known frozenset() (joining the latter
        # forces registers to VARIES, see below).
        return None

    def join(self, a, b):
        if a is None:
            return b
        if b is None:
            return a
        if a == b:
            return a
        merged = dict(a)
        for reg, value in b:
            if reg in merged and merged[reg] != value:
                merged[reg] = VARIES
            else:
                merged.setdefault(reg, value)
        # A register known on one side only may be uninitialised on the
        # other path; its value still varies.
        one_sided = {reg for reg, _ in a} ^ {reg for reg, _ in b}
        for reg in one_sided:
            merged[reg] = VARIES
        return frozenset(merged.items())

    def transfer(self, ins: Instruction, value):
        if value is None:  # unreached
            return None
        defined = register_written(ins)
        if defined is None:
            return value
        kept = frozenset(pair for pair in value if pair[0] != defined)
        if isinstance(ins, LocalAssign):
            folded = fold_expr(ins.expr, environment(value))
            return kept | {(defined, VARIES if folded is None else folded)}
        return kept | {(defined, VARIES)}


def environment(value: Iterable[Tuple[str, Value]]) -> Dict[str, Value]:
    """A constant-propagation value as a ``fold_expr`` environment."""
    return {reg: val for reg, val in value if val != VARIES}


# ---------------------------------------------------------------------------
# Region analysis (forward, path-sensitive)
# ---------------------------------------------------------------------------


#: One abstract path state: RCU read-side nesting depth and held locks.
RegionState = Tuple[int, FrozenSet[str]]


def lock_acquire_location(ins: Instruction) -> Optional[str]:
    """The lock this instruction acquires under the paper's Section 7
    encoding, if any.

    ``spin_lock(l)`` is an ``xchg_acquire`` constrained to read the lock
    free (``require_read_value=0``); a ``cmpxchg(l, 0, 1)`` is the
    trylock-shaped variant (it acquires only on success).
    """
    if isinstance(ins, Rmw) and ins.require_read_value == 0:
        return static_location(ins.addr)
    if isinstance(ins, CmpXchg) and fold_expr(ins.expected) == 0:
        return static_location(ins.addr)
    return None


def lock_acquire_is_blocking(ins: Instruction) -> bool:
    """True for ``spin_lock``-style acquires (must succeed — re-acquiring
    a held lock self-deadlocks), false for trylock-shaped ``cmpxchg``."""
    return isinstance(ins, Rmw)


def lock_release_location(
    ins: Instruction, lock_locations: FrozenSet[str]
) -> Optional[str]:
    """The lock a ``spin_unlock``-style store releases, if any: a release
    store of 0 to a known lock location."""
    if not isinstance(ins, Store) or ins.tag != RELEASE:
        return None
    loc = static_location(ins.addr)
    if loc is None or loc not in lock_locations:
        return None
    if fold_expr(ins.value) == 0:
        return loc
    return None


def program_lock_locations(program: Program) -> FrozenSet[str]:
    """Locations any thread lock-acquires — these are the test's locks."""
    locks: Set[str] = set()
    for thread in program.threads:
        for ins in preorder(thread.body):
            loc = lock_acquire_location(ins)
            if loc is not None:
                locks.add(loc)
    return frozenset(locks)


class RegionAnalysis:
    """Path-sensitive RCU-section and lock-held tracking.

    The abstract value is the *set* of :data:`RegionState` reachable at a
    point — one per path, joined by union.  On loop-free bodies this
    terminates and is exact: no path is merged away, so "unbalanced on
    some path" is a real path, never a join artefact.
    """

    def __init__(self, lock_locations: FrozenSet[str] = frozenset()):
        self.lock_locations = lock_locations

    def boundary(self):
        return frozenset({(0, frozenset())})

    def bottom(self):
        return frozenset()

    def join(self, a, b):
        return a | b

    def transfer(self, ins: Instruction, value):
        if isinstance(ins, Fence):
            if ins.tag == RCU_LOCK:
                return frozenset((d + 1, held) for d, held in value)
            if ins.tag == RCU_UNLOCK:
                # An unlock at depth 0 is reported by the checker; the
                # state recovers to depth 0 so later code is still checked.
                return frozenset((max(d - 1, 0), held) for d, held in value)
            return value
        acquired = lock_acquire_location(ins)
        if acquired is not None:
            taken = frozenset((d, held | {acquired}) for d, held in value)
            if lock_acquire_is_blocking(ins):
                return taken
            # Trylock: both outcomes are real paths.
            return taken | value
        released = lock_release_location(ins, self.lock_locations)
        if released is not None:
            return frozenset((d, held - {released}) for d, held in value)
        return value
