"""A concise Python builder API for litmus tests.

Example — the message-passing test of Figure 1 of the paper::

    from repro.litmus import dsl as d

    mp = d.program(
        "MP+wmb+rmb",
        d.thread(
            d.write_once("x", 1),
            d.smp_wmb(),
            d.write_once("y", 1),
        ),
        d.thread(
            d.read_once("r1", "y"),
            d.smp_rmb(),
            d.read_once("r2", "x"),
        ),
        condition=d.exists_regs((1, "r1", 1), (1, "r2", 0)),
    )

Location arguments accept a location name (``"x"``), a register holding a
pointer (``d.reg("r1")``), or an arbitrary address expression.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple, Union

from repro.events import (
    ACQUIRE,
    MB,
    ONCE,
    Pointer,
    RB_DEP,
    RCU_LOCK,
    RCU_UNLOCK,
    RELEASE,
    RMB,
    SYNC_RCU,
    Value,
    WMB,
)
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
    Thread,
)
from repro.litmus.outcomes import (
    Condition,
    Exists,
    LocValue,  # noqa: F401 - re-exported as dsl.LocValue
    RegValue,
    conj,
    exists,
    forall,  # noqa: F401 - re-exported as dsl.forall
)

AddrLike = Union[str, Expr]
ValueLike = Union[int, Pointer, str, Expr]


def loc(name: str) -> Expr:
    """The address of shared location ``name`` (C's ``&name``)."""
    return Const(Pointer(name))


def ptr(name: str) -> Pointer:
    """A pointer *value* ``&name`` — usable as a stored value or initial
    value, which is how address dependencies are set up."""
    return Pointer(name)


def reg(name: str) -> Reg:
    """A reference to private register ``name``."""
    return Reg(name)


def _addr(address: AddrLike) -> Expr:
    if isinstance(address, str):
        return loc(address)
    if isinstance(address, Expr):
        return address
    raise TypeError(f"not an address: {address!r}")


def _value(value: ValueLike) -> Expr:
    if isinstance(value, bool):
        return Const(int(value))
    if isinstance(value, (int, Pointer)):
        return Const(value)
    if isinstance(value, str):
        # A bare string in value position names a register, the common case
        # in data-dependent writes: write_once("y", "r1").
        return Reg(value)
    if isinstance(value, Expr):
        return value
    raise TypeError(f"not a value: {value!r}")


# -- accesses ----------------------------------------------------------------


def read_once(register: str, address: AddrLike) -> Load:
    """``register = READ_ONCE(*address)``"""
    return Load(register, _addr(address), ONCE)


def load_acquire(register: str, address: AddrLike) -> Load:
    """``register = smp_load_acquire(address)``"""
    return Load(register, _addr(address), ACQUIRE)


def write_once(address: AddrLike, value: ValueLike) -> Store:
    """``WRITE_ONCE(*address, value)``"""
    return Store(_addr(address), _value(value), ONCE)


def store_release(address: AddrLike, value: ValueLike) -> Store:
    """``smp_store_release(address, value)``"""
    return Store(_addr(address), _value(value), RELEASE)


# -- fences ------------------------------------------------------------------


def smp_mb() -> Fence:
    return Fence(MB)


def smp_rmb() -> Fence:
    return Fence(RMB)


def smp_wmb() -> Fence:
    return Fence(WMB)


def smp_read_barrier_depends() -> Fence:
    return Fence(RB_DEP)


def rcu_read_lock() -> Fence:
    return Fence(RCU_LOCK)


def rcu_read_unlock() -> Fence:
    return Fence(RCU_UNLOCK)


def synchronize_rcu() -> Fence:
    return Fence(SYNC_RCU)


# -- RCU accessors (Table 4) ---------------------------------------------------


def rcu_dereference(register: str, address: AddrLike) -> Load:
    """``register = rcu_dereference(*address)`` — R[once] + F[rb-dep]."""
    return Load(register, _addr(address), ONCE, rb_dep=True)


def rcu_assign_pointer(address: AddrLike, value: ValueLike) -> Store:
    """``rcu_assign_pointer(*address, value)`` — W[release]."""
    return Store(_addr(address), _value(value), RELEASE)


# -- read-modify-writes --------------------------------------------------------


def xchg(register: str, address: AddrLike, value: ValueLike) -> Rmw:
    return Rmw(register, _addr(address), _value(value), "xchg")


def xchg_relaxed(register: str, address: AddrLike, value: ValueLike) -> Rmw:
    return Rmw(register, _addr(address), _value(value), "xchg_relaxed")


def xchg_acquire(register: str, address: AddrLike, value: ValueLike) -> Rmw:
    return Rmw(register, _addr(address), _value(value), "xchg_acquire")


def xchg_release(register: str, address: AddrLike, value: ValueLike) -> Rmw:
    return Rmw(register, _addr(address), _value(value), "xchg_release")


def cmpxchg(
    register: str,
    address: AddrLike,
    expected: ValueLike,
    new_value: ValueLike,
    variant: str = "xchg",
) -> CmpXchg:
    return CmpXchg(register, _addr(address), _value(expected), _value(new_value), variant)


def atomic_inc_return(register: str, address: AddrLike) -> Rmw:
    """``register = atomic_inc_return(address)`` — full-fenced increment.

    The value written is the value read plus one; ``register`` ends up
    holding the value read (the pre-increment value)."""
    return Rmw(register, _addr(address), BinOp("+", Reg(register), Const(1)), "xchg")


# -- locking (emulated per Section 7 of the paper) -----------------------------


def spin_lock(address: AddrLike) -> Rmw:
    """``spin_lock(address)`` — behaves like ``xchg_acquire`` that must
    observe the lock free (reads 0, writes 1)."""
    return Rmw(
        "__lockreg",
        _addr(address),
        Const(1),
        "xchg_acquire",
        require_read_value=0,
    )


def spin_unlock(address: AddrLike) -> Store:
    """``spin_unlock(address)`` — behaves like ``smp_store_release(0)``."""
    return Store(_addr(address), Const(0), RELEASE)


# -- control flow and locals ----------------------------------------------------


def if_then(
    cond: Expr,
    then: Iterable[Instruction],
    orelse: Iterable[Instruction] = (),
) -> If:
    return If(cond, tuple(then), tuple(orelse))


def assign(register: str, value: ValueLike) -> LocalAssign:
    return LocalAssign(register, _value(value))


def eq(lhs: ValueLike, rhs: ValueLike) -> BinOp:
    return BinOp("==", _value(lhs), _value(rhs))


def ne(lhs: ValueLike, rhs: ValueLike) -> BinOp:
    return BinOp("!=", _value(lhs), _value(rhs))


def add(lhs: ValueLike, rhs: ValueLike) -> BinOp:
    return BinOp("+", _value(lhs), _value(rhs))


# -- programs ---------------------------------------------------------------


def thread(*instructions: Instruction) -> Thread:
    return Thread(tuple(instructions))


def program(
    name: str,
    *threads: Thread,
    init: Optional[Dict[str, Value]] = None,
    condition: Optional[Condition] = None,
) -> Program:
    return Program(name, tuple(threads), dict(init or {}), condition)


def exists_regs(*clauses: Tuple[int, str, Value]) -> Exists:
    """``exists (t0:r0=v0 /\\ t1:r1=v1 /\\ ...)`` from (tid, reg, val) triples."""
    return exists(conj(*(RegValue(t, r, v) for t, r, v in clauses)))
