"""Final-state conditions of litmus tests.

A litmus test ends with a condition such as::

    exists (1:r0=1 /\\ 1:r1=0)

which asks whether some allowed execution ends with thread 1's register
``r0`` holding 1 and ``r1`` holding 0.  Conditions can also constrain the
final value of shared locations (``x=2``).  The three quantifiers follow
herd: ``exists`` (is the witness reachable?), ``~exists`` (it must not be),
and ``forall`` (every allowed execution satisfies it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.events import Value


class Condition:
    """Base class of final-state predicates."""

    __slots__ = ()

    def evaluate(self, state: "FinalState") -> bool:
        raise NotImplementedError


@dataclass(frozen=True)
class FinalState:
    """The observable end state of one execution.

    ``registers`` maps ``(tid, reg_name)`` to the register's final value;
    ``memory`` maps each shared location to its final value (the last write
    in the coherence order).
    """

    registers: Dict[Tuple[int, str], Value]
    memory: Dict[str, Value]

    def __hash__(self) -> int:
        return hash(
            (
                frozenset(self.registers.items()),
                frozenset(self.memory.items()),
            )
        )


@dataclass(frozen=True)
class RegValue(Condition):
    """``tid:reg = value``"""

    tid: int
    reg: str
    value: Value

    def evaluate(self, state: FinalState) -> bool:
        return state.registers.get((self.tid, self.reg)) == self.value

    def __repr__(self) -> str:
        return f"{self.tid}:{self.reg}={self.value!r}"


@dataclass(frozen=True)
class LocValue(Condition):
    """``loc = value`` — final memory value."""

    loc: str
    value: Value

    def evaluate(self, state: FinalState) -> bool:
        return state.memory.get(self.loc) == self.value

    def __repr__(self) -> str:
        return f"{self.loc}={self.value!r}"


@dataclass(frozen=True)
class And(Condition):
    lhs: Condition
    rhs: Condition

    def evaluate(self, state: FinalState) -> bool:
        return self.lhs.evaluate(state) and self.rhs.evaluate(state)

    def __repr__(self) -> str:
        return f"({self.lhs!r} /\\ {self.rhs!r})"


@dataclass(frozen=True)
class Or(Condition):
    lhs: Condition
    rhs: Condition

    def evaluate(self, state: FinalState) -> bool:
        return self.lhs.evaluate(state) or self.rhs.evaluate(state)

    def __repr__(self) -> str:
        return f"({self.lhs!r} \\/ {self.rhs!r})"


@dataclass(frozen=True)
class Not(Condition):
    operand: Condition

    def evaluate(self, state: FinalState) -> bool:
        return not self.operand.evaluate(state)

    def __repr__(self) -> str:
        return f"~{self.operand!r}"


@dataclass(frozen=True)
class Exists(Condition):
    """``exists P``: some allowed execution's final state satisfies P."""

    body: Condition

    def evaluate(self, state: FinalState) -> bool:
        return self.body.evaluate(state)

    def __repr__(self) -> str:
        return f"exists {self.body!r}"


@dataclass(frozen=True)
class NotExists(Condition):
    """``~exists P``: no allowed execution's final state satisfies P."""

    body: Condition

    def evaluate(self, state: FinalState) -> bool:
        return self.body.evaluate(state)

    def __repr__(self) -> str:
        return f"~exists {self.body!r}"


@dataclass(frozen=True)
class Forall(Condition):
    """``forall P``: every allowed execution's final state satisfies P."""

    body: Condition

    def evaluate(self, state: FinalState) -> bool:
        return self.body.evaluate(state)

    def __repr__(self) -> str:
        return f"forall {self.body!r}"


def exists(body: Condition) -> Exists:
    return Exists(body)


def not_exists(body: Condition) -> NotExists:
    return NotExists(body)


def forall(body: Condition) -> Forall:
    return Forall(body)


def condition_atoms(
    condition: Optional[Condition],
) -> Iterator[Union[RegValue, LocValue]]:
    """Every ``tid:reg = v`` and ``loc = v`` atom of ``condition``, left
    to right, at any depth (none for ``None``)."""
    if isinstance(condition, (Exists, NotExists, Forall)):
        yield from condition_atoms(condition.body)
    elif isinstance(condition, (And, Or)):
        yield from condition_atoms(condition.lhs)
        yield from condition_atoms(condition.rhs)
    elif isinstance(condition, Not):
        yield from condition_atoms(condition.operand)
    elif isinstance(condition, (RegValue, LocValue)):
        yield condition


def pinned_atoms(body: Condition) -> List[Condition]:
    """The ``tid:reg = v`` and ``loc = v`` atoms of ``body``'s top-level
    conjunction, in order.

    Every final state satisfying ``body`` satisfies each of them; any
    other conjunct (a disjunction, a negation) pins nothing.
    """
    if isinstance(body, And):
        return pinned_atoms(body.lhs) + pinned_atoms(body.rhs)
    if isinstance(body, (RegValue, LocValue)):
        return [body]
    return []


def conj(*conditions: Condition) -> Condition:
    """Conjunction of one or more conditions."""
    if not conditions:
        raise ValueError("conj() needs at least one condition")
    result = conditions[0]
    for cond in conditions[1:]:
        result = And(result, cond)
    return result
