"""The model interface: judging candidate executions.

A consistency model, axiomatic style, is a predicate on candidate
executions (Section 2 of the paper).  Implementations here are either
*native* Python models (:mod:`repro.lkmm.model`) or cat files executed by
the interpreter (:mod:`repro.cat.eval`); both produce the same
:class:`ModelResult` so they can be compared differentially.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import List

from repro.executions.candidate import CandidateExecution


@dataclass(frozen=True)
class AxiomViolation:
    """One failed constraint of a model.

    ``kind`` is the cat check that failed (``acyclic``, ``irreflexive`` or
    ``empty``); ``witness`` is a cycle (for acyclicity/irreflexivity, as a
    list of events ``[e0, ..., e0]``) or the offending pairs (for
    emptiness).
    """

    axiom: str
    kind: str
    witness: tuple = ()

    def describe(self) -> str:
        if self.kind in ("acyclic", "irreflexive") and self.witness:
            path = " -> ".join(e.label or f"e{e.eid}" for e in self.witness)
            return f"{self.axiom}: cycle {path}"
        if self.kind == "empty" and self.witness:
            pairs = ", ".join(
                f"({a.label or a.eid},{b.label or b.eid})" for a, b in self.witness
            )
            return f"{self.axiom}: non-empty {{{pairs}}}"
        return f"{self.axiom}: violated"


@dataclass
class ModelResult:
    """The outcome of checking one execution against one model."""

    allowed: bool
    violations: List[AxiomViolation] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.allowed

    def describe(self) -> str:
        if self.allowed:
            return "allowed"
        return "forbidden: " + "; ".join(v.describe() for v in self.violations)


class Model(abc.ABC):
    """A consistency model: allows or forbids candidate executions."""

    #: Human-readable name (e.g. ``LKMM``, ``C11``, ``x86-TSO``).
    name: str = "model"

    @abc.abstractmethod
    def check(self, execution: CandidateExecution) -> ModelResult:
        """Judge one candidate execution."""

    def allows(self, execution: CandidateExecution) -> bool:
        return self.check(execution).allowed

    @property
    def sc_per_location(self) -> bool:
        """True when the model forbids every candidate that violates
        ``acyclic(po-loc | com)``, so :func:`repro.herd.run_litmus_many`
        may enumerate only the candidates that satisfy it."""
        return False

    def __repr__(self) -> str:
        return f"<Model {self.name}>"
