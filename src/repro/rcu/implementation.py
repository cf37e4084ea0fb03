"""The userspace RCU implementation of Figure 15, and Theorem 2.

The paper verifies (Section 6) the RCU implementation used by the Linux
trace tool: threads communicate via per-thread counters ``rc[i]`` and a
grace-period control variable ``gc``; ``synchronize_rcu`` flips the
``GP_PHASE`` bit of ``gc`` twice, each time waiting until every thread is
either outside a read-side critical section or inside one that started
after the flip.

    **Theorem 2.** If X' is allowed in our LK model and has properly
    nested RSCSes that do not overflow the counters in rc[], then X is
    allowed.

Here X' ranges over executions of P' — the program P with its RCU
primitives replaced by the implementation.  We mechanise the theorem as a
*bounded, exhaustive* check (in the spirit of the CBMC/Nidhugg work the
paper cites): :func:`inline_rcu` performs the P -> P' transformation with
the implementation's wait loops unrolled up to a bound, and
:func:`verify_implementation` checks that every LK-allowed execution of P'
projects onto an LK-allowed outcome of P.  Every candidate execution is
enumerated, but the model checks only one allowed execution per projected
outcome: once an outcome is known to be allowed, no other execution
reaching it can change the answer.

Two renderings of the implementation are provided:

* ``full=True`` — the verbatim Figure 15 code, including the nesting
  branch of ``rcu_read_lock`` and the decrement in ``rcu_read_unlock``;
* ``full=False`` (default) — the specialisation to non-nested critical
  sections (``rc[i]`` is either 0 or the copied ``gc`` value), which is
  exactly the shape of Figure 16 and keeps exhaustive enumeration cheap.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional, Sequence, Set, Tuple

from repro import herd
from repro.events import RCU_LOCK, RCU_UNLOCK, SYNC_RCU
from repro.guard.core import Interruption
from repro.guard.journal import INCONCLUSIVE
from repro.litmus.ast import (
    Assume,
    BinOp,
    Const,
    Fence,
    If,
    Instruction,
    Program,
    Reg,
    Thread,
    UnOp,
)
from repro.litmus import dsl
from repro.litmus.outcomes import FinalState
from repro.lkmm.model import LinuxKernelModel
from repro.model import Model

GP_PHASE = 0x10000
CS_MASK = 0x0FFFF

#: Implementation-internal shared locations (projected away).
GC = "__gc"
GP_LOCK = "__gp_lock"


def _rc(tid: int) -> str:
    return f"__rc{tid}"


class _Names:
    """Fresh register names for inlined implementation code."""

    def __init__(self) -> None:
        self._counter = itertools.count()

    def fresh(self, stem: str) -> str:
        return f"__rcu{next(self._counter)}_{stem}"


# ---------------------------------------------------------------------------
# The implementation routines (Figure 15)
# ---------------------------------------------------------------------------


def read_lock_body(tid: int, names: _Names, full: bool) -> List[Instruction]:
    """``rcu_read_lock()`` for thread ``tid`` (Figure 15 lines 8-18)."""
    rc = _rc(tid)
    if not full:
        # Non-nested specialisation: the counter is known to be zero, so
        # only the outermost branch remains (lines 13-14).
        g = names.fresh("g")
        return [
            dsl.read_once(g, GC),
            dsl.write_once(rc, Reg(g)),
            dsl.smp_mb(),
        ]
    tmp = names.fresh("tmp")
    g = names.fresh("g")
    return [
        dsl.read_once(tmp, rc),
        If(
            UnOp("!", BinOp("&", Reg(tmp), Const(CS_MASK))),
            (
                dsl.read_once(g, GC),
                dsl.write_once(rc, Reg(g)),
                dsl.smp_mb(),
            ),
            (dsl.write_once(rc, BinOp("+", Reg(tmp), Const(1))),),
        ),
    ]


def read_unlock_body(tid: int, names: _Names, full: bool) -> List[Instruction]:
    """``rcu_read_unlock()`` for thread ``tid`` (Figure 15 lines 20-25)."""
    rc = _rc(tid)
    if not full:
        return [dsl.smp_mb(), dsl.write_once(rc, 0)]
    t = names.fresh("t")
    return [
        dsl.smp_mb(),
        dsl.read_once(t, rc),
        dsl.write_once(rc, BinOp("-", Reg(t), Const(1))),
    ]


def _gp_ongoing_wait(
    reader_tid: int, names: _Names, bound: int
) -> List[Instruction]:
    """``while (gp_ongoing(i)) msleep(10);`` unrolled ``bound`` times.

    Each iteration re-reads ``rc[i]`` and ``gc`` (lines 27-30); executions
    still waiting after ``bound`` checks are discarded via ``Assume``.
    """

    def iteration(depth: int) -> List[Instruction]:
        val = names.fresh("val")
        cur = names.fresh("cur")
        cond = BinOp(
            "&&",
            BinOp("&", Reg(val), Const(CS_MASK)),
            BinOp("&", BinOp("^", Reg(val), Reg(cur)), Const(GP_PHASE)),
        )
        if depth >= bound:
            body: Tuple[Instruction, ...] = (Assume(Const(0)),)
        else:
            body = tuple(iteration(depth + 1))
        return [
            dsl.read_once(val, _rc(reader_tid)),
            dsl.read_once(cur, GC),
            If(cond, body, ()),
        ]

    return iteration(1)


def update_counter_and_wait_body(
    reader_tids: Sequence[int], names: _Names, bound: int
) -> List[Instruction]:
    """``update_counter_and_wait()`` (Figure 15 lines 33-41), waiting for
    the given reader threads."""
    g = names.fresh("gc")
    body: List[Instruction] = [
        dsl.read_once(g, GC),
        dsl.write_once(GC, BinOp("^", Reg(g), Const(GP_PHASE))),
    ]
    for tid in reader_tids:
        body.extend(_gp_ongoing_wait(tid, names, bound))
    return body


def synchronize_body(
    reader_tids: Sequence[int], names: _Names, bound: int
) -> List[Instruction]:
    """``synchronize_rcu()`` (Figure 15 lines 43-50)."""
    body: List[Instruction] = [dsl.smp_mb(), dsl.spin_lock(GP_LOCK)]
    body.extend(update_counter_and_wait_body(reader_tids, names, bound))
    body.extend(update_counter_and_wait_body(reader_tids, names, bound))
    body.append(dsl.spin_unlock(GP_LOCK))
    body.append(dsl.smp_mb())
    return body


# ---------------------------------------------------------------------------
# The P -> P' transformation
# ---------------------------------------------------------------------------


def inline_rcu(
    program: Program, loop_bound: int = 1, full: bool = False
) -> Program:
    """Replace the RCU primitives of ``program`` with Figure 15's code.

    ``loop_bound`` bounds the unrolling of the implementation's wait loop
    (the number of ``gp_ongoing`` checks per reader per phase);
    ``full=True`` uses the verbatim nesting-capable code.
    """
    reader_tids = [
        tid
        for tid, thread in enumerate(program.threads)
        if _uses_rcu_readside(thread.body)
    ]
    names = _Names()
    threads = []
    for tid, thread in enumerate(program.threads):
        threads.append(
            Thread(
                tuple(
                    _inline_body(
                        thread.body, tid, reader_tids, names, loop_bound, full
                    )
                )
            )
        )
    init = dict(program.init)
    init[GC] = 1
    init[GP_LOCK] = 0
    for tid in reader_tids:
        init[_rc(tid)] = 0
    return Program(
        name=f"{program.name}+urcu",
        threads=tuple(threads),
        init=init,
        condition=program.condition,
    )


def _uses_rcu_readside(body: Sequence[Instruction]) -> bool:
    for ins in body:
        if isinstance(ins, Fence) and ins.tag in (RCU_LOCK, RCU_UNLOCK):
            return True
        if isinstance(ins, If) and (
            _uses_rcu_readside(ins.then) or _uses_rcu_readside(ins.orelse)
        ):
            return True
    return False


def _inline_body(
    body: Sequence[Instruction],
    tid: int,
    reader_tids: Sequence[int],
    names: _Names,
    bound: int,
    full: bool,
) -> List[Instruction]:
    out: List[Instruction] = []
    for ins in body:
        if isinstance(ins, Fence) and ins.tag == RCU_LOCK:
            out.extend(read_lock_body(tid, names, full))
        elif isinstance(ins, Fence) and ins.tag == RCU_UNLOCK:
            out.extend(read_unlock_body(tid, names, full))
        elif isinstance(ins, Fence) and ins.tag == SYNC_RCU:
            out.extend(synchronize_body(reader_tids, names, bound))
        elif isinstance(ins, If):
            out.append(
                If(
                    ins.cond,
                    tuple(
                        _inline_body(ins.then, tid, reader_tids, names, bound, full)
                    ),
                    tuple(
                        _inline_body(ins.orelse, tid, reader_tids, names, bound, full)
                    ),
                )
            )
        else:
            out.append(ins)
    return out


# ---------------------------------------------------------------------------
# Theorem 2, empirically
# ---------------------------------------------------------------------------


def _project(state: FinalState) -> FrozenSet:
    """Strip implementation-internal registers and locations, leaving the
    observables of the original program P."""
    registers = frozenset(
        ((tid, name), value)
        for (tid, name), value in state.registers.items()
        if not name.startswith("__")
    )
    memory = frozenset(
        (loc, value)
        for loc, value in state.memory.items()
        if not loc.startswith("__")
    )
    return frozenset({("regs", registers), ("mem", memory)})


HOLDS = "holds"
FAILS = "FAILS"


@dataclass
class ImplementationReport:
    """Result of the bounded Theorem 2 check for one program."""

    program_name: str
    loop_bound: int
    #: Projected outcomes of P allowed by the model.
    spec_outcomes: Set[FrozenSet] = field(default_factory=set)
    #: Projected outcomes of P' allowed by the model.
    impl_outcomes: Set[FrozenSet] = field(default_factory=set)
    #: Allowed executions of P inspected, one per outcome.
    spec_allowed: int = 0
    #: Allowed executions of P' inspected, one per outcome.
    impl_allowed: int = 0
    #: Budget-trip provenance of the run of P (:mod:`repro.guard`);
    #: ``None`` when it is complete.
    spec_interrupted: Optional[Interruption] = None
    #: The same for the run of P'.
    impl_interrupted: Optional[Interruption] = None

    @property
    def spurious(self) -> Set[FrozenSet]:
        """Outcomes the implementation permits but the specification
        forbids.  Theorem 2 says this is empty."""
        return self.impl_outcomes - self.spec_outcomes

    @property
    def verdict(self) -> str:
        """``holds``, ``FAILS`` or ``Inconclusive``.

        A spurious outcome is decisive once the specification run is
        complete, even when the implementation run was cut: more
        implementation outcomes cannot take it back.  The theorem holds
        only when both runs are complete.
        """
        if self.spec_interrupted is None:
            if self.spurious:
                return FAILS
            if self.impl_interrupted is None:
                return HOLDS
        return INCONCLUSIVE

    @property
    def holds(self) -> bool:
        return self.verdict == HOLDS

    def describe(self) -> str:
        summary = (
            f"Theorem 2 {self.verdict} on {self.program_name} "
            f"(loop bound {self.loop_bound}): "
            f"{len(self.impl_outcomes)} implementation outcomes vs "
            f"{len(self.spec_outcomes)} specification outcomes, "
            f"{len(self.spurious)} spurious"
        )
        for side, interruption in (
            ("specification", self.spec_interrupted),
            ("implementation", self.impl_interrupted),
        ):
            if interruption is not None:
                summary += f" [{side} interrupted: {interruption.describe()}]"
        return summary


def verify_implementation(
    program: Program,
    loop_bound: int = 1,
    full: bool = False,
    model: Optional[Model] = None,
) -> ImplementationReport:
    """Bounded Theorem 2 check: allowed outcomes of P' project into
    allowed outcomes of P.

    Both runs key their outcomes by :func:`_project`
    (:func:`repro.herd.run_litmus_many`'s ``outcome_key``), so each
    model-checks one allowed execution per projected outcome.  An armed
    :mod:`repro.guard` budget spans both runs; a run it cuts short makes
    the report's :attr:`~ImplementationReport.verdict` ``Inconclusive``
    unless a spurious outcome already decides it.
    """
    model = model or LinuxKernelModel()
    report = ImplementationReport(program.name, loop_bound)
    (
        report.spec_allowed,
        report.spec_outcomes,
        report.spec_interrupted,
    ) = _projected_run(model, program)
    inlined = inline_rcu(program, loop_bound=loop_bound, full=full)
    (
        report.impl_allowed,
        report.impl_outcomes,
        report.impl_interrupted,
    ) = _projected_run(model, inlined)
    return report


def _projected_run(
    model: Model, program: Program
) -> Tuple[int, Set[FrozenSet], Optional[Interruption]]:
    """Allowed executions checked, projected outcomes and interruption
    of one run keyed by :func:`_project`."""
    # Looked up on the module, so a wrapper bound there applies.
    result = herd.run_litmus_many([model], program, outcome_key=_project)
    run = result[model.name]
    return run.allowed, run.states, run.interrupted
