"""Candidate-independent lint for litmus programs.

These checks catch the silent typos that make a litmus test vacuous or
misleading without ever failing to parse or run:

* ``condition-unknown-register`` / ``condition-unknown-thread`` /
  ``condition-unknown-location`` — the final-state condition mentions a
  register, thread, or location the program never defines, so the
  condition can never match the intended outcome (the rule is
  :func:`repro.litmus.ast.condition_errors`; such a test gets no verdict);
* ``plain-race`` — a heuristic: a plain (non-``ONCE``) access to a
  location that another thread accesses conflictingly.  This is the
  syntactic shadow of the execution-level race detector
  (:mod:`repro.analysis.races`): it cannot see the orderings fences
  provide, so it over-approximates — use ``repro-herd --check-races`` for
  the precise verdict;
* ``dangling-fence`` — an ordering fence (``smp_mb``, ``smp_rmb``,
  ``smp_wmb``, ``smp_read_barrier_depends``) with no memory access on one
  side of it in its thread, which orders nothing (the RCU markers are
  exempt: an ``rcu_read_lock()`` legitimately opens a thread).

:func:`lint_program` also runs the path-sensitive checkers from
:mod:`repro.analysis.flow.checkers`: RCU discipline, lock discipline,
fragile dependencies, and the dataflow-precise ``uninitialized-read`` /
``uninit-register-read`` / ``dead-store`` checks (which replaced the old
single-pass heuristics here).

The syntactic checks here read each thread once, in
:func:`~repro.litmus.ast.preorder` (both arms of every ``If``), through
the instruction facts :mod:`repro.litmus.ast` defines for every pass
(:func:`~repro.litmus.ast.accesses`): a location is known here only
when the address is a literal ``&loc``.  No candidate executions
are enumerated anywhere — linting the whole library is instant.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.events import PLAIN, RB_DEP, MB, RMB, WMB
from repro.litmus.ast import (
    Expr,
    Fence,
    Instruction,
    Program,
    accesses,
    condition_errors,
    const_location,
    preorder,
)
from repro.analysis.findings import Finding
from repro.analysis.flow.checkers import lint_program_flow

#: Fence tags that exist only to order surrounding accesses.
_ORDERING_FENCES = frozenset({MB, RMB, WMB, RB_DEP})


def lint_program(program: Program) -> List[Finding]:
    """Lint one litmus program; returns the findings (empty if clean).

    Runs the syntactic checks of this module and every path-sensitive
    checker of :mod:`repro.analysis.flow.checkers`.
    """
    linter = _ProgramLinter(program)
    findings = linter.run()
    findings.extend(lint_program_flow(program))
    return findings


def lint_library(names: Optional[Sequence[str]] = None) -> Dict[str, List[Finding]]:
    """Lint named library tests (default: the whole library)."""
    from repro.litmus import library

    return {
        name: lint_program(library.get(name))
        for name in (names if names is not None else library.all_names())
    }


class _Access:
    """A statically-known access: (tid, is_write, tag)."""

    __slots__ = ("tid", "is_write", "tag")

    def __init__(self, tid: int, is_write: bool, tag: str):
        self.tid = tid
        self.is_write = is_write
        self.tag = tag


class _ProgramLinter:
    def __init__(self, program: Program):
        self.program = program
        self.findings: List[Finding] = []
        #: Static accesses per location (only Const-pointer addresses; an
        #: access through a register-held pointer has no static location).
        self.accesses: Dict[str, List[_Access]] = {}

    def _report(
        self, category: str, message: str, line: Optional[int] = None
    ) -> None:
        self.findings.append(
            Finding.of(self.program.name, category, message, line=line)
        )

    def run(self) -> List[Finding]:
        for tid, thread in enumerate(self.program.threads):
            body = list(preorder(thread.body))
            for ins in body:
                for is_write, addr, tag in accesses(ins):
                    self._record_access(tid, addr, is_write, tag)
            self._check_fences(tid, body)
        for category, message in condition_errors(self.program):
            self._report(category, message)
        self._check_plain_races()
        return self.findings

    # -- collection ------------------------------------------------------

    def _record_access(
        self, tid: int, addr: Expr, is_write: bool, tag: str
    ) -> None:
        loc = const_location(addr)
        if loc is not None:
            self.accesses.setdefault(loc, []).append(_Access(tid, is_write, tag))

    # -- checks ----------------------------------------------------------

    def _check_plain_races(self) -> None:
        for loc, accesses in sorted(self.accesses.items()):
            plains = [a for a in accesses if a.tag == PLAIN]
            for plain in plains:
                conflicting = [
                    other
                    for other in accesses
                    if other.tid != plain.tid
                    and (other.is_write or plain.is_write)
                ]
                if conflicting:
                    kind = "write" if plain.is_write else "read"
                    self._report(
                        "plain-race",
                        f"plain {kind} of {loc!r} on P{plain.tid} may race "
                        f"with P{conflicting[0].tid} (syntactic check; run "
                        "the race detector for the execution-level verdict)",
                    )
                    break  # one finding per location is enough

    def _check_fences(self, tid: int, flat: List[Instruction]) -> None:
        """``flat`` is the thread's body in pre-order (both arms of every
        ``If``): a presence check, not a path check."""
        for index, ins in enumerate(flat):
            if not isinstance(ins, Fence) or ins.tag not in _ORDERING_FENCES:
                continue
            before = any(accesses(prior) for prior in flat[:index])
            after = any(accesses(later) for later in flat[index + 1:])
            if not before or not after:
                side = "before" if not before else "after"
                self._report(
                    "dangling-fence",
                    f"P{tid} has an {ins.tag} fence with no memory access "
                    f"{side} it — it orders nothing",
                    line=ins.lineno,
                )
