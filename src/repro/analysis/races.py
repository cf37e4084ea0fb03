"""LKMM-style data-race detection on candidate executions.

The paper's model (Sections 2–6) deliberately covers *marked* accesses
only — ``READ_ONCE``, ``WRITE_ONCE``, acquire/release, RMWs — and stays
silent about plain C loads and stores.  The real LKMM's headline follow-on
closed exactly that gap: flag *data races*, i.e. conflicting plain
accesses that no synchronisation orders, in the happens-before tradition
of "Herding Cats"' candidate-execution framework.

This module reconstructs that analysis from the relations the repository
already computes (:class:`repro.lkmm.model.LkmmRelations`):

1. Build a *race-ordering* relation per execution.  It is the model's own
   ``hb``/``pb`` pair with one change: the external reads-from edges that
   feed ``hb`` are restricted to pairs of **marked** accesses.  A marked
   ``rfe`` is a synchronisation (message passing through ``ONCE`` or
   release/acquire); a plain read observing a plain write is precisely the
   *symptom* of a race and must not be allowed to order it away.  All
   fence-derived orderings (``ppo``, ``prop``, strong fences, grace
   periods) apply to plain accesses unchanged — that is what makes the
   classic "plain payload protected by ``smp_wmb``/``smp_rmb``" idiom
   race-free::

       race-hb := ((prop \\ id) & int) | ppo | (rfe & (Marked × Marked))
       race-pb := prop ; strong-fence ; race-hb*
       race-order := (race-hb | race-pb)+

2. Two events **race** when they access the same location from different
   threads, at least one is a write, at least one is plain, and the
   race-order relates them in neither direction.  Initialising writes
   never race (they are ordered before everything).

3. A litmus test is **racy** when *some* consistent (model-allowed)
   candidate execution contains a race; the execution and the pair are
   kept as the witness, with a human-readable explanation built on the
   :mod:`repro.lkmm.explain` machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.findings import Finding
from repro.events import Event, PLAIN
from repro.executions.candidate import CandidateExecution
from repro.executions.enumerate import candidate_executions
from repro.litmus.ast import Program
from repro.lkmm.explain import explain_race
from repro.lkmm.model import LinuxKernelModel, LkmmRelations
from repro.relations import Relation

#: Classification vocabulary, mirroring the Allow/Forbid verdict style.
RACY = "Racy"
RACE_FREE = "Race-free"


def race_order(relations: LkmmRelations) -> Relation:
    """The happens-before used for race checking (see module docstring)."""
    x = relations.x
    plain = x.tagged(PLAIN)
    marked = x.accesses - plain
    sync_rfe = x.rfe.restrict(domain=marked, range_=marked)
    race_hb = (
        ((relations.prop - x.identity) & x.int_)
        | relations.ppo
        | sync_rfe
    )
    race_pb = relations.prop.sequence(relations.strong_fence).sequence(
        race_hb.reflexive_transitive_closure()
    )
    return (race_hb | race_pb).transitive_closure()


def races_in(
    execution: CandidateExecution,
    relations: Optional[LkmmRelations] = None,
) -> List[Tuple[Event, Event]]:
    """All racing pairs of one execution, sorted for determinism."""
    rel = relations if relations is not None else LkmmRelations(execution)
    order = race_order(rel)
    accesses = sorted(
        (e for e in execution.events if e.is_memory_access and not e.is_init),
        key=lambda e: e.eid,
    )
    pairs: List[Tuple[Event, Event]] = []
    for i, a in enumerate(accesses):
        for b in accesses[i + 1:]:
            if a.tid == b.tid or a.loc != b.loc:
                continue
            if not (a.is_write or b.is_write):
                continue
            if not (a.has_tag(PLAIN) or b.has_tag(PLAIN)):
                continue
            if (a, b) in order or (b, a) in order:
                continue
            pairs.append((a, b))
    return pairs


@dataclass
class RaceReport:
    """The race verdict for one litmus test.

    Attributes:
        name: The test name.
        racy: Whether any consistent execution contains a data race.
        pair: The racing event pair of the witness execution (if racy).
        witness: The consistent execution exhibiting the race (if racy).
        candidates: Candidate executions enumerated.
        consistent: How many of them the model allowed (and were scanned).
        explanation: Human-readable walk-through of the witness.
    """

    name: str
    racy: bool
    pair: Optional[Tuple[Event, Event]] = None
    witness: Optional[CandidateExecution] = None
    candidates: int = 0
    consistent: int = 0
    explanation: str = ""

    @property
    def verdict(self) -> str:
        return RACY if self.racy else RACE_FREE

    def describe(self) -> str:
        head = f"{self.name}: {self.verdict} ({self.consistent} consistent / {self.candidates} candidates)"
        if not self.racy:
            return head
        return head + "\n" + self.explanation

    def findings(self) -> List["Finding"]:
        """The report as zero or one ``data-race`` lint finding, so
        ``repro-lint --races`` reports and gates races like any other
        error-severity check."""
        if not self.racy:
            return []
        detail = ""
        if self.pair is not None:
            first, second = self.pair
            detail = (
                f" (P{first.tid} {first.kind} of {first.loc!r} vs "
                f"P{second.tid} {second.kind} of {second.loc!r})"
            )
        return [
            Finding.of(
                self.name,
                "data-race",
                f"a consistent execution contains a data race{detail}; "
                "see `repro-herd --check-races` for the full walk-through",
            )
        ]


def check_races(
    program: Program, model: Optional[LinuxKernelModel] = None
) -> RaceReport:
    """Classify ``program`` as racy or race-free.

    ``model`` filters candidate executions to the consistent ones and must
    be a :class:`LinuxKernelModel` (the race ordering is LKMM-derived;
    pass ``LinuxKernelModel(with_rcu=False)`` to drop grace-period
    ordering).  Scanning stops at the first racy execution.
    """
    model = model or LinuxKernelModel()
    report = RaceReport(name=program.name, racy=False)
    for execution in candidate_executions(program, model.sc_per_location):
        report.candidates += 1
        relations = model.relations(execution)
        if not model.check(execution, relations=relations).allowed:
            continue
        report.consistent += 1
        pairs = races_in(execution, relations=relations)
        if pairs:
            report.racy = True
            report.pair = pairs[0]
            report.witness = execution
            report.explanation = explain_race(
                execution, *pairs[0], relations=relations
            )
            break
    return report


def classify_library(
    names: Optional[Sequence[str]] = None,
    model: Optional[LinuxKernelModel] = None,
) -> Dict[str, RaceReport]:
    """Race-classify named library tests (default: the whole library)."""
    from repro.litmus import library

    model = model or LinuxKernelModel()
    return {
        name: check_races(library.get(name), model=model)
        for name in (names if names is not None else library.all_names())
    }
