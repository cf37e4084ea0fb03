"""The fundamental law of RCU (Section 4.1).

    "Read-side critical sections cannot span grace periods."

The law is modelled with a *precedes function* F which, for every pair of
a read-side critical section (RSCS) and a grace period (GP), decides which
precedes the other.  Given F, the ``rcu-fence(F)`` relation provides
fence-like ordering:

* if F(RSCS, GP) = RSCS, every event po-before the RSCS's unlock is
  ordered before the GP event and everything po-after it;
* if F(RSCS, GP) = GP, every event po-before the GP event is ordered
  before the RSCS's lock and everything po-after it.

``rcu-fence(F)`` is treated "on a par with strong-fence" inside the
enlarged relation ``pb(F) := prop ; (strong-fence | rcu-fence(F)) ; hb*``.
An execution *satisfies the fundamental law* iff there is some F making
``pb(F)`` acyclic.  Since executions are finite, we simply enumerate the
``2^(|RSCS| * |GP|)`` candidate functions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

from repro.events import Event
from repro.executions.candidate import CandidateExecution
from repro.lkmm.model import LkmmRelations
from repro.rcu.axiom import critical_sections, grace_periods
from repro.relations import Relation

#: The two possible values of F for one (RSCS, GP) pair.
RSCS_FIRST = "RSCS"
GP_FIRST = "GP"

#: An RSCS is identified by its (lock, unlock) event pair.
RSCS = Tuple[Event, Event]

#: F maps each (RSCS, GP) pair to RSCS_FIRST or GP_FIRST.
PrecedesFunction = Dict[Tuple[RSCS, Event], str]


def precedes_functions(
    execution: CandidateExecution,
) -> Iterator[PrecedesFunction]:
    """Enumerate every precedes function of the execution."""
    rscses = critical_sections(execution)
    gps = grace_periods(execution)
    keys = [(rscs, gp) for rscs in rscses for gp in gps]
    for choices in itertools.product((RSCS_FIRST, GP_FIRST), repeat=len(keys)):
        yield dict(zip(keys, choices))


def rcu_fence(
    execution: CandidateExecution, precedes: PrecedesFunction
) -> Relation:
    """The ``rcu-fence(F)`` relation of Section 4.1."""
    po = execution.po
    po_opt = po.optional()
    pairs = set()
    for (lock, unlock), gp in precedes:
        if precedes[((lock, unlock), gp)] == RSCS_FIRST:
            # e1 po-before the unlock; e2 is the GP or po-after it.
            firsts = [a for a, b in po.pairs if b == unlock]
            seconds = [b for a, b in po_opt.pairs if a == gp]
        else:
            # e1 po-before the GP; e2 is the lock or po-after it.
            firsts = [a for a, b in po.pairs if b == gp]
            seconds = [b for a, b in po_opt.pairs if a == lock]
        pairs.update((a, b) for a in firsts for b in seconds)
    return Relation(pairs, execution.universe)


def enlarged_pb(
    execution: CandidateExecution,
    precedes: PrecedesFunction,
    relations: Optional[LkmmRelations] = None,
) -> Relation:
    """``pb(F) := prop ; (strong-fence | rcu-fence(F)) ; hb*``."""
    relations = relations or LkmmRelations(execution, with_rcu=True)
    fences = relations.strong_fence | rcu_fence(execution, precedes)
    return relations.prop.sequence(fences).sequence(
        relations.hb.reflexive_transitive_closure()
    )


@dataclass
class LawResult:
    """Whether the law holds, and the witnessing precedes function."""

    holds: bool
    witness: Optional[PrecedesFunction] = None

    def __bool__(self) -> bool:
        return self.holds


def fundamental_law_holds(execution: CandidateExecution) -> LawResult:
    """Does some precedes function make ``pb(F)`` acyclic?

    Note that with no RSCS or no GP there is exactly one (empty) precedes
    function and the law degenerates to the ordinary Pb axiom.
    """
    relations = LkmmRelations(execution, with_rcu=True)
    for precedes in precedes_functions(execution):
        if enlarged_pb(execution, precedes, relations).is_acyclic():
            return LawResult(True, precedes)
    return LawResult(False)
