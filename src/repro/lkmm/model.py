"""The Linux-kernel memory model, in Python.

This is a line-by-line rendering of the paper's formal definitions:

* Figure 3 — the core axioms::

      acyclic(po-loc | com)          (Scpv)
      empty(rmw & (fre ; coe))       (At)
      acyclic(hb)                    (Hb)
      acyclic(pb)                    (Pb)

* Figure 8 — the relations::

      dep          := addr | data
      rwdep        := (dep | ctrl) & (R x W)
      overwrite    := co | fr
      to-w         := rwdep | (overwrite & int)
      rrdep        := addr | (dep ; rfi)
      strong-rrdep := rrdep+ & rb-dep
      to-r         := strong-rrdep | rfi-rel-acq
      strong-fence := mb                      (| gp with RCU, Figure 12)
      fence        := strong-fence | po-rel | wmb | rmb | acq-po
      ppo          := rrdep* ; (to-r | to-w | fence)
      cumul-fence  := A-cumul(strong-fence | po-rel) | wmb
      prop         := (overwrite & ext)? ; cumul-fence* ; rfe?
      hb           := ((prop \\ id) & int) | ppo | rfe
      pb           := prop ; strong-fence ; hb*

  where ``A-cumul(r) := rfe? ; r``, and the auxiliary fence relations are:
  ``mb``/``rmb``/``wmb``/``rb-dep`` pair events separated by the
  corresponding fence (``rmb``, ``wmb`` and ``rb-dep`` restricted to
  read/write pairs as described in Section 3), ``acq-po`` pairs an acquire
  with any po-later event, ``po-rel`` pairs any event with a po-later
  release, and ``rfi-rel-acq`` is an internal reads-from from a release to
  an acquire.

* Figure 12 — the RCU axiom::

      gp        := (po & (_ x Sync)) ; po?
      rscs      := po ; crit^-1 ; po?
      link      := hb* ; pb* ; prop
      gp-link   := gp ; link
      rscs-link := rscs ; link
      rec rcu-path := gp-link | (rcu-path ; rcu-path)
                    | (gp-link ; rscs-link) | (rscs-link ; gp-link)
                    | (gp-link ; rcu-path ; rscs-link)
                    | (rscs-link ; rcu-path ; gp-link)
      irreflexive(rcu-path)

  with ``strong-fence := mb | gp`` feeding back into the core relations,
  so that ``synchronize_rcu`` can be used wherever ``smp_mb`` can.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterator, List, Optional

from repro.events import (
    ACQUIRE,
    MB,
    RB_DEP,
    RELEASE,
    RMB,
    SYNC_RCU,
    WMB,
)
from repro.executions.candidate import CandidateExecution
from repro.model import AxiomViolation, Model, ModelResult
from repro.obs import core as _obs
from repro.relations import Relation, least_fixpoint


class LkmmRelations:
    """All derived relations of Figures 8 and 12 for one execution.

    Exposed as cached properties so explanation tooling
    (:mod:`repro.lkmm.explain`) can inspect exactly the relations the model
    used.

    The rf/co-independent relations (fence relations, ``gp``, ``crit``,
    ``rscs``, dependency relations) are additionally memoised on the
    execution's shared trace skeleton, so they are computed once per trace
    combination rather than once per rf×co candidate.
    """

    def __init__(self, execution: CandidateExecution, with_rcu: bool = True):
        self.x = execution
        self.with_rcu = with_rcu

    def _shared(self, name: str, compute) -> Relation:
        """Memoise an rf/co-independent relation on the trace skeleton."""
        return self.x.shared_memo(("lkmm", name), compute)

    # -- auxiliary fence relations (Section 3) ---------------------------

    def fencerel(self, tag: str) -> Relation:
        """Pairs of events separated in po by a fence tagged ``tag``."""

        def compute() -> Relation:
            x = self.x
            fences = x.tagged(tag) & x.fences
            before = x.po.restrict(range_=fences)
            after = x.po.restrict(domain=fences)
            return before.sequence(after)

        return self._shared(("fencerel", tag), compute)

    @cached_property
    def mb(self) -> Relation:
        return self.fencerel(MB)

    @cached_property
    def rmb(self) -> Relation:
        x = self.x
        return self._shared(
            "rmb", lambda: self.fencerel(RMB) & (x.reads * x.reads)
        )

    @cached_property
    def wmb(self) -> Relation:
        x = self.x
        return self._shared(
            "wmb", lambda: self.fencerel(WMB) & (x.writes * x.writes)
        )

    @cached_property
    def rb_dep(self) -> Relation:
        x = self.x
        return self._shared(
            "rb_dep", lambda: self.fencerel(RB_DEP) & (x.reads * x.reads)
        )

    @cached_property
    def acq_po(self) -> Relation:
        x = self.x
        return self._shared(
            "acq_po", lambda: x.tagged(ACQUIRE).identity().sequence(x.po)
        )

    @cached_property
    def po_rel(self) -> Relation:
        x = self.x
        return self._shared(
            "po_rel", lambda: x.po.sequence(x.tagged(RELEASE).identity())
        )

    @cached_property
    def rfi_rel_acq(self) -> Relation:
        x = self.x
        return (
            x.tagged(RELEASE)
            .identity()
            .sequence(x.rfi)
            .sequence(x.tagged(ACQUIRE).identity())
        )

    # -- Figure 8 ----------------------------------------------------------

    @cached_property
    def dep(self) -> Relation:
        return self._shared("dep", lambda: self.x.addr | self.x.data)

    @cached_property
    def rwdep(self) -> Relation:
        x = self.x
        return self._shared(
            "rwdep", lambda: (self.dep | x.ctrl) & (x.reads * x.writes)
        )

    @cached_property
    def overwrite(self) -> Relation:
        return self.x.co | self.x.fr

    @cached_property
    def to_w(self) -> Relation:
        return self.rwdep | (self.overwrite & self.x.int_)

    @cached_property
    def rrdep(self) -> Relation:
        return self.x.addr | self.dep.sequence(self.x.rfi)

    @cached_property
    def strong_rrdep(self) -> Relation:
        return self.rrdep.transitive_closure() & self.rb_dep

    @cached_property
    def to_r(self) -> Relation:
        return self.strong_rrdep | self.rfi_rel_acq

    @cached_property
    def gp(self) -> Relation:
        """``(po & (_ x Sync)) ; po?`` — Figure 12."""

        def compute() -> Relation:
            x = self.x
            sync = x.tagged(SYNC_RCU)
            to_sync = x.po & (x.all_events * sync)
            return to_sync.sequence(x.po.optional())

        return self._shared("gp", compute)

    @cached_property
    def strong_fence(self) -> Relation:
        if self.with_rcu:
            return self._shared("strong_fence+rcu", lambda: self.mb | self.gp)
        return self.mb

    @cached_property
    def fence(self) -> Relation:
        return self._shared(
            ("fence", self.with_rcu),
            lambda: self.strong_fence
            | self.po_rel
            | self.wmb
            | self.rmb
            | self.acq_po,
        )

    @cached_property
    def ppo(self) -> Relation:
        return self.rrdep.reflexive_transitive_closure().sequence(
            self.to_r | self.to_w | self.fence
        )

    def a_cumul(self, r: Relation) -> Relation:
        """``A-cumul(r) := rfe? ; r``."""
        return self.x.rfe.optional().sequence(r)

    @cached_property
    def cumul_fence(self) -> Relation:
        return self.a_cumul(self.strong_fence | self.po_rel) | self.wmb

    @cached_property
    def prop(self) -> Relation:
        x = self.x
        return (
            (self.overwrite & x.ext)
            .optional()
            .sequence(self.cumul_fence.reflexive_transitive_closure())
            .sequence(x.rfe.optional())
        )

    @cached_property
    def hb(self) -> Relation:
        x = self.x
        return ((self.prop - x.identity) & x.int_) | self.ppo | x.rfe

    @cached_property
    def pb(self) -> Relation:
        return self.prop.sequence(self.strong_fence).sequence(
            self.hb.reflexive_transitive_closure()
        )

    # -- Figure 12 ---------------------------------------------------------

    @cached_property
    def crit(self) -> Relation:
        """Outermost ``rcu_read_lock`` to its matching ``rcu_read_unlock``.

        Computed by :func:`repro.executions.derived.crit_relation` (shared
        with the cat layer and memoised per trace combination).
        """
        from repro.executions.derived import crit_relation

        return crit_relation(self.x)

    @cached_property
    def rscs(self) -> Relation:
        """``po ; crit^-1 ; po?``."""
        return self._shared(
            "rscs",
            lambda: self.x.po.sequence(self.crit.inverse()).sequence(
                self.x.po.optional()
            ),
        )

    @cached_property
    def link(self) -> Relation:
        """``hb* ; pb* ; prop``."""
        return (
            self.hb.reflexive_transitive_closure()
            .sequence(self.pb.reflexive_transitive_closure())
            .sequence(self.prop)
        )

    @cached_property
    def gp_link(self) -> Relation:
        return self.gp.sequence(self.link)

    @cached_property
    def rscs_link(self) -> Relation:
        return self.rscs.sequence(self.link)

    @cached_property
    def rcu_path(self) -> Relation:
        """The recursive relation of Figure 12, as a least fixpoint."""
        gp_link = self.gp_link
        rscs_link = self.rscs_link

        def step(current: Relation) -> Relation:
            return (
                gp_link
                | current.sequence(current)
                | gp_link.sequence(rscs_link)
                | rscs_link.sequence(gp_link)
                | gp_link.sequence(current).sequence(rscs_link)
                | rscs_link.sequence(current).sequence(gp_link)
            )

        return least_fixpoint(step, self.x.universe)


class LinuxKernelModel(Model):
    """The LK model: core axioms (Figure 3) plus the RCU axiom (Figure 12)."""

    def __init__(self, with_rcu: bool = True):
        self.with_rcu = with_rcu
        self.name = "LKMM" if with_rcu else "LKMM-core"

    #: The Scpv axiom is ``acyclic(po-loc | com)`` itself.
    sc_per_location = True

    def relations(self, execution: CandidateExecution) -> LkmmRelations:
        return LkmmRelations(execution, with_rcu=self.with_rcu)

    def check(
        self,
        execution: CandidateExecution,
        relations: Optional[LkmmRelations] = None,
    ) -> ModelResult:
        """Judge one execution, listing every violated axiom.

        ``relations`` may be a precomputed :class:`LkmmRelations` for this
        execution (the race detector passes the instance it inspects, so
        the cached derived relations are computed once).
        """
        return self._result(list(self.violations(execution, relations)))

    def allows(self, execution: CandidateExecution) -> bool:
        """The verdict alone: stops at the first violated axiom, so
        ``lkmm.violation.<axiom>`` counts the deciding axiom only."""
        first = next(self.violations(execution), None)
        return self._result([] if first is None else [first]).allowed

    def violations(
        self,
        execution: CandidateExecution,
        relations: Optional[LkmmRelations] = None,
    ) -> Iterator[AxiomViolation]:
        """The violated axioms in order Scpv, At, Hb, Pb, Rcu, each
        computed only when the previous one has been consumed."""
        rel = relations if relations is not None else self.relations(execution)
        x = execution

        with _obs.span("lkmm.check.Scpv"):
            scpv = x.po_loc | x.com
            cycle = scpv.find_cycle()
        if cycle is not None:
            yield AxiomViolation("Scpv", "acyclic", tuple(cycle))

        with _obs.span("lkmm.check.At"):
            at = x.rmw & x.fre.sequence(x.coe)
        if not at.is_empty():
            yield AxiomViolation("At", "empty", tuple(at.pairs))

        with _obs.span("lkmm.check.Hb"):
            cycle = rel.hb.find_cycle()
        if cycle is not None:
            yield AxiomViolation("Hb", "acyclic", tuple(cycle))

        with _obs.span("lkmm.check.Pb"):
            cycle = rel.pb.find_cycle()
        if cycle is not None:
            yield AxiomViolation("Pb", "acyclic", tuple(cycle))

        if self.with_rcu:
            with _obs.span("lkmm.check.Rcu"):
                reflexive = rel.rcu_path.reflexive_pairs()
            if reflexive:
                witness = tuple(
                    event for pair in reflexive[:1] for event in pair
                )
                yield AxiomViolation("Rcu", "irreflexive", witness)

    def _result(self, violations: List[AxiomViolation]) -> ModelResult:
        if _obs.ENABLED:
            _obs.count("lkmm.checks")
            for violation in violations:
                _obs.count(f"lkmm.violation.{violation.axiom}")
        return ModelResult(allowed=not violations, violations=violations)
