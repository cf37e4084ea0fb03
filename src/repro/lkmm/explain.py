"""Explaining *why* the model forbids an execution.

The paper walks through its figures by exhibiting the cycle that violates
an axiom (e.g. for Figure 4: ``a -ppo-> b -rfe-> c -ppo-> d -rfe-> a``, a
cycle in hb).  This module reconstructs such explanations mechanically: for
each violated axiom it reports the cycle and annotates every step with the
strongest primitive relation that justifies it.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.events import Event
from repro.executions.candidate import CandidateExecution
from repro.lkmm.model import LinuxKernelModel, LkmmRelations
from repro.relations import Relation


def _edge_name(
    rel: LkmmRelations, a: Event, b: Event
) -> str:
    """The most informative name for the edge (a, b)."""
    x = rel.x
    named: Sequence[Tuple[str, Relation]] = (
        ("rfe", x.rfe),
        ("rfi", x.rfi),
        ("coe", x.coe),
        ("coi", x.coi),
        ("fre", x.fre),
        ("fri", x.fri),
        ("addr", x.addr),
        ("data", x.data),
        ("ctrl", x.ctrl),
        ("mb", rel.mb),
        ("wmb", rel.wmb),
        ("rmb", rel.rmb),
        ("rb-dep", rel.rb_dep),
        ("po-rel", rel.po_rel),
        ("acq-po", rel.acq_po),
        ("gp", rel.gp),
        ("rscs", rel.rscs),
        ("ppo", rel.ppo),
        ("cumul-fence", rel.cumul_fence),
        ("prop", rel.prop),
        ("hb", rel.hb),
        ("pb", rel.pb),
        ("po", x.po),
    )
    for name, relation in named:
        if (a, b) in relation:
            return name
    return "?"


def explain_race(
    execution: CandidateExecution,
    a: Event,
    b: Event,
    relations: Optional[LkmmRelations] = None,
) -> str:
    """A human-readable explanation of a data race between ``a`` and ``b``.

    Used by :mod:`repro.analysis.races`: the pair is conflicting (same
    location, different threads, at least one write, at least one plain)
    and unordered by the race happens-before.  The explanation names the
    strongest relation that *does* connect the pair — typically a raw
    communication edge (``rfe``, ``coe``, ``fre``), which plain accesses do
    not turn into synchronisation — or reports the pair fully unordered.
    """
    rel = relations if relations is not None else LkmmRelations(execution)
    lines: List[str] = [execution.describe()]

    def _name(e: Event) -> str:
        return e.label or f"e{e.eid}"

    plain_sides = [e for e in (a, b) if e.has_tag("plain")]
    lines.append(
        f"data race on {a.loc!r}: {a!r} (T{a.tid}) vs {b!r} (T{b.tid}), "
        f"{'both' if len(plain_sides) == 2 else 'one side'} plain"
    )
    forward = _edge_name(rel, a, b)
    backward = _edge_name(rel, b, a)
    if forward != "?":
        lines.append(
            f"  {_name(a)} -{forward}-> {_name(b)} connects them, but a "
            f"{forward} edge between plain accesses is not synchronisation"
        )
    elif backward != "?":
        lines.append(
            f"  {_name(b)} -{backward}-> {_name(a)} connects them, but a "
            f"{backward} edge between plain accesses is not synchronisation"
        )
    else:
        lines.append(
            f"  no LKMM relation orders {_name(a)} and {_name(b)} at all"
        )
    lines.append(
        "  neither direction is in the race happens-before "
        "(ppo | marked-rfe | prop-derived orderings)"
    )
    return "\n".join(lines)


def explain_forbidden(
    execution: CandidateExecution, model: Optional[LinuxKernelModel] = None
) -> str:
    """A human-readable explanation of a forbidden execution.

    Returns ``"allowed"`` if the model allows the execution.
    """
    model = model or LinuxKernelModel()
    result = model.check(execution)
    if result.allowed:
        return "allowed"
    rel = model.relations(execution)
    lines: List[str] = [execution.describe()]
    for violation in result.violations:
        lines.append(f"violated axiom: {violation.axiom} ({violation.kind})")
        if violation.kind in ("acyclic", "irreflexive") and violation.witness:
            cycle = list(violation.witness)
            if violation.kind == "irreflexive" and len(cycle) == 2:
                a, b = cycle
                lines.append(
                    f"  {a.label or a.eid} is rcu-path-before itself"
                )
                continue
            steps = []
            for a, b in zip(cycle, cycle[1:]):
                steps.append(
                    f"{a.label or a.eid} -{_edge_name(rel, a, b)}-> "
                )
            steps.append(cycle[-1].label or str(cycle[-1].eid))
            lines.append("  cycle: " + "".join(steps))
        elif violation.kind == "empty":
            for a, b in violation.witness:
                lines.append(
                    f"  rmw pair ({a.label or a.eid},{b.label or b.eid}) "
                    "has an intervening external write (fre;coe)"
                )
    return "\n".join(lines)
