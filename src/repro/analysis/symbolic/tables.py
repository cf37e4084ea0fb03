"""Axiom-to-order-table lowering: which edge shapes a model orders.

The diy edge vocabulary (:mod:`repro.diy.edges`) names the shapes
critical cycles are built from — communication edges (``Rfe``/``Fre``/
``Coe``) and program-order edges decorated with fences, dependencies and
access annotations (``MbdWR``, ``DpAddrdR``, ``AcqdR``...).  For each
shape this module asks one *linear* entailment question of the must/may
evaluator (:mod:`.match`): is the shape's (source, target) pair inside
the transitive closure of ``must`` of one of the model's acyclicity
axioms?

The answer per axiom is the classic "ordered" column of a model's
relaxation table (Section 4 of the paper): a cycle whose every edge is
ordered by the *same* acyclicity axiom is forbidden outright.  The table
is also the cheapest summary of what a model guarantees — ``repro-lint
--static-verdicts`` prints it, and the DESIGN chapter derives the
worked examples from it.

Each query runs on a tiny synthetic skeleton: two accesses of the
required kinds (same location and different threads for communication
shapes, different locations on one thread for program-order shapes),
the decorating fence interposed, the dependency recorded, annotations
applied as access tags.  Everything is an under-approximation exactly
like the prover's cycle test: a True cell is a proof, an empty cell only
means "not provable here".
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.analysis.symbolic.match import EdgeSet, MustMay
from repro.analysis.symbolic.prover import compiled_model
from repro.analysis.symbolic.skeleton import SkelEvent
from repro.diy.edges import ANY, EDGES, Edge
from repro.events import FENCE, ONCE, READ, WRITE
from repro.kernel.bitrel import closure_rows
from repro.model import Model

#: Tags forced by diy endpoint annotations.
_ANNOT_TAGS = {"acquire": "acquire", "release": "release", None: None}


def _shape(edge: Edge) -> Optional[Tuple[list, EdgeSet]]:
    """The synthetic positions and pinned edges realising one shape, or
    ``None`` for shapes without fixed endpoint kinds."""
    if edge.src == ANY or edge.tgt == ANY:
        return None
    src_kind = READ if edge.src == "R" else WRITE
    tgt_kind = READ if edge.tgt == "R" else WRITE
    src_tag = _ANNOT_TAGS.get(edge.src_annot) or ONCE
    tgt_tag = _ANNOT_TAGS.get(edge.tgt_annot) or ONCE
    if edge.external:
        # Communication: thread changes, location stays.
        src = SkelEvent(0, 0, src_kind, src_tag, "x")
        tgt = SkelEvent(1, 0, tgt_kind, tgt_tag, "x")
        pair = (src.key, tgt.key)
        edges = EdgeSet(
            rf=frozenset([pair] if edge.comm == "rf" else []),
            co=frozenset([pair] if edge.comm == "co" else []),
            fr=frozenset([pair] if edge.comm == "fr" else []),
        )
        return [src, tgt], edges
    # Program order: thread stays, location changes (the "d" of diy).
    positions = [SkelEvent(0, 0, src_kind, src_tag, "x")]
    if edge.fence is not None:
        positions.append(SkelEvent(0, 1, FENCE, edge.fence))
    deps = frozenset({0}) if edge.dep is not None else frozenset()
    positions.append(
        SkelEvent(
            0,
            len(positions),
            tgt_kind,
            tgt_tag,
            "y",
            addr_deps=deps if edge.dep == "addr" else frozenset(),
            data_deps=deps if edge.dep == "data" else frozenset(),
            ctrl_deps=deps if edge.dep == "ctrl" else frozenset(),
        )
    )
    return positions, EdgeSet()


def order_table(model: Model) -> Dict[str, Tuple[str, ...]]:
    """``{edge shape name: acyclicity axioms that provably order it}``.

    An empty tuple means the shape is not provably ordered — the model
    may relax it (``PodWR`` under TSO) or the proof is simply out of the
    evaluator's reach.  Models without a relational IR yield all-empty
    tables.
    """
    compiled = compiled_model(model)
    table: Dict[str, Tuple[str, ...]] = {}
    for name, edge in EDGES.items():
        shape = _shape(edge)
        if shape is None:
            table[name] = ()
            continue
        positions, edges = shape
        labels = []
        if compiled is not None:
            values = MustMay(positions, edges)
            last = 1 << (len(positions) - 1)
            for check in compiled.checks:
                if check.kind != "acyclic" or check.flag or check.negated:
                    continue
                if closure_rows(values.must(check.root))[0] & last:
                    labels.append(check.label)
        table[name] = tuple(sorted(set(labels)))
    return table


def ordered_shapes(model: Model) -> Tuple[str, ...]:
    """The shape names the model provably orders (non-empty table rows)."""
    return tuple(
        sorted(name for name, axioms in order_table(model).items() if axioms)
    )
