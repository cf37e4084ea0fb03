"""Symbolic critical-cycle prover: litmus verdicts from the condition's
critical cycle, as an analysis tool.

The pipeline:

1. :mod:`.skeleton` — the trace-invariant event structure of a test;
2. :mod:`.footprint` — communication edges pinned by the final-state
   condition, plus the coherence scenarios still open;
3. :mod:`.match` — must/may bitset evaluation of the compiled cat IR
   over all skeleton events; an axiom is violated when its ``must``
   closure has a diagonal bit;
4. :mod:`.prover` — the decision procedure (:func:`decide`,
   :func:`static_verdict`), consumed by ``repro-herd --static-only``,
   ``repro-lint --static-verdicts`` and the coverage report
   (:mod:`.report`);
5. :mod:`.tables` — per-model order tables over the diy edge shapes.

Everything is sound by construction: Forbid is a proof over every
condition-satisfying execution, Allow is a kernel-confirmed witness,
and anything else is left undecided.  Verdict tables
(:func:`repro.herd.verdict_row`) do not consult the prover: their
condition-directed enumeration is the witness search.
"""

from repro.analysis.symbolic.footprint import (
    Footprint,
    guaranteed_edges,
    resolve_footprint,
    scenarios,
)
from repro.analysis.symbolic.match import EdgeSet, MustMay, violated_check
from repro.analysis.symbolic.prover import (
    StaticDecision,
    compiled_model,
    decide,
    static_verdict,
)
from repro.analysis.symbolic.skeleton import (
    ProgramSkeleton,
    SkelEvent,
    UNKNOWN,
    Unsupported,
    extract_skeleton,
)
from repro.analysis.symbolic.tables import order_table, ordered_shapes

__all__ = [
    "EdgeSet",
    "Footprint",
    "MustMay",
    "ProgramSkeleton",
    "SkelEvent",
    "StaticDecision",
    "UNKNOWN",
    "Unsupported",
    "compiled_model",
    "decide",
    "extract_skeleton",
    "guaranteed_edges",
    "order_table",
    "ordered_shapes",
    "resolve_footprint",
    "scenarios",
    "static_verdict",
    "violated_check",
]
