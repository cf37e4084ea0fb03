"""The symbolic critical-cycle prover: an analysis tool.

Litmus verdicts over the stock library and the diy corpus are dominated
by tests deliberately built around one *critical cycle* (Section 4 of
the paper): communication edges pinned by the final-state condition,
program-order edges between their endpoints.  Whether the model forbids
the outcome usually hinges on that single cycle — so this module decides
it *statically*, as the argument of Herding Cats: which cycle, under
which axiom.  ``repro-herd --static-only``, ``repro-lint
--static-verdicts`` and the coverage report consume it; verdict tables
do not (:func:`repro.herd.verdict_row` enumerates, condition-directed).

* **Forbid** — the condition body is unsatisfiable over the skeleton
  (``unsat-condition``), or in every coherence scenario of every
  condition-satisfying execution some acyclicity axiom of the model
  provably has a cycle (``critical-cycle``).  The cycle test evaluates
  each axiom once per scenario over *all* skeleton events, as a ``must``
  bitset matrix whose closure has a diagonal bit (:mod:`.match`), so no
  cycle is enumerated and none is too long to find.  Both facts are
  under-approximations of the real relations, so a Forbid is a proof,
  not a heuristic.
* **Allow** — a candidate of the enumerator's condition-directed stream
  satisfies the condition and is *confirmed by the kernel itself*
  (``model.allows``) — exact by construction.
* **None** — anything else: the prover does not decide the cell.

The Forbid direction needs the model's compiled relational IR
(:mod:`repro.analysis.catir.compile`); native Python models still get
the ``unsat-condition`` and witness paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.cat import CatError
from repro.guard import core as _guard
from repro.litmus.ast import Program
from repro.litmus.outcomes import Exists, NotExists, pinned_atoms
from repro.model import Model
from repro.obs import core as _obs

from repro.analysis.catir.compile import CompiledModel, compile_statements
from repro.analysis.symbolic.footprint import (
    guaranteed_edges,
    resolve_footprint,
    scenarios,
)
from repro.analysis.symbolic.match import EdgeSet, violated_check
from repro.analysis.symbolic.skeleton import (
    ProgramSkeleton,
    Unsupported,
    extract_skeleton,
)

ALLOW = "Allow"
FORBID = "Forbid"

#: Cap on the candidates the witness search examines (the point is to be
#: *cheap*).
MAX_WITNESS_CANDIDATES = 256


@dataclass(frozen=True)
class StaticDecision:
    """A statically established verdict and its provenance."""

    verdict: str  # ALLOW or FORBID
    #: ``unsat-condition`` / ``critical-cycle`` / ``witness-confirmed``.
    reason: str
    detail: str = ""

    def describe(self) -> str:
        suffix = f" [{self.detail}]" if self.detail else ""
        return f"{self.verdict} ({self.reason}){suffix}"


# ---------------------------------------------------------------------------
# Model IR


#: Per-process compiled-IR cache keyed on the CatModel token; ``None``
#: records "this model does not lower" so it is attempted only once.
_COMPILED: Dict[int, Optional[CompiledModel]] = {}


def compiled_model(model: Model) -> Optional[CompiledModel]:
    """The model's relational IR, or ``None`` for models that have no cat
    statement list or whose cat dialect the IR compiler rejects."""
    token = getattr(model, "_token", None)
    flattened = getattr(model, "_flattened", None)
    if token is None or flattened is None:
        return None
    if token in _COMPILED:
        return _COMPILED[token]
    try:
        compiled = compile_statements(model._flattened(), model.name)
    except CatError:
        compiled = None
    _COMPILED[token] = compiled
    return compiled


# ---------------------------------------------------------------------------
# Entailment


def _forbidden_under(
    skeleton: ProgramSkeleton, edges: EdgeSet, compiled: CompiledModel
) -> Optional[str]:
    """A violated-check label when every execution carrying ``edges``
    has a cycle inside an acyclicity axiom of the model, else ``None``."""
    events = [event for thread in skeleton.threads for event in thread.events]
    _obs.count("static.match")
    with _obs.span("static.match"):
        return violated_check(events, edges, compiled.checks)


# ---------------------------------------------------------------------------
# Witness synthesis (the Allow direction)


def _find_witness(model: Model, program: Program) -> bool:
    """Find and confirm one allowed, condition-satisfying candidate.

    Scans the enumerator's condition-directed stream (the candidates
    meeting every atom the condition pins, see
    :func:`repro.litmus.outcomes.pinned_atoms`; SC-per-location ones only
    when the model has :attr:`~repro.model.Model.sc_per_location`), so
    the candidates examined are exactly the ones that can be witnesses,
    at most ``MAX_WITNESS_CANDIDATES`` of them.  The model's own ``allows``
    makes the confirmation exact.  A tripped ambient guard aborts the
    attempt (returning False): the cell stays undecided, and a caller
    that enumerates next re-trips the guard at its own safepoint and
    degrades normally.
    """
    from repro.executions.enumerate import candidate_executions

    condition = program.condition
    stream = candidate_executions(
        program, model.sc_per_location, pins=pinned_atoms(condition.body)
    )
    try:
        for examined, execution in enumerate(stream, 1):
            if condition.evaluate(execution.final_state) and model.allows(
                execution
            ):
                return True
            if examined >= MAX_WITNESS_CANDIDATES:
                return False
    except _guard.GuardStop:
        return False
    return False


# ---------------------------------------------------------------------------
# The decision procedure


def decide(model: Model, program: Program) -> Optional[StaticDecision]:
    """Statically decide ``program`` under ``model``, or ``None``.

    Sound by construction: a Forbid is a proof over every
    condition-satisfying execution, an Allow is a kernel-confirmed
    witness.  ``forall`` conditions (whose verdict quantifies over
    non-witnesses too) are never decided.

    Owns the observability counters (``static.decided`` /
    ``static.witness_confirmed`` / ``static.fallback``) so every caller
    — ``repro-herd --static-only``, ``repro-lint --static-verdicts``,
    the coverage report — surfaces them uniformly under ``--profile``.
    """
    decision = _decide(model, program)
    if _obs.ENABLED:
        if decision is None:
            _obs.count("static.fallback")
        else:
            _obs.count("static.decided")
            if decision.reason == "witness-confirmed":
                _obs.count("static.witness_confirmed")
    return decision


def _decide(model: Model, program: Program) -> Optional[StaticDecision]:
    condition = program.condition
    if condition is None or not isinstance(condition, (Exists, NotExists)):
        return None
    try:
        skeleton = extract_skeleton(program)
        footprint = resolve_footprint(skeleton, condition.body)
    except Unsupported:
        return None
    if footprint.trivially_false:
        return StaticDecision(
            FORBID, "unsat-condition", "no execution satisfies the condition"
        )
    compiled = compiled_model(model)
    if compiled is not None:
        guaranteed = guaranteed_edges(skeleton, footprint)
        label = _forbidden_under(skeleton, guaranteed, compiled)
        if label is not None:
            return StaticDecision(FORBID, "critical-cycle", label)
        cases = scenarios(skeleton, footprint)
        if cases != [guaranteed]:
            labels = []
            for case in cases:
                label = _forbidden_under(skeleton, case, compiled)
                if label is None:
                    labels = None
                    break
                labels.append(label)
            if labels is not None:
                return StaticDecision(
                    FORBID,
                    "critical-cycle",
                    "; ".join(sorted(set(labels))),
                )
    if _find_witness(model, program):
        return StaticDecision(ALLOW, "witness-confirmed")
    return None


def static_verdict(model: Model, program: Program) -> Optional[str]:
    """The statically decided verdict string, or ``None`` (undecided).

    The counters live in :func:`decide` itself.
    """
    decision = decide(model, program)
    return None if decision is None else decision.verdict
