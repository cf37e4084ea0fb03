"""The symbolic critical-cycle prover: verdicts before enumeration.

Litmus verdicts over the stock library and the diy corpus are dominated
by tests deliberately built around one *critical cycle* (Section 4 of
the paper): communication edges pinned by the final-state condition,
program-order edges between their endpoints.  Whether the model forbids
the outcome usually hinges on that single cycle — so this module decides
it *statically*, before (and usually instead of) enumerating the
candidate-execution space:

* **Forbid** — the condition body is unsatisfiable over the skeleton
  (``unsat-condition``), or in every coherence scenario of every
  condition-satisfying execution some acyclicity axiom of the model
  provably has a cycle (``critical-cycle``).  The cycle test evaluates
  each axiom once per scenario over *all* skeleton events, as a ``must``
  bitset matrix whose closure has a diagonal bit (:mod:`.match`), so no
  cycle is enumerated and none is too long to find.  Both facts are
  under-approximations of the real relations, so a Forbid is a proof,
  not a heuristic.
* **Allow** — a witness candidate synthesised from the condition
  footprint (threads restricted to traces matching the pinned register
  values) satisfies the condition and is *confirmed by the kernel
  itself* (``model.allows``) — exact by construction.
* **None** — anything else; the caller falls back to full enumeration.

The Forbid direction needs the model's compiled relational IR
(:mod:`repro.analysis.catir.compile`); native Python models still get
the ``unsat-condition`` and witness paths.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Optional

from repro.cat import CatError
from repro.guard import core as _guard
from repro.litmus.ast import Program
from repro.litmus.outcomes import Exists, NotExists
from repro.model import Model
from repro.obs import core as _obs

from repro.analysis.catir.compile import CompiledModel, compile_statements
from repro.analysis.symbolic.footprint import (
    Footprint,
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


def _find_witness(
    model: Model,
    program: Program,
    skeleton: ProgramSkeleton,
    footprint: Footprint,
    require_sc_per_location: bool,
) -> bool:
    """Synthesise and confirm one allowed, condition-satisfying candidate.

    Thread traces are pre-filtered to those whose final registers match
    the condition's pinned values, so the candidates examined are exactly
    the ones that can be witnesses.  The model's own ``allows`` makes the
    confirmation exact.  A tripped ambient guard aborts the attempt
    (returning False); the fallback enumeration then re-trips it at its
    own safepoint and degrades normally.
    """
    from repro.executions.enumerate import _executions_of_traces
    from repro.executions.thread_sem import (
        enumerate_thread_traces,
        possible_value_sets,
    )

    condition = program.condition
    try:
        value_sets = possible_value_sets(program)
        per_thread = []
        for tid, thread in enumerate(program.threads):
            pins = {
                reg: value
                for (pin_tid, reg), value in footprint.reg_values.items()
                if pin_tid == tid
            }
            traces = [
                trace
                for trace in enumerate_thread_traces(thread, value_sets)
                if all(
                    trace.final_regs.get(reg) == value
                    for reg, value in pins.items()
                )
            ]
            if not traces:
                return False
            per_thread.append(traces)
        locations = program.locations()
        examined = 0
        for combo in itertools.product(*per_thread):
            for execution in _executions_of_traces(
                program, locations, combo, require_sc_per_location
            ):
                examined += 1
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


def decide(
    model: Model,
    program: Program,
    require_sc_per_location: bool = False,
) -> Optional[StaticDecision]:
    """Statically decide ``program`` under ``model``, or ``None``.

    Sound by construction: a Forbid is a proof over every
    condition-satisfying execution, an Allow is a kernel-confirmed
    witness.  ``forall`` conditions (whose verdict quantifies over
    non-witnesses too) always fall back.

    Owns the observability counters (``static.decided`` /
    ``static.witness_confirmed`` / ``static.fallback``) so every caller
    — the batched drivers, ``repro-herd --static-only``, the coverage
    report — surfaces them uniformly under ``--profile``.
    """
    decision = _decide(model, program, require_sc_per_location)
    if _obs.ENABLED:
        if decision is None:
            _obs.count("static.fallback")
        else:
            _obs.count("static.decided")
            if decision.reason == "witness-confirmed":
                _obs.count("static.witness_confirmed")
    return decision


def _decide(
    model: Model,
    program: Program,
    require_sc_per_location: bool,
) -> Optional[StaticDecision]:
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
    if _find_witness(
        model, program, skeleton, footprint, require_sc_per_location
    ):
        return StaticDecision(ALLOW, "witness-confirmed")
    return None


def static_verdict(
    model: Model,
    program: Program,
    require_sc_per_location: bool = False,
) -> Optional[str]:
    """The statically decided verdict string, or ``None`` (fall back).

    This is the entry point the batched drivers call; the counters live
    in :func:`decide` itself.
    """
    decision = decide(
        model, program, require_sc_per_location=require_sc_per_location
    )
    return None if decision is None else decision.verdict
