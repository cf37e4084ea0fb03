"""The top-level simulator: run a model over a litmus test.

This plays the role of the herd tool (Section 5 of the paper): enumerate
the candidate executions of a test, keep the ones the model allows, and
judge the final-state condition.  Every verdict, in both kernel
configurations, comes from that enumeration; a verdict-only run of an
``exists``/``~exists`` test enumerates only the candidates that meet the
condition's pinned atoms (see :func:`run_litmus_many`).

The verdicts follow the paper's Table 5 vocabulary:

* for an ``exists`` condition — **Allow** if some allowed execution
  satisfies it, **Forbid** otherwise;
* for ``~exists`` — **Forbid** means the model indeed rules the witness
  out (the test "passes"), **Allow** means the witness is reachable;
* for ``forall`` — **Allow** if every allowed execution satisfies it.

A run interrupted by a :mod:`repro.guard` budget (timeout, candidate
cap, memory ceiling, cancellation) adds a third verdict,
**Inconclusive**: the scanned prefix did not settle the condition.  The
degradation is sound — monotone facts established by the prefix survive
(an ``exists`` witness already found keeps the verdict ``Allow``, a
``forall`` counterexample keeps it ``Forbid``), and only the verdicts
that genuinely needed the unscanned suffix degrade.  The
:class:`RunResult` carries the budget's
:class:`~repro.guard.Interruption` provenance so callers can report
*why* and *how far*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Optional, Set, Tuple

from repro.executions.candidate import CandidateExecution
# Bound under its old name: the benchmark's tracer wraps it by that name.
from repro.executions.enumerate import (
    candidate_executions as candidate_executions_sharded,
)
from repro.guard import core as _guard
from repro.guard.journal import INCONCLUSIVE, SweepJournal
from repro.kernel import config as _config
from repro.litmus.ast import Program, check_condition
from repro.litmus.outcomes import Exists, Forall, FinalState, NotExists, pinned_atoms
from repro.litmus.writer import program_digest
from repro.model import Model
from repro.obs import core as _obs

ALLOW = "Allow"
FORBID = "Forbid"


@dataclass
class RunResult:
    """The outcome of running one model over one litmus test."""

    program: Program
    model_name: str
    #: Candidate executions enumerated: only those satisfying
    #: ``acyclic(po-loc | com)`` when every model of the run has
    #: :attr:`~repro.model.Model.sc_per_location`, else the whole stream;
    #: under ``verdict_only`` for an ``exists``/``~exists`` test, only
    #: the condition-directed part of it (see :func:`run_litmus_many`).
    candidates: int
    #: Executions the model allows.
    allowed: int
    #: Allowed executions whose final state satisfies the condition body.
    witnesses: int
    #: Distinct final states of allowed executions (their keys under
    #: ``outcome_key``, see :func:`run_litmus_many`).
    states: Set[FinalState] = field(default_factory=set)
    #: One allowed execution matching the condition, if any (kept for
    #: explanation tooling).
    witness_execution: Optional[CandidateExecution] = None
    #: One forbidden execution matching the condition, if any, among the
    #: enumerated candidates (so never one that violates SC-per-location
    #: when the sweep filtered those out).
    forbidden_witness: Optional[CandidateExecution] = None
    #: Budget-trip provenance when the candidate sweep was cut short;
    #: ``None`` for a complete run.
    interrupted: Optional["_guard.Interruption"] = None

    @property
    def complete(self) -> bool:
        """True when every candidate was scanned (no budget tripped)."""
        return self.interrupted is None

    @property
    def verdict(self) -> str:
        """``Allow``/``Forbid``, or ``Inconclusive`` for an interrupted
        run whose scanned prefix did not settle the condition."""
        condition = self.program.condition
        if condition is None or isinstance(condition, (Exists, NotExists)):
            if self.witnesses > 0:
                return ALLOW  # a witness is decisive even in a prefix
            return FORBID if self.complete else INCONCLUSIVE
        if isinstance(condition, Forall):
            if self.allowed > self.witnesses:
                return FORBID  # a counterexample is decisive
            return ALLOW if self.complete else INCONCLUSIVE
        raise TypeError(f"unknown condition {condition!r}")

    @property
    def observation(self) -> str:
        """herd-style observation summary: Never/Sometimes/Always."""
        if self.witnesses == 0:
            return "Never"
        if self.witnesses == self.allowed:
            return "Always"
        return "Sometimes"

    def describe(self) -> str:
        summary = (
            f"{self.program.name} under {self.model_name}: {self.verdict} "
            f"({self.witnesses} witnesses / {self.allowed} allowed / "
            f"{self.candidates} candidates)"
        )
        if self.interrupted is not None:
            summary += f" [interrupted: {self.interrupted.describe()}]"
        return summary


def _decided(result: RunResult) -> bool:
    """True when no further candidate can change ``result.verdict``.

    Counters only ever grow, so an ``exists``/``~exists`` verdict is
    final once a witness exists (Allow stays Allow), and a ``forall``
    verdict is final once some allowed execution misses the condition
    (``allowed > witnesses`` — Forbid stays Forbid).  The open verdicts
    (no witness yet; all-matching-so-far) genuinely need the full sweep.
    """
    condition = result.program.condition
    if condition is None or isinstance(condition, (Exists, NotExists)):
        return result.witnesses > 0
    return result.allowed > result.witnesses


def run_litmus_many(
    models: List[Model],
    program: Program,
    verdict_only: bool = False,
    outcome_key: Optional[Callable[[FinalState], Hashable]] = None,
) -> Dict[str, RunResult]:
    """Run several models over one program with a *single* enumeration.

    Candidate enumeration dominates the cost of a run, and candidates are
    model-independent — so judging N models costs one enumeration plus N
    model checks per candidate, not N enumerations.

    When every model has :attr:`~repro.model.Model.sc_per_location`, the
    enumeration keeps only the candidates satisfying
    ``acyclic(po-loc | com)``, in both configurations: each dropped one is
    forbidden by every model, so ``allowed``, ``witnesses`` and ``states``
    are those of the full stream and only ``candidates`` (and
    ``forbidden_witness``) see the difference.  One model without the
    property keeps the whole call on the full stream, which production
    enumerates with the same per-location sweep, unfiltered.

    ``verdict_only`` serves callers that read only verdicts.  It ends the
    candidate sweep as soon as every model's verdict is final (see
    :func:`_decided`), keeps no state set, and skips the model check for
    candidates that cannot influence the verdict: an ``exists``/
    ``~exists`` verdict is ``witnesses > 0`` and only a condition-matching
    candidate can become a witness, so non-matching candidates need no
    model check; a ``forall`` verdict flips to Forbid only on an *allowed
    non-matching* candidate, so matching candidates need none.  Verdicts are unchanged;
    the counters then cover only the checked candidates of the scanned
    prefix.

    For an ``exists``/``~exists`` test ``verdict_only`` also makes the
    enumeration *condition-directed* in production: the atoms pinned by
    the top-level conjunction of the condition body
    (:func:`~repro.litmus.outcomes.pinned_atoms`) prune thread traces and
    coherence orders before any candidate is built, and ``candidates``
    counts that stream only.  It is the full stream filtered by the pins,
    in the same order, and every dropped candidate misses the condition,
    so the checked candidates are those of the full stream and early
    exit and budget-cut partial results stay sound.  ``forall`` tests,
    runs without ``verdict_only`` and the oracle configuration enumerate
    the full stream.

    ``outcome_key`` serves callers that read only which outcomes are
    allowed, up to a key of the final state (Theorem 2's projection,
    :func:`repro.rcu.implementation.verify_implementation`).  ``states``
    then holds ``outcome_key(final_state)`` of the allowed executions,
    and a candidate is model-checked only while no allowed execution has
    reached its key with the same condition match: a later one cannot
    change ``states`` or the verdict.  Every candidate is still
    enumerated and counted in ``candidates``; ``allowed``, ``witnesses``
    and ``forbidden_witness`` cover the checked candidates only.

    A condition naming a thread, register or location the program lacks
    gets no verdict: :func:`~repro.litmus.ast.check_condition` raises
    before anything is enumerated.
    """
    check_condition(program)
    condition = program.condition
    exists_like = condition is None or isinstance(condition, (Exists, NotExists))
    sc_per_location = all(model.sc_per_location for model in models)
    pins = []
    if verdict_only and exists_like and condition is not None:
        if not _config.oracle():
            pins = pinned_atoms(condition.body)
    results: List[RunResult] = [
        RunResult(
            program=program,
            model_name=model.name,
            candidates=0,
            allowed=0,
            witnesses=0,
        )
        for model in models
    ]
    # Per model, the (key, condition match) pairs an allowed execution
    # has reached; only read under ``outcome_key``.
    reached: List[Set[Tuple[Hashable, bool]]] = [set() for _ in models]
    interruption: Optional[_guard.Interruption] = None
    with _obs.span("herd.run"):
        try:
            if _guard.ACTIVE:
                # The run-entry check: the clock is otherwise read only
                # every 64 ticks, which a short run never reaches.
                _guard._current.check()
            for execution in candidate_executions_sharded(
                program, sc_per_location, pins=pins
            ):
                matches = (
                    condition is None or condition.evaluate(execution.final_state)
                )
                if outcome_key is not None:
                    outcome = (outcome_key(execution.final_state), matches)
                for model, result, seen in zip(models, results, reached):
                    result.candidates += 1
                    if verdict_only and (matches if not exists_like else not matches):
                        continue
                    if outcome_key is not None and outcome in seen:
                        continue
                    with _obs.span(f"model.{model.name}"):
                        allowed = model.allows(execution)
                    if not allowed:
                        if matches and result.forbidden_witness is None:
                            result.forbidden_witness = execution
                        continue
                    result.allowed += 1
                    if outcome_key is not None:
                        seen.add(outcome)
                    elif not verdict_only:
                        result.states.add(execution.final_state)
                    if matches:
                        result.witnesses += 1
                        if result.witness_execution is None:
                            result.witness_execution = execution
                if verdict_only and all(map(_decided, results)):
                    if _obs.ENABLED:
                        _obs.count("herd.early_exit")
                    break
        except _guard.GuardStop as stop:
            # A budget tripped at a safepoint: keep the partial counters
            # and degrade the verdicts instead of crashing the run.
            interruption = stop.interruption
            if _obs.ENABLED:
                _obs.count("herd.interrupted")
    if interruption is not None:
        for result in results:
            result.interrupted = interruption
    if outcome_key is not None and not verdict_only:
        for result, seen in zip(results, reached):
            result.states = {key for key, _ in seen}
    if _obs.ENABLED:
        for result in results:
            _obs.count(f"herd.{result.model_name}.candidates", result.candidates)
            _obs.count(f"herd.{result.model_name}.allowed", result.allowed)
            _obs.count(f"herd.{result.model_name}.witnesses", result.witnesses)
    return {result.model_name: result for result in results}


def run_litmus(
    model: Model,
    program: Program,
    budget: Optional["_guard.Budget"] = None,
    *,
    require_sc_per_location: Optional[bool] = None,
) -> RunResult:
    """Run ``program`` against ``model`` and summarise the results.

    The model decides whether the enumeration keeps only SC-per-location
    candidates (:func:`run_litmus_many`).  ``require_sc_per_location``
    selects nothing: it is accepted for old callers, and raises
    :class:`ValueError` when set on a model without
    :attr:`~repro.model.Model.sc_per_location`.

    ``budget`` bounds the run (:class:`repro.guard.Budget`); an exhausted
    budget yields a partial :class:`RunResult` whose verdict may be
    ``Inconclusive``.  An already-armed ambient guard
    (:func:`repro.guard.guard`) is honoured without the parameter.
    """
    if require_sc_per_location and not model.sc_per_location:
        raise ValueError(
            f"{model.name} does not imply SC-per-location, so its "
            "candidates cannot be filtered by it"
        )
    with _guard.rearm(budget):
        return run_litmus_many([model], program)[model.name]


def verdict_row(models: List[Model], program: Program) -> Dict[str, str]:
    """One verdict-table row: every model judged over a single shared
    candidate sweep (:func:`run_litmus_many`), in both configurations.

    The sweep is ``verdict_only``, so for an ``exists``/``~exists`` test
    it is condition-directed in production, which makes it the witness
    search itself; the critical-cycle prover
    (:mod:`repro.analysis.symbolic`) stays an analysis tool.
    """
    results = run_litmus_many(models, program, verdict_only=True)
    return {model.name: results[model.name].verdict for model in models}


def _verdict_row_task(payload: Tuple[List[Model], Program]) -> Dict[str, str]:
    """One :func:`verdicts` row (a module-level, picklable task)."""
    models, program = payload
    return verdict_row(models, program)


def verdicts(
    models: List[Model],
    programs: List[Program],
    jobs: int = 1,
    journal: Optional[SweepJournal] = None,
) -> Dict[str, Dict[str, str]]:
    """Verdict table: ``{test name: {model name: Allow/Forbid}}``.

    Each program is enumerated once, for all models together, one row
    per task of :func:`repro.kernel.parallel.fault_tolerant_map`: in
    this process at ``jobs=1``, else over at most ``jobs`` worker
    processes, whose observability reports it brings home, so both scan
    the same candidate prefixes and their merged counters agree
    (``tests/test_obs.py``).

    An ambient budget (:func:`repro.guard.guard`) is spent per program:
    each row runs under a fresh copy of it (:func:`repro.guard.core.rearm`),
    so a limit gives the same table at any ``jobs``.

    Only verdicts are exposed, so each row is a :func:`verdict_row`: its
    sweep early-exits once every verdict is final (first witness for
    ``exists`` tests) and skips the model check for candidates that
    cannot influence the verdict.

    ``journal`` checkpoints each completed row as it lands
    (:class:`repro.guard.SweepJournal`, which keeps ``Inconclusive`` rows
    out): programs already journaled are skipped, so an interrupted sweep
    resumes instead of restarting.  Rows carry the program digest, so a
    test edited under the same name reruns.  The table keeps the input
    program order.
    """
    from repro.kernel.parallel import fault_tolerant_map

    table: Dict[str, Dict[str, str]] = {}
    pending: List[Program] = []
    for program in programs:
        done = (
            journal.completed(program.name, program_digest(program))
            if journal is not None
            else None
        )
        if done is not None:
            table[program.name] = done
        else:
            pending.append(program)

    def land(index: int, row: Dict[str, str]) -> None:
        program = pending[index]
        table[program.name] = row
        if journal is not None:
            journal.record(program.name, row, digest=program_digest(program))

    fault_tolerant_map(
        _verdict_row_task,
        [(models, program) for program in pending],
        jobs,
        on_result=land,
    )
    return {
        program.name: table[program.name]
        for program in programs
        if program.name in table
    }
