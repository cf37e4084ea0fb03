"""Differential sweep: every corpus test under every model.

One sweep *row* is a corpus test judged by the full model battery.
Direct models (LKMM, LKMM-core, C11 — their cat files speak the LK
annotation vocabulary) judge the litmus program as written, sharing a
single candidate enumeration via :func:`repro.herd.run_litmus_many`.
Hardware models judge the *compiled* program: the test is first mapped
to the architecture (:func:`repro.hardware.compile_program` with
``rcu="error"``), so each hardware column reflects the LK→machine
mapping of Table 4, and RCU-bearing tests — which no mapping can express
— get the verdict :data:`NOT_APPLICABLE` instead of a lie.

Rows are distributed over a fault-tolerant worker pool
(:func:`repro.kernel.parallel.fault_tolerant_map`): a crashed or hung
worker costs a retry, not the sweep.  Each completed conclusive row is
checkpointed to a digest-carrying :class:`repro.guard.SweepJournal`
before the next lands, so a sweep killed at row 7,000 resumes at row
7,001 — and a journal row whose program digest no longer matches the
corpus is rerun, not replayed.  A wall budget turns the sweep into an
anytime computation: when it expires the pool abandons the queued tail
and the partial matrix (plus journal) is the result.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cat.eval import load_model
from repro.corpus.generate import CorpusTest
from repro.guard import Budget, SweepJournal, guard
from repro.hardware import CompileError, compile_program, get_arch
from repro.herd import INCONCLUSIVE, verdict_row
from repro.litmus.parser import parse_litmus
from repro.obs import core as _obs

#: Verdict for a (test, model) cell the model cannot express — an
#: RCU-bearing test under a hardware mapping.
NOT_APPLICABLE = "N/A"


@dataclass(frozen=True)
class ModelSpec:
    """One column of the verdict matrix.

    ``arch`` is ``None`` for models that judge the LK program directly;
    otherwise it names the :mod:`repro.hardware` architecture whose
    compiled form the model judges.
    """

    key: str
    name: str
    arch: Optional[str] = None


#: The standard battery, in matrix column order.
CORPUS_MODELS: Tuple[ModelSpec, ...] = (
    ModelSpec("lkmm", "LKMM"),
    ModelSpec("lkmm-core", "LKMM-core"),
    ModelSpec("c11", "C11"),
    ModelSpec("tso", "x86-TSO", arch="x86"),
    ModelSpec("armv8", "ARMv8", arch="ARMv8"),
    ModelSpec("power", "Power", arch="Power8"),
)


def model_names(specs: Sequence[ModelSpec] = CORPUS_MODELS) -> List[str]:
    return [spec.name for spec in specs]


def _model(key: str):
    """One battery model; :func:`load_model` parses it once per process,
    so a persistent pool worker pays for it once, not once per row."""
    return load_model(key)


def sweep_row(
    program,
    specs: Sequence[ModelSpec] = CORPUS_MODELS,
    budget: Optional[Budget] = None,
) -> Dict[str, str]:
    """Judge one program under the full battery: ``{model name: verdict}``.

    The budget (when given) covers the whole row; once it trips, the
    remaining columns degrade to ``Inconclusive`` at their first
    safepoint rather than blowing the row's time allowance.
    """
    direct = [spec for spec in specs if spec.arch is None]
    compiled = [spec for spec in specs if spec.arch is not None]
    row: Dict[str, str] = {}

    def _judge() -> None:
        # One verdict_row shares a single condition-directed candidate
        # sweep across the directly judged models.
        if direct:
            row.update(
                verdict_row([_model(spec.key) for spec in direct], program)
            )
        for spec in compiled:
            try:
                mapped = compile_program(
                    program, get_arch(spec.arch), rcu="error"
                )
            except CompileError:
                row[spec.name] = NOT_APPLICABLE
                if _obs.ENABLED:
                    _obs.count("corpus.sweep_na")
                continue
            row.update(verdict_row([_model(spec.key)], mapped))

    if budget is not None:
        with guard(budget):
            _judge()
    else:
        _judge()
    if _obs.ENABLED:
        _obs.count("corpus.sweep_rows")
    return row


def _sweep_task(payload: Tuple) -> Tuple[str, Dict[str, str]]:
    """Worker-side row: parse the shipped litmus text, judge it.

    The payload carries the test as litmus *text* (stable, compact, and
    independent of AST pickling) plus the spec tuple and per-row budget.
    """
    litmus, spec_rows, budget = payload
    specs = tuple(ModelSpec(*row) for row in spec_rows)
    program = parse_litmus(litmus)
    return program.name, sweep_row(program, specs, budget=budget)


@dataclass
class SweepResult:
    """The verdict matrix plus sweep provenance."""

    #: ``{test name: {model name: verdict}}`` — only completed rows.
    matrix: Dict[str, Dict[str, str]] = field(default_factory=dict)
    #: Tests indexed by name (for family/thread metadata downstream).
    tests: Dict[str, CorpusTest] = field(default_factory=dict)
    #: Rows replayed from the journal rather than re-run.
    journal_skips: int = 0
    #: Rows actually executed this run.
    swept: int = 0
    #: Test names abandoned when the wall budget expired.
    abandoned: List[str] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return not self.abandoned


def sweep_corpus(
    tests: Sequence[CorpusTest],
    specs: Sequence[ModelSpec] = CORPUS_MODELS,
    jobs: int = 1,
    journal: Optional[SweepJournal] = None,
    row_budget: Optional[Budget] = None,
    wall_seconds: Optional[float] = None,
    task_timeout: Optional[float] = None,
    max_attempts: Optional[int] = None,
) -> SweepResult:
    """Judge every test under every model, resumably.

    ``journal`` rows with a matching name *and* program digest are
    replayed without re-running; everything else is (re)swept and
    conclusive rows are journaled as they complete.  ``wall_seconds``
    bounds the whole sweep — on expiry the queued tail is abandoned (its
    names land in :attr:`SweepResult.abandoned`) and whatever completed
    is returned; resuming with the same journal picks up exactly there.
    ``row_budget`` bounds each row individually (sound ``Inconclusive``
    degradation; such rows are never journaled, so they rerun on resume).
    """
    result = SweepResult()
    pending: List[CorpusTest] = []
    for test in tests:
        result.tests[test.name] = test
        done = journal.completed(test.name, test.digest) if journal else None
        if done is not None:
            result.matrix[test.name] = dict(done)
            result.journal_skips += 1
            if _obs.ENABLED:
                _obs.count("guard.journal_skips")
        else:
            pending.append(test)

    deadline = (
        None if wall_seconds is None else time.monotonic() + wall_seconds
    )

    def _expired() -> bool:
        return deadline is not None and time.monotonic() >= deadline

    def _accept(test: CorpusTest, row: Dict[str, str]) -> None:
        result.matrix[test.name] = row
        result.swept += 1
        if journal is not None and INCONCLUSIVE not in row.values():
            journal.record(test.name, row, digest=test.digest)

    if jobs > 1 and len(pending) > 1:
        from repro.kernel.parallel import fault_tolerant_map
        from repro.litmus.writer import write_litmus

        spec_rows = tuple((s.key, s.name, s.arch) for s in specs)
        payloads = [
            (write_litmus(test.program), spec_rows, row_budget)
            for test in pending
        ]
        rows = fault_tolerant_map(
            _sweep_task,
            payloads,
            jobs,
            task_timeout=task_timeout,
            max_attempts=max_attempts,
            on_result=lambda index, outcome: _accept(
                pending[index], outcome[1]
            ),
            stop=_expired,
        )
        for test, outcome in zip(pending, rows):
            if outcome is None:
                result.abandoned.append(test.name)
    else:
        for test in pending:
            if _expired():
                result.abandoned.append(test.name)
                continue
            _accept(
                test, sweep_row(test.program, specs, budget=row_budget)
            )
    return result
