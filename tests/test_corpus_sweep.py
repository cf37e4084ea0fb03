"""The differential sweep: verdicts, budgets, journals, crash recovery.

The interruption drill at the bottom is the satellite the PR exists
for: a corpus sweep is killed mid-run by injected worker crashes
(``REPRO_FAULT`` lane, retries disabled), resumed against the same
journal with faults off, and the merged matrix must equal the matrix of
a sweep that was never interrupted.
"""

from __future__ import annotations

import pytest

from repro.corpus.generate import corpus_slice, generate_corpus, program_digest
from repro.corpus.sweep import (
    CORPUS_MODELS,
    NOT_APPLICABLE,
    sweep_corpus,
    sweep_row,
)
from repro.diy import generate
from repro.guard import Budget, SweepJournal
from repro.herd import ALLOW, FORBID, INCONCLUSIVE
from repro.kernel import config as kconfig
from repro.kernel import parallel
from repro.litmus.outcomes import LocValue, pinned_atoms
from repro.guard import faults, parse_fault_spec

MODEL_NAMES = [spec.name for spec in CORPUS_MODELS]


@pytest.fixture(autouse=True)
def _clean_pools_and_spec():
    parallel.shutdown_pools()
    faults.set_spec(None)
    yield
    faults.set_spec(None)
    parallel.shutdown_pools()


@pytest.fixture(scope="module")
def corpus():
    return corpus_slice(seed=0, start=0, stop=12)


def test_sweep_row_covers_battery():
    program = generate(["Rfe", "PodRW", "Rfe", "PodRW"])  # LB
    row = sweep_row(program)
    assert sorted(row) == sorted(MODEL_NAMES)
    assert row["LKMM"] == ALLOW  # plain LB is allowed by LKMM
    assert row["x86-TSO"] == FORBID  # and forbidden on TSO


def test_rcu_tests_are_na_under_hardware_models():
    program = generate(["SyncdWW", "Rfe", "PodRR", "Fre"])
    row = sweep_row(program)
    assert row["LKMM"] in (ALLOW, FORBID)
    for hw in ("x86-TSO", "ARMv8", "Power"):
        assert row[hw] == NOT_APPLICABLE


def test_sweep_corpus_serial_matches_per_row(corpus):
    result = sweep_corpus(corpus)
    assert result.complete
    assert result.swept == len(corpus)
    for test in corpus:
        assert result.matrix[test.name] == sweep_row(test.program)


def test_sweep_corpus_parallel_matches_serial(corpus):
    serial = sweep_corpus(corpus)
    par = sweep_corpus(corpus, jobs=2)
    assert par.matrix == serial.matrix
    assert par.complete


def test_journal_rows_replay_with_digest(tmp_path, corpus):
    journal = SweepJournal(tmp_path / "sweep.jsonl", MODEL_NAMES)
    first = sweep_corpus(corpus, journal=journal)
    assert first.swept == len(corpus)
    # Second run: everything replays, nothing is re-judged.
    journal2 = SweepJournal(tmp_path / "sweep.jsonl", MODEL_NAMES)
    second = sweep_corpus(corpus, journal=journal2)
    assert second.swept == 0
    assert second.journal_skips == len(corpus)
    assert second.matrix == first.matrix


def test_stale_digest_forces_rerun(tmp_path, corpus):
    """A journal row whose digest no longer matches the corpus test is
    a *different program* wearing the same name — it must re-run."""
    journal = SweepJournal(tmp_path / "sweep.jsonl", MODEL_NAMES)
    victim = corpus[0]
    poisoned = {name: "Forbid" for name in MODEL_NAMES}
    journal.record(victim.name, poisoned, digest="0" * 16)
    result = sweep_corpus(corpus[:1], journal=journal)
    assert result.swept == 1  # not replayed
    assert result.matrix[victim.name] == sweep_row(victim.program)
    # Name-only rows (no digest) keep the legacy matching behaviour.
    legacy = SweepJournal(tmp_path / "legacy.jsonl", MODEL_NAMES)
    legacy.record(victim.name, poisoned)
    replay = sweep_corpus(corpus[:1], journal=legacy)
    assert replay.journal_skips == 1
    assert replay.matrix[victim.name] == poisoned


def test_inconclusive_rows_are_not_journaled(tmp_path, corpus):
    journal = SweepJournal(tmp_path / "sweep.jsonl", MODEL_NAMES)
    starved = Budget(max_states=1)
    result = sweep_corpus(corpus[:3], journal=journal, row_budget=starved)
    assert any(
        INCONCLUSIVE in row.values() for row in result.matrix.values()
    )
    # Journal only holds the conclusive rows (if any).
    for name in journal.completed_names():
        assert INCONCLUSIVE not in journal.completed(name).values()


def test_wall_budget_abandons_the_tail(corpus):
    result = sweep_corpus(corpus, wall_seconds=0.0)
    assert not result.complete
    assert sorted(result.abandoned) == sorted(t.name for t in corpus)
    assert result.matrix == {}


def test_interrupted_sweep_resumes_to_identical_matrix(
    tmp_path, corpus, monkeypatch
):
    """Kill the sweep mid-run (injected worker crashes, no retries),
    resume with the same journal, and demand the merged matrix be
    byte-identical to an uninterrupted sweep's.

    Which tasks share a pool when it dies depends on scheduling, and
    only a task that fails alone is charged.  The spec makes the crash
    bite on every schedule: some task draws a crash on its first two
    attempts, so it is either charged at once or crashes again when it
    is retried alone."""
    baseline = sweep_corpus(corpus)

    spec = parse_fault_spec("crash:0.4,seed=24")
    assert any(
        all(
            faults._unit(spec.seed, f"_sweep_task:{index}:{attempt}") < spec.crash
            for attempt in (0, 1)
        )
        for index in range(len(corpus))
    )
    faults.set_spec(spec)
    journal = SweepJournal(tmp_path / "sweep.jsonl", MODEL_NAMES)
    monkeypatch.setattr(parallel, "MAX_ATTEMPTS", 1)
    with pytest.raises(parallel.WorkerPoolError):
        sweep_corpus(corpus, jobs=2, journal=journal)
    monkeypatch.undo()
    parallel.shutdown_pools()
    faults.set_spec(None)

    crashed_through = len(journal)
    assert crashed_through < len(corpus), "the crash lane should bite"

    journal2 = SweepJournal(tmp_path / "sweep.jsonl", MODEL_NAMES)
    resumed = sweep_corpus(corpus, jobs=2, journal=journal2)
    assert resumed.journal_skips == crashed_through
    assert resumed.swept == len(corpus) - crashed_through
    assert resumed.matrix == baseline.matrix


def test_journal_digests_round_trip(tmp_path, corpus):
    """Digests written by the sweep survive reload and verify."""
    journal = SweepJournal(tmp_path / "sweep.jsonl", MODEL_NAMES)
    sweep_corpus(corpus[:2], journal=journal)
    reloaded = SweepJournal(tmp_path / "sweep.jsonl", MODEL_NAMES)
    for test in corpus[:2]:
        assert (
            reloaded.completed(test.name, program_digest(test.program))
            is not None
        )
        assert reloaded.completed(test.name, "f" * 16) is None


#: A generator seed other than the golden corpus's (seed 0): the tests
#: below were never frozen in any snapshot.
FRESH_SEED = 7


def test_fresh_tests_production_matches_oracle():
    """Production ≡ oracle, cell by cell, on 40 tests drawn fresh from
    the generator, final-memory (``Coe``-family) conditions included."""
    tests = list(generate_corpus(seed=FRESH_SEED, target=40))
    assert any(
        "Coe" in test.edges
        and any(
            isinstance(atom, LocValue)
            for atom in pinned_atoms(test.program.condition.body)
        )
        for test in tests
    )
    mismatches = []
    for test in tests:
        with kconfig.use_oracle(False):
            production = sweep_row(test.program)
        with kconfig.use_oracle():
            oracle = sweep_row(test.program)
        mismatches.extend(
            f"{test.name}/{model}: {production[model]} vs oracle {oracle[model]}"
            for model in MODEL_NAMES
            if production[model] != oracle[model]
        )
    assert mismatches == []
