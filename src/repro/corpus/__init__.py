"""Corpus-scale test generation and differential data-mining.

Herding Cats frames weak-memory validation as a *data-mining*
programme: generate litmus tests at scale, run them under every model
you have, and mine the disagreements for the scientifically interesting
behaviours.  This package is that programme for the LK model:

* :mod:`repro.corpus.generate` — a deterministic, seeded generator that
  drives :mod:`repro.diy` across every communication skeleton (2–5
  threads), fence/dependency decoration, and RCU critical-section
  variant, deduplicating by canonical AST hash; 10k+ unique, lint-clean
  tests from one seed.
* :mod:`repro.corpus.sweep` — a differential sweep over LKMM,
  LKMM-core, C11, x86-TSO, ARMv8 and Power (hardware models judge the
  *compiled* program, per the LK→machine mappings), fault-tolerant via
  :mod:`repro.kernel.parallel`, budgeted via :mod:`repro.guard`, and
  resumable through a digest-checked :class:`~repro.guard.SweepJournal`.
* :mod:`repro.corpus.mine` — classifies every test by its *disagreement
  signature* (e.g. "LKMM forbids, C11 allows"), ranks families by
  disagreement density, and flags mapping-soundness alerts.
* :mod:`repro.corpus.report` — renders ``STRESS_REPORT.md``.
* :mod:`repro.corpus.golden` — freezes a stratified sample with locked
  verdicts (``tests/data/golden_corpus.jsonl``), the corpus-scale
  regression suite.

The ``repro-corpus`` CLI exposes the pipeline as
``generate | sweep | mine | report``.
"""

from repro.corpus.generate import (
    CorpusTest,
    corpus_slice,
    generate_corpus,
    program_digest,
)
from repro.corpus.golden import freeze_golden, load_golden, verify_golden
from repro.corpus.mine import MiningReport, mine, row_signature
from repro.corpus.report import stress_report
from repro.corpus.sweep import (
    CORPUS_MODELS,
    ModelSpec,
    NOT_APPLICABLE,
    SweepResult,
    sweep_corpus,
    sweep_row,
)

__all__ = [
    "CorpusTest",
    "corpus_slice",
    "generate_corpus",
    "program_digest",
    "CORPUS_MODELS",
    "ModelSpec",
    "NOT_APPLICABLE",
    "SweepResult",
    "sweep_corpus",
    "sweep_row",
    "MiningReport",
    "mine",
    "row_signature",
    "stress_report",
    "freeze_golden",
    "load_golden",
    "verify_golden",
]
