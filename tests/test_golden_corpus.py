"""The frozen golden corpus: the corpus-scale regression suite.

``tests/data/golden_corpus.jsonl`` freezes a ~500-test stratified
sample of the deterministic corpus stream with the full 6-model verdict
row locked per test (regenerated only by
``benchmarks/regen_golden_corpus.py``).  This suite re-judges every
frozen test and demands exact equality — in whichever kernel
configuration the environment selects (production, or the oracle under
``REPRO_ORACLE=1``), which is the point: the golden verdicts must not
depend on it.

Failures name the exact drifted cells.  To bless an intentional model
or semantics change::

    PYTHONPATH=src python benchmarks/regen_golden_corpus.py
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.corpus.generate import program_digest
from repro.corpus.golden import load_golden
from repro.corpus.sweep import CORPUS_MODELS, sweep_row
from repro.herd import INCONCLUSIVE

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_corpus.jsonl"

REGEN_HINT = (
    "golden corpus drifted; if the change is intentional, rerun "
    "`PYTHONPATH=src python benchmarks/regen_golden_corpus.py` and "
    "review the diff"
)

MODEL_NAMES = [spec.name for spec in CORPUS_MODELS]


@pytest.fixture(scope="module")
def golden():
    return load_golden(GOLDEN_PATH)


def test_snapshot_shape(golden):
    """~500 unique tests, every one carrying a full verdict row."""
    assert len(golden) == 500, REGEN_HINT
    digests = {test.digest for test, _ in golden}
    assert len(digests) == len(golden), REGEN_HINT
    for test, locked in golden:
        assert sorted(locked) == sorted(MODEL_NAMES), REGEN_HINT
        assert INCONCLUSIVE not in locked.values(), REGEN_HINT


def test_programs_match_their_digests(golden):
    """The stored litmus text still hashes to the stored digest — a
    generator change that altered a test's *program* is caught here,
    before verdicts are compared across different tests."""
    drifted = [
        test.name
        for test, _ in golden
        if program_digest(test.program) != test.digest
    ]
    assert drifted == [], f"{drifted[:5]}... {REGEN_HINT}"


def test_locked_verdicts_hold(golden):
    """Re-judge every frozen test under the full battery."""
    drifted = []
    for test, locked in golden:
        row = sweep_row(test.program)
        for model in MODEL_NAMES:
            if row.get(model) != locked[model]:
                drifted.append(
                    f"{test.name}: {model} "
                    f"{locked[model]} -> {row.get(model)}"
                )
    assert drifted == [], f"{drifted[:10]} {REGEN_HINT}"
