"""The frozen golden corpus: a stratified sample with locked verdicts.

10,000 tests × 6 models is a nightly job, not a tier-1 suite — but the
*behaviour* the sweep pins down must not drift silently between
nightlies.  The compromise is a frozen sample: ``freeze_golden`` picks a
~500-test stratified sample (every disagreement signature represented,
remaining seats allocated proportionally, all choices seeded) and writes
each test's litmus source *and* full verdict row to
``tests/data/golden_corpus.jsonl``.  ``tests/test_golden_corpus.py``
re-judges the sample on every tier-1 run, in the kernel configuration
the environment selects, and demands exact equality.

The freeze policy: the file only changes via
``benchmarks/regen_golden_corpus.py`` after an *intentional* semantic
change, and the diff is reviewed cell by cell — a verdict flip in the
golden corpus is a model-behaviour change by definition.  Each row also
carries the program digest, so a generator change that silently altered
a test's *program* (same name, different code) fails the digest check
rather than comparing verdicts across different tests.

JSONL, one test per line, because that is what diffs well: a regen that
touches 3 tests shows 3 changed lines.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.corpus.generate import CorpusTest, program_digest
from repro.corpus.mine import row_signature
from repro.corpus.sweep import (
    CORPUS_MODELS,
    SweepResult,
    sweep_row,
)

GOLDEN_SIZE = 500


def stratified_sample(
    result: SweepResult,
    size: int = GOLDEN_SIZE,
    seed: int = 0,
    order: Optional[Sequence[str]] = None,
) -> List[str]:
    """Pick ``size`` test names covering every disagreement signature.

    Every signature gets at least one seat; the rest are allocated by
    population (largest remainder), and the tests within a signature are
    chosen by a seeded shuffle — so the sample is deterministic for a
    given matrix and seed, and no behavioural equivalence class of the
    battery goes unrepresented.
    """
    if order is None:
        order = [spec.name for spec in CORPUS_MODELS]
    buckets: Dict[str, List[str]] = {}
    for name in sorted(result.matrix):
        signature = row_signature(result.matrix[name], order)
        buckets.setdefault(signature, []).append(name)
    total = sum(len(members) for members in buckets.values())
    size = min(size, total)

    signatures = sorted(buckets)
    seats = {sig: 1 for sig in signatures}
    spare = size - len(signatures)
    if spare < 0:
        # More signatures than seats: keep the most populous ones.
        keep = sorted(signatures, key=lambda s: (-len(buckets[s]), s))[:size]
        seats = {sig: 1 for sig in keep}
        spare = 0
    # Largest-remainder allocation of the remaining seats.
    shares = {
        sig: len(buckets[sig]) * spare / total for sig in seats
    }
    for sig in seats:
        seats[sig] += int(shares[sig])
    leftover = size - sum(seats.values())
    for sig in sorted(
        seats, key=lambda s: (-(shares[s] - int(shares[s])), s)
    )[:leftover]:
        seats[sig] += 1

    rng = random.Random(seed)
    chosen: List[str] = []
    for sig in signatures:
        if sig not in seats:
            continue
        members = list(buckets[sig])
        rng.shuffle(members)
        chosen.extend(members[: min(seats[sig], len(members))])
    return sorted(chosen)


def freeze_golden(
    result: SweepResult,
    path,
    size: int = GOLDEN_SIZE,
    seed: int = 0,
) -> List[str]:
    """Write the stratified sample + locked verdicts to ``path``.

    Returns the chosen test names.  Rows are sorted by name: the file is
    a canonical function of (matrix, size, seed).
    """
    order = [spec.name for spec in CORPUS_MODELS]
    names = stratified_sample(result, size=size, seed=seed, order=order)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for name in names:
            test = result.tests[name]
            row = dict(test.to_json())
            row["verdicts"] = dict(result.matrix[name])
            handle.write(json.dumps(row, sort_keys=True) + "\n")
    return names


def load_golden(path) -> List[Tuple[CorpusTest, Dict[str, str]]]:
    """Parse the frozen corpus back into (test, locked verdicts) pairs."""
    entries: List[Tuple[CorpusTest, Dict[str, str]]] = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        row = json.loads(line)
        entries.append((CorpusTest.from_json(row), dict(row["verdicts"])))
    return entries


def verify_golden(path) -> List[str]:
    """Re-judge every frozen test; return human-readable mismatches.

    Three failure modes, in checking order: the stored litmus text no
    longer reproduces the stored digest (the test itself drifted), a
    model's verdict moved, or a model column vanished.  An empty return
    is the regression suite passing.
    """
    mismatches: List[str] = []
    for test, locked in load_golden(path):
        digest = program_digest(test.program)
        if digest != test.digest:
            mismatches.append(
                f"{test.name}: program digest drifted "
                f"({test.digest} -> {digest})"
            )
            continue
        row = sweep_row(test.program)
        for model, expected in sorted(locked.items()):
            actual = row.get(model)
            if actual != expected:
                mismatches.append(
                    f"{test.name}: {model} flipped {expected} -> {actual}"
                )
    return mismatches
