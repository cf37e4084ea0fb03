"""Differential data-mining over a sweep's verdict matrix.

The paper's methodology is to *mine* the model disagreements, not just
tabulate verdicts: a litmus test is scientifically interesting exactly
when two models that ought to agree don't.  The unit of classification
is the **disagreement signature** — the row's verdict vector collapsed
to which models allow, which forbid, and which cannot express the test —
so "LKMM forbids what C11 allows" is one bucket regardless of which of
the 10,000 tests exhibits it.

Three classes of signal are extracted:

* **signatures** ranked by population, each with exemplar tests — the
  map of where the models part ways;
* **family density** — which cycle families provoke the most
  disagreement per test, i.e. where to aim the next generation wave;
* **soundness alerts** — rows where a hardware model *allows* what LKMM
  *forbids*.  Under the paper's Section 5.1 claim (the LK model is weaker
  than the mapped hardware models) this must never happen; any hit is
  either a mapping bug or a model bug, and is surfaced loudly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.corpus.sweep import (
    CORPUS_MODELS,
    NOT_APPLICABLE,
    SweepResult,
)
from repro.herd import ALLOW, FORBID, INCONCLUSIVE

#: The reference column for soundness alerts.
REFERENCE_MODEL = "LKMM"


def row_signature(
    row: Dict[str, str], order: Sequence[str]
) -> str:
    """The canonical disagreement signature of one verdict row.

    Verdict-homogeneous rows collapse to ``all-Allow``/``all-Forbid``;
    anything else lists each verdict's models, e.g.
    ``Forbid:LKMM,LKMM-core|Allow:C11,x86-TSO,ARMv8,Power``.  Model
    names appear in battery column order, so equal rows always produce
    equal strings.
    """
    by_verdict: Dict[str, List[str]] = {}
    for name in order:
        verdict = row.get(name)
        if verdict is None:
            continue
        by_verdict.setdefault(verdict, []).append(name)
    if len(by_verdict) == 1:
        return f"all-{next(iter(by_verdict))}"
    parts = []
    # Verdicts ordered by first appearance in the column order: stable.
    for name in order:
        verdict = row.get(name)
        if verdict in by_verdict:
            parts.append(f"{verdict}:{','.join(by_verdict.pop(verdict))}")
    return "|".join(parts)


@dataclass
class SignatureBucket:
    signature: str
    count: int = 0
    #: Up to :data:`EXEMPLAR_LIMIT` representative test names.
    exemplars: List[str] = field(default_factory=list)
    families: Dict[str, int] = field(default_factory=dict)


EXEMPLAR_LIMIT = 5


@dataclass
class FamilyStats:
    family: str
    tests: int = 0
    #: Rows whose applicable, conclusive verdicts are not unanimous.
    disagreements: int = 0

    @property
    def density(self) -> float:
        return self.disagreements / self.tests if self.tests else 0.0


@dataclass
class MiningReport:
    """Everything the stress report renders, as data."""

    model_order: List[str]
    total: int = 0
    agreeing: int = 0
    inconclusive_rows: int = 0
    signatures: Dict[str, SignatureBucket] = field(default_factory=dict)
    families: Dict[str, FamilyStats] = field(default_factory=dict)
    #: Test names where a hardware model allows what LKMM forbids.
    soundness_alerts: List[Tuple[str, str]] = field(default_factory=list)

    def ranked_signatures(self) -> List[SignatureBucket]:
        return sorted(
            self.signatures.values(),
            key=lambda b: (-b.count, b.signature),
        )

    def ranked_families(self) -> List[FamilyStats]:
        return sorted(
            self.families.values(),
            key=lambda f: (-f.density, -f.tests, f.family),
        )


def _disagrees(row: Dict[str, str]) -> bool:
    """True when the row's *decided* verdicts are not unanimous.

    ``N/A`` cells (the model cannot express the test) and
    ``Inconclusive`` cells (the budget, not the test) don't count as
    disagreement on their own.
    """
    decided = {
        v for v in row.values() if v not in (NOT_APPLICABLE, INCONCLUSIVE)
    }
    return len(decided) > 1


def mine(result: SweepResult) -> MiningReport:
    """Classify every completed row of a sweep."""
    order = [spec.name for spec in CORPUS_MODELS]
    hardware = [spec.name for spec in CORPUS_MODELS if spec.arch is not None]
    report = MiningReport(model_order=order)
    for name, row in sorted(result.matrix.items()):
        test = result.tests.get(name)
        family = test.family if test is not None else "?"
        report.total += 1
        stats = report.families.setdefault(family, FamilyStats(family))
        stats.tests += 1

        if INCONCLUSIVE in row.values():
            report.inconclusive_rows += 1
        if _disagrees(row):
            stats.disagreements += 1
        else:
            report.agreeing += 1

        signature = row_signature(row, order)
        bucket = report.signatures.setdefault(
            signature, SignatureBucket(signature)
        )
        bucket.count += 1
        if len(bucket.exemplars) < EXEMPLAR_LIMIT:
            bucket.exemplars.append(name)
        bucket.families[family] = bucket.families.get(family, 0) + 1

        if row.get(REFERENCE_MODEL) == FORBID:
            for hw in hardware:
                if row.get(hw) == ALLOW:
                    report.soundness_alerts.append((name, hw))
    return report
