"""Coverage reporting for the symbolic prover, as registry findings.

``repro-lint --static-verdicts`` asks one question: over the built-in
litmus library, which (test, model) cells does the critical-cycle prover
decide without enumeration, and which fall back?  The answer is emitted
through the common findings registry (:mod:`repro.analysis.findings`) so
it shares the text/JSON/SARIF pipelines with every other analysis:

* one ``static-coverage`` (LIT008, info) finding per model, summarising
  decided-Forbid / decided-Allow / unknown counts;
* one ``static-undecided`` (LIT007, info) finding per undecided cell,
  naming the test the prover could not reach — the work list for
  whoever extends the supported fragment.

Info severity throughout: coverage never gates an exit status; the
CI floor lives in ``tests/test_static_verdicts.py`` instead.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.analysis.findings import Finding
from repro.analysis.symbolic.prover import decide
from repro.cat import load_model
from repro.litmus import library

#: The golden-snapshot model battery (matches verdicts_golden.json).
GOLDEN_MODELS: Tuple[str, ...] = ("lkmm", "c11", "sc", "tso")


def library_coverage(
    model_keys: Sequence[str] = GOLDEN_MODELS,
) -> Dict[str, Dict[str, object]]:
    """Per-model static coverage over the library.

    ``{model name: {"decided_forbid": n, "decided_allow": n,
    "unknown": n, "total": n, "undecided_tests": [...]}}``.
    """
    names = sorted(library.all_names())
    coverage: Dict[str, Dict[str, object]] = {}
    for key in model_keys:
        model = load_model(key)
        forbid = allow = 0
        undecided: List[str] = []
        for test_name in names:
            decision = decide(model, library.get(test_name))
            if decision is None:
                undecided.append(test_name)
            elif decision.verdict == "Forbid":
                forbid += 1
            else:
                allow += 1
        coverage[model.name] = {
            "decided_forbid": forbid,
            "decided_allow": allow,
            "unknown": len(undecided),
            "total": len(names),
            "undecided_tests": undecided,
        }
    return coverage


def coverage_findings(
    coverage: Dict[str, Dict[str, object]],
) -> List[Finding]:
    """The coverage table rendered as registry findings."""
    findings: List[Finding] = []
    for model_name in sorted(coverage):
        row = coverage[model_name]
        decided = row["decided_forbid"] + row["decided_allow"]
        findings.append(
            Finding.of(
                model_name,
                "static-coverage",
                f"symbolic prover decides {decided}/{row['total']} library "
                f"tests ({row['decided_forbid']} Forbid, "
                f"{row['decided_allow']} Allow, {row['unknown']} unknown)",
            )
        )
        for test_name in row["undecided_tests"]:
            findings.append(
                Finding.of(
                    test_name,
                    "static-undecided",
                    f"outside the static fragment under {model_name}; "
                    "verdict needs full enumeration",
                )
            )
    return findings
