"""The common finding type shared by the static-analysis passes.

Every pass (:mod:`repro.analysis.catlint`, :mod:`repro.analysis.litmuslint`,
:mod:`repro.analysis.flow.checkers`, :mod:`repro.analysis.races`) reports
its results as a list of :class:`Finding` so the ``repro-lint`` driver can
print, count, and serialise them uniformly.

Each finding category has a *stable code* (``RCU001``-style) and a default
*severity* registered in :data:`CATEGORIES`; the driver exits non-zero only
when an ``error``-severity finding is present, so heuristic or advisory
checks (severity ``warning``) never gate CI on their own.  Codes are part
of the tool's output contract — they are frozen by the golden snapshot in
``tests/data/lint_golden.json`` and must never be reused for a different
check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

#: Severity levels, in increasing order of badness.
INFO = "info"
WARNING = "warning"
ERROR = "error"

_SEVERITIES = (INFO, WARNING, ERROR)

#: category -> (stable code, default severity).  ``CAT*`` codes cover cat
#: models, ``LIT*`` the syntactic litmus lint, ``FLOW*`` the dataflow
#: lint, ``RCU*``/``LOCK*``/``DEP*`` the path-sensitive checkers, and
#: ``RACE*`` the execution-level race detector.
CATEGORIES: Dict[str, Tuple[str, str]] = {
    # cat-model lint (repro.analysis.catlint)
    "undefined-identifier": ("CAT001", ERROR),
    "unknown-base-set": ("CAT002", ERROR),
    "undefined-function": ("CAT003", ERROR),
    "unused-binding": ("CAT004", WARNING),
    "shadowing": ("CAT005", WARNING),
    "duplicate-check-name": ("CAT006", WARNING),
    "duplicate-include": ("CAT007", WARNING),
    "missing-include": ("CAT008", ERROR),
    "sort-mismatch": ("CAT009", ERROR),
    "empty-intersection": ("CAT010", WARNING),
    # semantic cat-model analyses (repro.analysis.catir.analyses)
    "dead-check": ("CAT011", WARNING),
    "redundant-check": ("CAT012", WARNING),
    "unreachable-binding": ("CAT013", WARNING),
    "implied-acyclicity": ("CAT014", WARNING),
    # syntactic litmus lint (repro.analysis.litmuslint)
    "uninitialized-read": ("LIT001", ERROR),
    "condition-unknown-register": ("LIT002", ERROR),
    "condition-unknown-thread": ("LIT003", ERROR),
    "condition-unknown-location": ("LIT004", ERROR),
    "plain-race": ("LIT005", WARNING),
    "dangling-fence": ("LIT006", WARNING),
    # dataflow lint (repro.analysis.flow.checkers)
    "uninit-register-read": ("FLOW001", ERROR),
    "dead-store": ("FLOW002", WARNING),
    # RCU read-side discipline
    "rcu-unbalanced": ("RCU001", ERROR),
    "rcu-sync-in-critical-section": ("RCU002", ERROR),
    "rcu-over-nesting": ("RCU003", WARNING),
    # spinlock discipline (the paper's Section 7 Rmw/CmpXchg encoding)
    "double-lock": ("LOCK001", ERROR),
    "unlock-without-lock": ("LOCK002", WARNING),
    "lock-held-at-exit": ("LOCK003", WARNING),
    # fragile syntactic dependencies
    "fragile-dependency": ("DEP001", WARNING),
    "constant-condition": ("DEP002", WARNING),
    # execution-level data races (repro.analysis.races)
    "data-race": ("RACE001", ERROR),
    # symbolic critical-cycle prover coverage (repro.analysis.symbolic)
    "static-undecided": ("LIT007", INFO),
    "static-coverage": ("LIT008", INFO),
}


@dataclass(frozen=True)
class Finding:
    """One static-analysis finding.

    Attributes:
        source: What was analysed — a cat model name, a litmus test name,
            or a file path.
        category: A stable machine-readable category such as
            ``undefined-identifier`` or ``rcu-unbalanced``.
        message: The human-readable description.
        code: The stable short code (``RCU001``); derived from
            :data:`CATEGORIES` when constructed via :meth:`of`.
        severity: ``error`` | ``warning`` | ``info``.
        line: 1-based source line of the offending construct, when known
            (litmus instructions carry the line the parser saw them on).
    """

    source: str
    category: str
    message: str
    code: str = "GEN000"
    severity: str = ERROR
    line: Optional[int] = None

    @classmethod
    def of(
        cls,
        source: str,
        category: str,
        message: str,
        line: Optional[int] = None,
        severity: Optional[str] = None,
    ) -> "Finding":
        """Build a finding, looking up code and default severity from the
        category registry.  An unregistered category is a programming
        error (it would silently float outside the output contract)."""
        try:
            code, default_severity = CATEGORIES[category]
        except KeyError:
            raise ValueError(f"unregistered finding category {category!r}") from None
        severity = severity if severity is not None else default_severity
        if severity not in _SEVERITIES:
            raise ValueError(f"unknown severity {severity!r}")
        return cls(source, category, message, code, severity, line)

    @property
    def is_error(self) -> bool:
        return self.severity == ERROR

    @property
    def location(self) -> str:
        """``source`` or ``source:line`` when the line is known."""
        if self.line is None:
            return self.source
        return f"{self.source}:{self.line}"

    def describe(self) -> str:
        return (
            f"{self.location}: {self.severity} {self.code} "
            f"{self.category}: {self.message}"
        )

    def to_dict(self) -> Dict[str, object]:
        """A JSON-ready dict (used by ``repro-lint --format json``)."""
        return {
            "source": self.source,
            "line": self.line,
            "code": self.code,
            "severity": self.severity,
            "category": self.category,
            "message": self.message,
        }

    def __str__(self) -> str:  # pragma: no cover - convenience alias
        return self.describe()


def describe_findings(findings: Iterable[Finding]) -> str:
    """Render findings one per line (used by tests and the CLI)."""
    return "\n".join(f.describe() for f in findings)


def count_errors(findings: Iterable[Finding]) -> int:
    """How many findings are ``error`` severity (the CI-gating count)."""
    return sum(1 for f in findings if f.is_error)


def findings_to_json(findings: Iterable[Finding]) -> str:
    """Findings as a JSON document (``repro-lint --format json``)."""
    import json

    items = [f.to_dict() for f in findings]
    return json.dumps(
        {
            "findings": items,
            "counts": {
                severity: sum(1 for f in items if f["severity"] == severity)
                for severity in _SEVERITIES
            },
        },
        indent=2,
    )


#: SARIF's level vocabulary ("note", not "info").
_SARIF_LEVELS = {INFO: "note", WARNING: "warning", ERROR: "error"}


def findings_to_sarif(findings: Iterable[Finding]) -> str:
    """Findings as minimal SARIF 2.1.0 (``repro-lint --format sarif``),
    enough for code-scanning UIs: one rule per category, one result per
    finding, the source name as the artifact URI."""
    import json

    findings = list(findings)
    rules = sorted({(f.code, f.category) for f in findings})
    results = []
    for f in findings:
        location: Dict[str, object] = {
            "artifactLocation": {"uri": f.source}
        }
        if f.line is not None:
            location["region"] = {"startLine": f.line}
        results.append(
            {
                "ruleId": f.code,
                "level": _SARIF_LEVELS[f.severity],
                "message": {"text": f.message},
                "locations": [{"physicalLocation": location}],
            }
        )
    return json.dumps(
        {
            "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
            "version": "2.1.0",
            "runs": [
                {
                    "tool": {
                        "driver": {
                            "name": "repro-lint",
                            "rules": [
                                {
                                    "id": code,
                                    "name": category,
                                    "defaultConfiguration": {
                                        "level": _SARIF_LEVELS[
                                            CATEGORIES[category][1]
                                        ]
                                    },
                                }
                                for code, category in rules
                            ],
                        }
                    },
                    "results": results,
                }
            ],
        },
        indent=2,
    )
