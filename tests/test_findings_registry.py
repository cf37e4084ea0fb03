"""Registry-drift guard: every finding category emitted anywhere in the
analysis packages must be registered in ``findings.CATEGORIES``, every
registered category must still have an emission site, and the stable codes
must stay unique and well-formed."""

from __future__ import annotations

import re
from pathlib import Path

from repro.analysis.findings import CATEGORIES, ERROR, INFO, WARNING

ANALYSIS_ROOT = Path(__file__).parent.parent / "src" / "repro" / "analysis"
#: The condition-validity rule (LIT002–LIT004) lives with the litmus AST,
#: because the verdict path enforces it too; the linter reports its
#: categories.
CONDITION_RULE = ANALYSIS_ROOT.parent / "litmus" / "ast.py"

# The two direct emission idioms used across the analysis packages:
# the checker-local ``self._report("category", ...)`` wrappers, and
# ``Finding.of(source, "category", ...)``.
_REPORT_RE = re.compile(r'_report\(\s*"([a-z0-9-]+)"', re.S)
_OF_RE = re.compile(r'Finding\.of\(\s*[^,]+?,\s*"([a-z0-9-]+)"', re.S)

_CODE_RE = re.compile(r"^(CAT|LIT|FLOW|RCU|LOCK|DEP|RACE)\d{3}$")


def _analysis_sources():
    for path in sorted(ANALYSIS_ROOT.rglob("*.py")) + [CONDITION_RULE]:
        if path.name != "findings.py":
            yield path, path.read_text()


def emitted_categories():
    """Categories passed directly to a ``_report`` wrapper or
    ``Finding.of`` call, mapped to the files that emit them."""
    emitted = {}
    for path, text in _analysis_sources():
        for pattern in (_REPORT_RE, _OF_RE):
            for match in pattern.finditer(text):
                emitted.setdefault(match.group(1), set()).add(path.name)
    return emitted


def test_every_emitted_category_is_registered():
    for category, files in emitted_categories().items():
        assert category in CATEGORIES, (
            f"{sorted(files)} emit unregistered category '{category}'; "
            "register it in repro.analysis.findings.CATEGORIES"
        )


def test_every_registered_category_is_emitted():
    # Some categories (CAT012/CAT014) are chosen dynamically and reach
    # Finding.of through a variable, so beyond the direct-call scan we
    # accept any occurrence of the category as a string literal.
    direct = set(emitted_categories())
    for category in CATEGORIES:
        if category in direct:
            continue
        literal = f'"{category}"'
        assert any(literal in text for _, text in _analysis_sources()), (
            f"registered category '{category}' has no emission site left; "
            "remove it from CATEGORIES or restore the analysis"
        )


def test_codes_are_unique():
    codes = [code for code, _ in CATEGORIES.values()]
    assert len(codes) == len(set(codes)), (
        f"duplicate finding codes: "
        f"{sorted(c for c in codes if codes.count(c) > 1)}"
    )


def test_codes_are_well_formed():
    for category, (code, severity) in CATEGORIES.items():
        assert _CODE_RE.match(code), f"'{category}' has malformed code {code!r}"
        assert severity in (ERROR, WARNING, INFO), category


def test_semantic_analysis_codes_are_stable():
    """The codes are part of the tool's output contract (SARIF rule ids,
    suppression comments); pin the new semantic-analysis block."""
    assert CATEGORIES["dead-check"] == ("CAT011", WARNING)
    assert CATEGORIES["redundant-check"] == ("CAT012", WARNING)
    assert CATEGORIES["unreachable-binding"] == ("CAT013", WARNING)
    assert CATEGORIES["implied-acyclicity"] == ("CAT014", WARNING)
