"""Render a sweep + mining pass as ``STRESS_REPORT.md``.

The report is the human-facing artefact of the data-mining programme:
a headline (corpus size, agreement rate, alert count), the verdict
matrix shape, the disagreement-signature census ranked by population,
the family leaderboard ranked by disagreement density, and — first,
when present — the soundness alerts, because a single one of those
invalidates either a mapping or a model.

Deterministic by construction: same matrix in, same bytes out (no
timestamps, no environment), so the CI artefact diffs cleanly between
runs and a report regression is a *behaviour* regression.
"""

from __future__ import annotations

from typing import Optional

from repro.corpus.mine import MiningReport
from repro.corpus.sweep import SweepResult

TITLE = "Corpus stress report"
#: Rows of the signature census and of the family leaderboard.
SIGNATURE_LIMIT = 20
FAMILY_LIMIT = 15


def _pct(part: int, whole: int) -> str:
    return f"{100.0 * part / whole:.1f}%" if whole else "n/a"


def stress_report(
    report: MiningReport, result: Optional[SweepResult] = None
) -> str:
    """The full markdown report for one mined sweep."""
    lines = [f"# {TITLE}", ""]

    disagreeing = report.total - report.agreeing
    lines += [
        "## Headline",
        "",
        f"- **Tests judged:** {report.total}"
        + (
            f" ({result.journal_skips} replayed from journal, "
            f"{result.swept} swept, {len(result.abandoned)} abandoned)"
            # A matrix rehydrated from disk has no sweep provenance.
            if result is not None
            and (result.swept or result.journal_skips or result.abandoned)
            else ""
        ),
        f"- **Models:** {', '.join(report.model_order)}",
        f"- **Full agreement:** {report.agreeing} "
        f"({_pct(report.agreeing, report.total)})",
        f"- **Disagreement:** {disagreeing} "
        f"({_pct(disagreeing, report.total)})",
        f"- **Inconclusive rows (budget):** {report.inconclusive_rows}",
        f"- **Soundness alerts:** {len(report.soundness_alerts)}",
        "",
    ]

    lines += ["## Soundness alerts", ""]
    if report.soundness_alerts:
        lines += [
            "A hardware model **allows** an outcome **LKMM forbids** — "
            "the LK→machine mapping (Table 4) or one of the models is "
            "wrong.  Investigate before trusting anything else here.",
            "",
            "| test | hardware model |",
            "| --- | --- |",
        ]
        lines += [
            f"| `{name}` | {model} |"
            for name, model in report.soundness_alerts
        ]
    else:
        lines += [
            "None: every hardware-allowed behaviour is LKMM-allowed "
            "across the corpus (the Section 5.1 soundness claim holds "
            "on this sample)."
        ]
    lines.append("")

    lines += [
        "## Disagreement signatures",
        "",
        "Tests grouped by *which* models part ways; a signature is one "
        "behavioural equivalence class of the battery.",
        "",
        "| # | signature | tests | top families | exemplars |",
        "| --- | --- | --- | --- | --- |",
    ]
    for rank, bucket in enumerate(
        report.ranked_signatures()[:SIGNATURE_LIMIT], start=1
    ):
        top_families = ", ".join(
            f"{fam} ({n})"
            for fam, n in sorted(
                bucket.families.items(), key=lambda kv: (-kv[1], kv[0])
            )[:3]
        )
        exemplars = ", ".join(f"`{n}`" for n in bucket.exemplars[:3])
        lines.append(
            f"| {rank} | `{bucket.signature}` | {bucket.count} "
            f"| {top_families} | {exemplars} |"
        )
    hidden = len(report.signatures) - SIGNATURE_LIMIT
    if hidden > 0:
        lines.append(f"| … | {hidden} more signatures | | | |")
    lines.append("")

    lines += [
        "## Family leaderboard",
        "",
        "Cycle families ranked by disagreement density — where the "
        "models disagree most per generated test.",
        "",
        "| family | tests | disagreements | density |",
        "| --- | --- | --- | --- |",
    ]
    for stats in report.ranked_families()[:FAMILY_LIMIT]:
        lines.append(
            f"| `{stats.family}` | {stats.tests} | {stats.disagreements} "
            f"| {_pct(stats.disagreements, stats.tests)} |"
        )
    lines.append("")

    if result is not None and result.abandoned:
        lines += [
            "## Abandoned (wall budget expired)",
            "",
            f"{len(result.abandoned)} tests were queued when the budget "
            "ran out; resuming with the same journal sweeps exactly "
            "these.",
            "",
        ]
        lines += [f"- `{name}`" for name in result.abandoned[:20]]
        if len(result.abandoned) > 20:
            lines.append(f"- … {len(result.abandoned) - 20} more")
        lines.append("")

    return "\n".join(lines)
