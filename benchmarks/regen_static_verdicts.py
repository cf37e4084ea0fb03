"""Regenerate the static-verdict snapshot (``tests/data/static_verdicts.json``).

The snapshot freezes what the symbolic critical-cycle prover
(:mod:`repro.analysis.symbolic`) decides for the entire built-in litmus
library under the four golden models: ``Decided-Forbid`` /
``Decided-Allow`` per statically proved cell, ``Unknown`` per fallback
cell.  ``tests/test_static_verdicts.py`` holds the matching drift test —
so a matcher or footprint change that silently *loses* coverage (or,
worse, flips a proof) fails loudly with the exact cells named.

Run after an intentional prover/fragment change, then review the diff::

    PYTHONPATH=src python benchmarks/regen_static_verdicts.py
    git diff tests/data/static_verdicts.json
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis.symbolic import decide  # noqa: E402
from repro.cat import load_model  # noqa: E402
from repro.litmus import library  # noqa: E402

SNAPSHOT_PATH = REPO_ROOT / "tests" / "data" / "static_verdicts.json"

#: cat files frozen by the snapshot, in table-column order (matches
#: tests/data/verdicts_golden.json).
MODELS = ("lkmm", "c11", "sc", "tso")

UNKNOWN = "Unknown"


def compute_table():
    models = [load_model(name) for name in MODELS]
    table = {}
    for test_name in sorted(library.all_names()):
        program = library.get(test_name)
        row = {}
        for model in models:
            decision = decide(model, program)
            row[model.name] = (
                UNKNOWN if decision is None else f"Decided-{decision.verdict}"
            )
        table[test_name] = row
    return table


def main() -> int:
    table = compute_table()
    snapshot = {
        "models": list(MODELS),
        "static": table,
    }
    SNAPSHOT_PATH.parent.mkdir(parents=True, exist_ok=True)
    SNAPSHOT_PATH.write_text(
        json.dumps(snapshot, indent=2, sort_keys=True) + "\n"
    )
    decided = sum(
        1 for row in table.values() for cell in row.values() if cell != UNKNOWN
    )
    print(
        f"wrote {len(table)} tests x {len(MODELS)} models to {SNAPSHOT_PATH} "
        f"({decided} cells decided)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
