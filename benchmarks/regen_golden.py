"""Regenerate the golden verdict snapshot (``tests/data/verdicts_golden.json``).

The snapshot freezes :func:`repro.herd.verdicts` for the *entire* built-in
litmus library against the four cat models the paper compares — LKMM, C11,
SC and x86-TSO — so any behavioural drift in the enumerator, the cat
interpreter, or a model file fails ``tests/test_golden_verdicts.py``
loudly instead of slipping through as a "both sides changed" differential
blind spot.

Run after an *intentional* model/semantics change, then review the diff::

    PYTHONPATH=src python benchmarks/regen_golden.py
    git diff tests/data/verdicts_golden.json
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.cat import load_model  # noqa: E402
from repro.herd import verdicts  # noqa: E402
from repro.litmus import library  # noqa: E402

GOLDEN_PATH = REPO_ROOT / "tests" / "data" / "verdicts_golden.json"

#: cat files frozen by the snapshot, in table-column order.
MODELS = ("lkmm", "c11", "sc", "tso")


def compute_table():
    models = [load_model(name) for name in MODELS]
    programs = [library.get(name) for name in sorted(library.all_names())]
    return verdicts(models, programs)


def main() -> int:
    table = compute_table()
    snapshot = {
        "models": list(MODELS),
        "verdicts": table,
    }
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(
        json.dumps(snapshot, indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {len(table)} tests x {len(MODELS)} models to {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
