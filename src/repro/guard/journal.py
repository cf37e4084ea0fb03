"""Sweep checkpointing: resume an interrupted verdict sweep.

A :class:`SweepJournal` is an append-only JSON-lines file; each line
records one completed (test × models) verdict row::

    {"test": "MP+wmb+rmb", "models": ["C11", "LKMM"],
     "verdicts": {"LKMM": "Forbid", "C11": "Forbid"}}

Rows are flushed (and fsync'd) as they complete, so a sweep killed
mid-flight loses at most the in-progress tests.  On reload, rows whose
model set differs from the current sweep's are ignored — a journal from a
different model mix never contaminates a resume — and a torn trailing
line (the crash arrived mid-write) is skipped rather than fatal.

At corpus scale test *names* stop being trustworthy identities: two
corpus revisions can emit a test of the same cycle name whose program
differs (a decoration change, a generator fix).  Rows may therefore carry
a ``digest`` — the canonical AST hash of the program
(:func:`repro.litmus.writer.program_digest`) — and
:meth:`SweepJournal.completed` rejects a row whose recorded digest
disagrees with the queried one, so a stale journal reruns the changed
test instead of replaying a verdict for a different program.  Every
bundled caller passes digests; rows and queries without one match by
name alone.

Only *conclusive* rows belong in a journal: an ``Inconclusive`` verdict
reflects the budget it was produced under, not the test, so callers skip
journaling it and the test reruns on resume.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Sequence


class SweepJournal:
    """Checkpointed (test × models) verdict rows for one sweep shape."""

    def __init__(self, path, model_names: Sequence[str]):
        self.path = Path(path)
        self.model_names = sorted(model_names)
        self._done: Dict[str, Dict[str, str]] = {}
        self._digests: Dict[str, str] = {}
        self._load()

    def _load(self) -> None:
        if not self.path.exists():
            return
        for line in self.path.read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn trailing line from an interrupted write
            if not isinstance(row, dict) or "test" not in row:
                continue
            if sorted(row.get("models", ())) != self.model_names:
                continue
            verdicts = row.get("verdicts")
            if isinstance(verdicts, dict):
                self._done[row["test"]] = verdicts
                digest = row.get("digest")
                if isinstance(digest, str):
                    self._digests[row["test"]] = digest
                else:
                    self._digests.pop(row["test"], None)

    # -- queries ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._done)

    def completed(
        self, test_name: str, digest: Optional[str] = None
    ) -> Optional[Dict[str, str]]:
        """The journaled verdict row for ``test_name``, if any.

        When both the query and the journaled row carry a ``digest`` they
        must agree; a mismatch means the test's *program* changed since
        the row was written, so the row is stale and the caller reruns.
        A missing digest on either side preserves name-only matching.
        """
        row = self._done.get(test_name)
        if row is None:
            return None
        recorded = self._digests.get(test_name)
        if digest is not None and recorded is not None and digest != recorded:
            return None
        return row

    def completed_names(self) -> List[str]:
        return sorted(self._done)

    # -- recording -------------------------------------------------------

    def record(
        self,
        test_name: str,
        verdicts: Dict[str, str],
        digest: Optional[str] = None,
    ) -> None:
        """Append one completed row, durably."""
        self._done[test_name] = dict(verdicts)
        entry = {
            "test": test_name,
            "models": self.model_names,
            "verdicts": verdicts,
        }
        if digest is not None:
            entry["digest"] = digest
            self._digests[test_name] = digest
        else:
            self._digests.pop(test_name, None)
        payload = json.dumps(entry, sort_keys=True)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(payload + "\n")
            handle.flush()
            os.fsync(handle.fileno())
