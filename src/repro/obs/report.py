"""The reporting half of :mod:`repro.obs`: :class:`RunReport` and exporters.

A :class:`RunReport` is the frozen, serialisable summary of one observed
run: named counters, gauges, aggregated span timings, and (optionally) the
raw span trace.  Reports merge associatively — pool workers produce one
each and the parent folds them together — which is what makes the
"serial totals == merged parallel totals" property of the counters
testable (``tests/test_obs.py``).

JSON schema (``repro-herd --trace-json``)::

    {
      "counters": {"enumerate.candidates": 96, ...},
      "gauges":   {"herd.jobs": 2, ...},
      "spans":    {"herd.run": {"count": 1, "total_s": 0.01, "max_s": 0.01},
                   ...},
      "trace":    [{"name": "model.LKMM", "start_s": 0.0012,
                    "duration_s": 0.0003, "depth": 2, "parent": "herd.run"},
                   ...]
    }
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List


class SpanStat:
    """Aggregated statistics of one span name."""

    __slots__ = ("count", "total_s", "max_s")

    def __init__(self, count: int = 0, total_s: float = 0.0, max_s: float = 0.0):
        self.count = count
        self.total_s = total_s
        self.max_s = max_s

    def as_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "total_s": self.total_s,
            "max_s": self.max_s,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SpanStat n={self.count} total={self.total_s:.6f}s>"


@dataclass
class RunReport:
    """The serialisable outcome of one observed run."""

    counters: Dict[str, int] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    #: span name -> {"count", "total_s", "max_s"}.
    spans: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: Raw span events (only populated when tracing was requested).
    trace: List[Dict[str, Any]] = field(default_factory=list)

    # -- merging ---------------------------------------------------------

    def merge(self, other: "RunReport") -> "RunReport":
        """Fold ``other`` into this report (in place; returns self)."""
        for name, n in other.counters.items():
            self.counters[name] = self.counters.get(name, 0) + n
        self.gauges.update(other.gauges)
        for name, stat in other.spans.items():
            mine = self.spans.get(name)
            if mine is None:
                self.spans[name] = dict(stat)
            else:
                mine["count"] += stat["count"]
                mine["total_s"] += stat["total_s"]
                mine["max_s"] = max(mine["max_s"], stat["max_s"])
        self.trace.extend(other.trace)
        return self

    # -- (de)serialisation ----------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "spans": {name: dict(stat) for name, stat in self.spans.items()},
            "trace": list(self.trace),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunReport":
        return cls(
            counters=dict(data.get("counters", {})),
            gauges=dict(data.get("gauges", {})),
            spans={k: dict(v) for k, v in data.get("spans", {}).items()},
            trace=list(data.get("trace", ())),
        )

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        return cls.from_dict(json.loads(text))

    # -- human output ----------------------------------------------------

    def format_profile(self) -> str:
        """The ``--profile`` table: spans by total time, then counters."""
        lines: List[str] = []
        if self.spans:
            rows = sorted(
                self.spans.items(), key=lambda kv: -kv[1]["total_s"]
            )
            name_w = max(len("span"), *(len(name) for name, _ in rows))
            lines.append("Profile (spans, by total time)")
            header = (
                f"  {'span'.ljust(name_w)}  {'calls':>8}  "
                f"{'total (s)':>10}  {'mean (ms)':>10}  {'max (ms)':>10}"
            )
            lines.append(header)
            lines.append("  " + "-" * (len(header) - 2))
            for name, stat in rows:
                calls = int(stat["count"])
                mean_ms = (
                    stat["total_s"] / calls * 1000.0 if calls else 0.0
                )
                lines.append(
                    f"  {name.ljust(name_w)}  {calls:>8d}  "
                    f"{stat['total_s']:>10.4f}  {mean_ms:>10.4f}  "
                    f"{stat['max_s'] * 1000.0:>10.4f}"
                )
        if self.counters:
            if lines:
                lines.append("")
            lines.append("Counters")
            name_w = max(len(name) for name in self.counters)
            for name in sorted(self.counters):
                lines.append(
                    f"  {name.ljust(name_w)}  {self.counters[name]:>12d}"
                )
        if self.gauges:
            lines.append("")
            lines.append("Gauges")
            name_w = max(len(name) for name in self.gauges)
            for name in sorted(self.gauges):
                lines.append(f"  {name.ljust(name_w)}  {self.gauges[name]}")
        return "\n".join(lines) if lines else "(no observations recorded)"
