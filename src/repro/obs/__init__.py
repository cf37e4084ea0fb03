"""repro.obs — observability across the enumeration/evaluation stack.

"Herding Cats"-style simulation tooling is only trustworthy when its
search behaviour is visible; this package makes the package's invisible
counting exercises observable:

* **spans** — ``with obs.span("enumerate.thread_traces"): ...`` times a
  region; spans nest (contextvar-tracked), always balance (exceptions
  included), and aggregate flat-by-name into (count, total, max) triples;
* **counters / gauges** — ``obs.count("enumerate.candidates")`` tallies
  the search: candidates enumerated vs pruned, cache hits vs misses,
  model checks, axiom violations, and production checks that fell back
  from the bytecode VM to the statement walker because the IR compiler
  rejects the model (``cat.fallback.unlowerable``);
* **RunReport** — the serialisable summary, mergeable across
  :mod:`repro.kernel.parallel` workers, exported as a human ``--profile``
  table or ``--trace-json`` JSON.

Everything is off by default and near-free when off: instrument first,
pay only when a :func:`collect` block is active.

Usage::

    from repro import obs

    with obs.collect() as collector:
        run_litmus(model, program)
    print(collector.report().format_profile())
"""

from repro.obs.core import (
    Collector,
    absorb,
    active_spans,
    collect,
    count,
    current,
    enabled,
    gauge,
    span,
)
from repro.obs.report import RunReport, SpanStat

__all__ = [
    "Collector",
    "RunReport",
    "SpanStat",
    "absorb",
    "active_spans",
    "collect",
    "count",
    "current",
    "enabled",
    "gauge",
    "span",
]
