"""In-memory span recorder for the traced benchmark run.

Each layer's public entry points are rebound from outside (see
``LAYER_CALLS``): the wrapper opens a span named after the layer, calls
the original and closes the span.  Where a caller imported a function by
name, the name is rebound at the place it is looked up, e.g.
``repro.analysis.symbolic.prover.violated_check``.

Untraced processes install a count-only tracer: it wraps just the entry
points in ``FINGERPRINT``, reads no clock and records no span, so the
work fingerprint is printed by every run at the cost of a dict update
per call.

Installing imports the modules it wraps.  A job that never loads the
prover installs with ``prover=False``: its wrappers are skipped, so the
tracer adds no import to the job's set-up, and the job can check that
the prover stayed unloaded.

A span is kept as ``[name, start, end, parent, self_s, outermost]``:
``parent`` is the index of the enclosing span (``-1`` for none),
``self_s`` the duration minus the time its child spans cover, and
``outermost`` is false for a span nested inside one of the same name, so
summing the durations of outermost spans never counts time twice.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from typing import Any, Callable, Dict, List

PROVER = "repro.analysis.symbolic.prover"

#: (module, attribute, span name, wrapper kind).  ``Class.method``
#: attributes are rebound on the class.  Kinds: ``call`` times one call,
#: ``generator`` times every resumption of the returned generator, and
#: the named kinds also count the work the call did (see ``_HOOKS``).
LAYER_CALLS = (
    (PROVER, "decide", "symbolic.decide", "decide"),
    (PROVER, "violated_check", "symbolic.match", "call"),
    (PROVER, "_find_witness", "symbolic.witness", "call"),
    (PROVER, "extract_skeleton", "symbolic.skeleton", "call"),
    (PROVER, "resolve_footprint", "symbolic.footprint", "call"),
    (PROVER, "guaranteed_edges", "symbolic.footprint", "call"),
    (PROVER, "scenarios", "symbolic.footprint", "call"),
    ("repro.herd", "candidate_executions_sharded", "executions.candidates", "generator"),
    ("repro.executions.enumerate", "_executions_of_traces", "executions.traces", "generator"),
    ("repro.cat.eval", "CatModel.allows", "model.check", "allows"),
    ("repro.lkmm.model", "LinuxKernelModel.allows", "model.check", "allows"),
    ("repro.corpus.sweep", "verdict_row", "herd.verdict_row", "call"),
    ("repro.herd", "run_litmus_many", "herd.run_litmus_many", "call"),
    ("repro.hardware.opsim", "OperationalSimulator.sample", "hardware.opsim", "sample"),
    ("repro.corpus.sweep", "compile_program", "hardware.compile", "call"),
    ("repro.hardware.klitmus", "compile_program", "hardware.compile", "call"),
    ("repro.rcu.implementation", "inline_rcu", "rcu.inline", "call"),
    ("repro.corpus.generate", "parse_litmus", "litmus.parse", "call"),
    ("repro.corpus.sweep", "parse_litmus", "litmus.parse", "call"),
    ("repro.litmus.library", "parse_litmus", "litmus.parse", "call"),
    ("repro.cat.eval", "load_model", "cat.load", "call"),
    ("repro.corpus.sweep", "load_model", "cat.load", "call"),
    ("repro.corpus.sweep", "sweep_row", "corpus.sweep_row", "call"),
    ("repro.corpus.sweep", "sweep_corpus", "corpus.sweep_corpus", "call"),
    ("repro.kernel.parallel", "fault_tolerant_map", "parallel.map", "call"),
)

#: Span names a count-only tracer wraps: the work fingerprint.
FINGERPRINT = frozenset({
    "symbolic.decide", "symbolic.match", "executions.candidates", "hardware.opsim",
})


class Tracer:
    """Spans (when ``timed``) and work counters of one process."""

    def __init__(self, timed: bool = True) -> None:
        self.timed = timed
        self.reset()

    def reset(self) -> None:
        self.pid = os.getpid()
        self.spans: List[list] = []
        self.counts: Dict[str, int] = {}
        self._stack: List[int] = []
        self._covered: List[float] = []

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def parent_name(self) -> str:
        return self.spans[self._stack[-1]][0] if self._stack else ""

    def enter(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        outermost = all(self.spans[i][0] != name for i in self._stack)
        self._stack.append(len(self.spans))
        self._covered.append(0.0)
        self.spans.append([name, time.perf_counter(), 0.0, parent, 0.0, outermost])

    def exit(self) -> None:
        end = time.perf_counter()
        span = self.spans[self._stack.pop()]
        covered = self._covered.pop()
        span[2] = end
        span[4] = end - span[1] - covered
        if self._covered:
            self._covered[-1] += end - span[1]

    def drain(self) -> Dict[str, Any]:
        """This process's spans and counts so far; starts afresh."""
        data = {"pid": self.pid, "spans": self.spans, "counts": self.counts}
        self.spans, self.counts = [], {}
        return data

    # -- wrappers ----------------------------------------------------------

    def timed_call(self, name: str, fn: Callable, hook=None) -> Callable:
        calls = f"{name}:calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(calls)
            if not self.timed:
                result = fn(*args, **kwargs)
            else:
                self.enter(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.exit()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    def timed_generator(self, name: str, fn: Callable) -> Callable:
        items = f"{name}:items"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(f"{name}:calls<{self.parent_name()}")
            inner = fn(*args, **kwargs)
            if not self.timed:
                for item in inner:
                    self.count(items)
                    yield item
                return
            try:
                while True:
                    self.enter(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self.exit()
                    self.count(items)
                    yield item
            finally:
                inner.close()

        return wrapper

    def install(self, prover: bool = True) -> None:
        """Rebind the entry points in ``LAYER_CALLS`` to wrappers: all of
        them when timed, only the ``FINGERPRINT`` ones when counting, and
        none of the prover's unless ``prover``."""
        for module_name, attribute, name, kind in LAYER_CALLS:
            if not (self.timed or name in FINGERPRINT):
                continue
            if module_name == PROVER and not prover:
                continue
            owner = importlib.import_module(module_name)
            *path, leaf = attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            if kind == "generator":
                wrapped = self.timed_generator(name, original)
            else:
                wrapped = self.timed_call(name, original, _HOOKS.get(kind))
            setattr(owner, leaf, wrapped)


def _count_decision(tracer: Tracer, args, kwargs, decision) -> None:
    if decision is None:
        tracer.count("symbolic.fallback")
        return
    tracer.count("symbolic.decided")
    if decision.reason == "witness-confirmed":
        tracer.count("symbolic.witness_confirmed")


def _count_allowed(tracer: Tracer, args, kwargs, allowed) -> None:
    if allowed:
        tracer.count("model.allowed")


def _count_runs(tracer: Tracer, args, kwargs, histogram) -> None:
    tracer.count("hardware.opsim_runs", sum(histogram.values()))


_HOOKS = {
    "decide": _count_decision,
    "allows": _count_allowed,
    "sample": _count_runs,
}


# -- aggregation -------------------------------------------------------------


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def summarise(spans: List[list]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, outermost ``total_s`` and ``self_s``."""
    out: Dict[str, Dict[str, float]] = {}
    for name, start, end, _parent, self_s, outermost in spans:
        entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += self_s
        if outermost:
            entry["total_s"] += end - start
    return out


def layer_metrics(
    spans: List[list],
    counts: Dict[str, int],
    parent_spans: List[list],
    job_start: float,
    wall_s: float,
    parent_cpu_s: float,
    worker_cpu_s: float,
) -> Dict[str, float]:
    """The per-layer metrics of one traced job.

    ``spans`` and ``counts`` cover every process (pool workers included);
    ``unattributed_frac`` is taken on this process's timeline only: the
    job's wall time not covered by the self time of a span it opened.
    """
    by_name = summarise(spans)

    def total(name: str) -> float:
        return by_name.get(name, {}).get("total_s", 0.0)

    def calls(name: str) -> int:
        return counts.get(f"{name}:calls", 0)

    def layer_self(layer: str) -> float:
        return sum(v["self_s"] for k, v in by_name.items() if layer_of(k) == layer)

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    decided = counts.get("symbolic.decided", 0)
    check_calls = calls("model.check")
    attributed = sum(span[4] for span in parent_spans if span[1] >= job_start)
    return {
        "symbolic.decide_s": total("symbolic.decide"),
        "symbolic.decide_calls": calls("symbolic.decide"),
        "symbolic.match_s": total("symbolic.match"),
        "symbolic.match_calls": calls("symbolic.match"),
        "symbolic.witness_s": total("symbolic.witness"),
        "symbolic.skeleton_s": total("symbolic.skeleton"),
        "symbolic.footprint_s": total("symbolic.footprint"),
        "symbolic.self_s": layer_self("symbolic"),
        "symbolic.decided_frac": ratio(decided, calls("symbolic.decide")),
        "symbolic.witness_frac": ratio(counts.get("symbolic.witness_confirmed", 0), decided),
        "executions.enumerate_s": layer_self("executions"),
        "executions.candidates": counts.get("executions.candidates:items", 0),
        "executions.trace_combos": counts.get(
            "executions.traces:calls<executions.candidates", 0
        ),
        "model.check_s": layer_self("model"),
        "model.check_calls": check_calls,
        "model.allowed_frac": ratio(counts.get("model.allowed", 0), check_calls),
        "herd.self_s": layer_self("herd"),
        "hardware.opsim_s": total("hardware.opsim"),
        "hardware.opsim_runs": counts.get("hardware.opsim_runs", 0),
        "hardware.compile_s": total("hardware.compile"),
        "hardware.compile_calls": calls("hardware.compile"),
        "rcu.inline_s": total("rcu.inline"),
        "litmus.parse_s": total("litmus.parse"),
        "cat.load_s": total("cat.load"),
        "corpus.self_s": layer_self("corpus"),
        "parallel.self_s": layer_self("parallel"),
        "parallel.parent_cpu_s": parent_cpu_s,
        "parallel.worker_cpu_s": worker_cpu_s,
        "parallel.busy_frac": ratio(worker_cpu_s, 2 * wall_s),
        "unattributed_frac": ratio(wall_s - attributed, wall_s),
    }


def work_counts(counts: Dict[str, int]) -> Dict[str, int]:
    """The work fingerprint: exact counts that repeat between runs doing
    the same work, whatever the host's speed, traced or not."""
    return {
        "symbolic.decide_calls": counts.get("symbolic.decide:calls", 0),
        "symbolic.decided": counts.get("symbolic.decided", 0),
        "symbolic.fallback": counts.get("symbolic.fallback", 0),
        "symbolic.match_calls": counts.get("symbolic.match:calls", 0),
        "executions.candidates": counts.get("executions.candidates:items", 0),
        "hardware.opsim_runs": counts.get("hardware.opsim_runs", 0),
    }
