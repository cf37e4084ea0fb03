"""Per-trace shared state: the trace-invariant half of candidate executions.

Enumeration (herd's structure) fixes the events and the base relations
``po``/``addr``/``data``/``ctrl``/``rmw`` once per *trace combination* and
then sweeps the rf×co witness space.  Everything derivable from those
alone — ``loc``, ``int``, ``ext``, ``id``, ``po-loc``, the tag sets,
``crit``, the fence relations of the LK model, and the VM prelude of a
lowered cat model (its rf/co-independent registers) — is therefore
identical across all candidates of one combination.

A :class:`TraceSkeleton` is a small memo table attached to every candidate
of one combination: the first candidate computes each invariant value, the
rest reuse it.  Model layers opt in through
:meth:`repro.executions.candidate.CandidateExecution.shared_memo`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict

from repro.obs import core as _obs


class TraceSkeleton:
    """Memo table shared by all rf×co candidates of one trace combination."""

    __slots__ = ("universe", "_memo", "vm_state")

    def __init__(self, universe: frozenset):
        self.universe = universe
        self._memo: Dict[Any, Any] = {}
        #: State of :mod:`repro.kernel.vm`: program token -> prelude state
        #: (the trace-invariant register file, shared by reference with
        #: every sibling candidate, plus the pre-judged invariant checks),
        #: and base name -> raw base value, shared by every program.
        self.vm_state: Dict[Any, Any] = {}

    def memo(self, key: Any, compute: Callable[[], Any]) -> Any:
        try:
            value = self._memo[key]
        except KeyError:
            if _obs.ENABLED:
                _obs.count("skeleton.memo_miss")
            value = compute()
            self._memo[key] = value
            return value
        if _obs.ENABLED:
            _obs.count("skeleton.memo_hit")
        return value

    def seed(self, key: Any, value: Any) -> None:
        """Pre-populate a memo entry (used by the enumerator, which has
        already built some invariant relations)."""
        self._memo.setdefault(key, value)
