"""Budgets and cooperative cancellation.

One process-global :class:`Guard` (or none), armed with the :func:`guard`
context manager and mirrored into the module attribute :data:`ACTIVE` —
the same near-free disabled-path pattern as :mod:`repro.obs.core`.  Hot
loops bracket their safepoints with ``if _guard.ACTIVE:`` so an unarmed
run pays one attribute read per safepoint.

Safepoints come in two flavours:

* :meth:`Guard.tick` — one unit of exploration work (a trace combination,
  an rf×co extension step, a model check).  Ticks drive the *state*
  budget directly; every :data:`_TIME_MASK`-th tick also checks the
  wall-clock deadline and the cancellation token, and every
  :data:`_MEM_MASK`-th tick samples resident memory.  Counting ticks
  between clock reads keeps the common case at integer arithmetic.
* :meth:`Guard.note_candidate` — one fully-built candidate execution.
  Candidate counting is exact (never batched), so a ``max_candidates``
  budget trips after *precisely* that many candidates no matter the
  backend — the determinism the property tests rely on.

On exhaustion the guard raises :class:`BudgetExceeded` (or
:class:`Cancelled`) carrying an :class:`Interruption` provenance record:
which budget tripped, its limit, the observed value, and the exploration
counters at the moment of the stop.  :func:`repro.herd.run_litmus_many`
catches the stop and degrades the verdict to ``Inconclusive`` instead of
crashing — or keeps it decisive when the scanned prefix already settled
it (see DESIGN.md, "Degradation soundness").

Memory is a *soft* ceiling: resident set size is read from
``/proc/self/statm`` where available; elsewhere the guard falls back to
:mod:`tracemalloc` (started on arming when a memory budget is present and
rss sampling is unsupported).
"""

from __future__ import annotations

import os
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Optional

from repro.obs import core as _obs

#: Fast-path flag for hot loops; always equals ``_current is not None``.
ACTIVE = False

_current: Optional["Guard"] = None

#: Wall-clock/cancellation check interval: every 64 ticks.
_TIME_MASK = 0x3F
#: Memory sampling interval: every 4096 ticks.
_MEM_MASK = 0xFFF

try:
    _PAGE_BYTES = os.sysconf("SC_PAGE_SIZE")
except (ValueError, OSError, AttributeError):  # pragma: no cover
    _PAGE_BYTES = 4096


def rss_mb() -> Optional[float]:
    """Resident set size in MB, or ``None`` where /proc is unavailable.

    Falls back to :mod:`tracemalloc`'s current traced size when tracing
    is on (the guard starts it on arming if a memory budget needs it).
    """
    try:
        with open("/proc/self/statm", "rb") as handle:
            return int(handle.read().split()[1]) * _PAGE_BYTES / 1e6
    except (OSError, ValueError, IndexError):
        if tracemalloc.is_tracing():
            return tracemalloc.get_traced_memory()[0] / 1e6
        return None


@dataclass(frozen=True)
class Budget:
    """Resource limits for one verification run; ``None`` means unlimited.

    Budgets are value objects: picklable (they cross the worker-pool
    boundary so each pooled task self-limits) and reusable (each
    :class:`Guard` arms a fresh set of counters).
    """

    #: Wall-clock ceiling in seconds, measured from arming.
    wall_seconds: Optional[float] = None
    #: Maximum candidate executions materialised.
    max_candidates: Optional[int] = None
    #: Maximum exploration steps (trace combos, rf×co extensions, model
    #: checks) — bounds runs that prune heavily without yielding.
    max_states: Optional[int] = None
    #: Soft resident-memory ceiling in MB, sampled at safepoints.
    max_mem_mb: Optional[float] = None

    def bounded(self) -> bool:
        """True when any limit is set."""
        return any(
            limit is not None
            for limit in (
                self.wall_seconds,
                self.max_candidates,
                self.max_states,
                self.max_mem_mb,
            )
        )

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


@dataclass
class Interruption:
    """Provenance of a budget trip: what stopped the run, and where.

    Shipped inside partial :class:`~repro.herd.RunResult` objects (and
    therefore across process boundaries), so it stays a plain picklable
    record.
    """

    #: ``wall_clock`` | ``candidates`` | ``states`` | ``memory`` |
    #: ``cancelled``.
    reason: str
    #: The limit that tripped (seconds, count, or MB); None for cancels.
    limit: Optional[float] = None
    #: The observed value at the trip.
    observed: Optional[float] = None
    #: Candidate executions explored before the stop.
    candidates: int = 0
    #: Exploration steps (ticks) before the stop.
    states: int = 0
    #: Wall-clock seconds elapsed when the guard stopped the run.
    elapsed_s: float = 0.0

    def describe(self) -> str:
        detail = ""
        if self.limit is not None:
            detail = f" (limit {self.limit:g}, observed {self.observed:g})"
        return (
            f"{self.reason}{detail} after {self.candidates} candidates, "
            f"{self.states} steps, {self.elapsed_s:.2f}s"
        )

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


class GuardStop(Exception):
    """Base of the cooperative-stop exceptions; carries provenance."""

    def __init__(self, interruption: Interruption):
        super().__init__(interruption.describe())
        self.interruption = interruption


class BudgetExceeded(GuardStop):
    """A budget limit tripped at a safepoint."""


class Cancelled(GuardStop):
    """The run's :class:`CancelToken` was cancelled."""


class CancelToken:
    """A cooperative cancellation flag, checked at guard safepoints.

    Thread- and signal-safe in the only way that matters: ``cancel()``
    does a single attribute store, and readers only ever observe a
    monotonic False→True transition.
    """

    __slots__ = ("cancelled",)

    def __init__(self) -> None:
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class Guard:
    """Live budget enforcement for one run."""

    __slots__ = (
        "budget",
        "token",
        "candidates",
        "states",
        "_ticks",
        "_start",
        "_deadline",
        "_started_tracemalloc",
    )

    def __init__(
        self,
        budget: Optional[Budget] = None,
        token: Optional[CancelToken] = None,
    ):
        self.budget = budget if budget is not None else Budget()
        self.token = token
        self.candidates = 0
        self.states = 0
        self._ticks = 0
        self._start = time.perf_counter()
        self._deadline = (
            None
            if self.budget.wall_seconds is None
            else self._start + self.budget.wall_seconds
        )
        self._started_tracemalloc = False
        if self.budget.max_mem_mb is not None and rss_mb() is None:
            # No /proc rss on this platform: fall back to tracemalloc.
            if not tracemalloc.is_tracing():  # pragma: no cover - non-linux
                tracemalloc.start()
                self._started_tracemalloc = True

    # -- safepoints ------------------------------------------------------

    def tick(self, n: int = 1) -> None:
        """One (or ``n``) exploration steps; the cheap safepoint."""
        self.states += n
        budget = self.budget
        if budget.max_states is not None and self.states > budget.max_states:
            self._stop("states", budget.max_states, self.states)
        self._ticks += 1
        if self._ticks & _TIME_MASK == 0:
            self._check_clock()
            if self._ticks & _MEM_MASK == 0:
                self._check_memory()

    def note_candidate(self) -> None:
        """One materialised candidate execution; counted exactly."""
        self.candidates += 1
        budget = self.budget
        if (
            budget.max_candidates is not None
            and self.candidates > budget.max_candidates
        ):
            self._stop("candidates", budget.max_candidates, self.candidates)
        self.tick()

    def check(self) -> None:
        """An eager full check (clock, token, memory) — used at run entry
        so an already-cancelled token or blown deadline stops before any
        enumeration work."""
        self._check_clock()
        self._check_memory()

    # -- internals -------------------------------------------------------

    def elapsed(self) -> float:
        return time.perf_counter() - self._start

    def _check_clock(self) -> None:
        token = self.token
        if token is not None and token.cancelled:
            raise Cancelled(self._interruption("cancelled", None, None))
        if self._deadline is not None:
            now = time.perf_counter()
            if now > self._deadline:
                self._stop(
                    "wall_clock", self.budget.wall_seconds, now - self._start
                )

    def _check_memory(self) -> None:
        ceiling = self.budget.max_mem_mb
        if ceiling is None:
            return
        resident = rss_mb()
        if resident is not None and resident > ceiling:
            self._stop("memory", ceiling, resident)

    def _interruption(
        self, reason: str, limit: Optional[float], observed: Optional[float]
    ) -> Interruption:
        return Interruption(
            reason=reason,
            limit=limit,
            observed=observed,
            candidates=self.candidates,
            states=self.states,
            elapsed_s=self.elapsed(),
        )

    def _stop(
        self, reason: str, limit: Optional[float], observed: Optional[float]
    ) -> None:
        if _obs.ENABLED:
            _obs.count(f"guard.tripped.{reason}")
        raise BudgetExceeded(self._interruption(reason, limit, observed))

    def release(self) -> None:
        """Undo arming side effects (tracemalloc started on our behalf)."""
        if self._started_tracemalloc:  # pragma: no cover - non-linux
            tracemalloc.stop()
            self._started_tracemalloc = False


def current() -> Optional[Guard]:
    """The armed guard, if any."""
    return _current


def disarm() -> None:
    """Drop the armed guard without resuming an outer one.

    For a forked pool worker, which inherits whatever guard the parent
    had armed at the fork and must run each task under only the budget
    forwarded with it.
    """
    global _current, ACTIVE
    _current = None
    ACTIVE = False


def tick(n: int = 1) -> None:
    """Module-level safepoint (no-op when no guard is armed)."""
    active = _current
    if active is not None:
        active.tick(n)


def note_candidate() -> None:
    """Module-level candidate safepoint (no-op when unarmed)."""
    active = _current
    if active is not None:
        active.note_candidate()


@contextmanager
def guard(
    budget: Optional[Budget] = None, token: Optional[CancelToken] = None
):
    """Arm a :class:`Guard` for the duration of the block.

    Nested guards shadow the outer one (the outer guard resumes, with its
    clock still running, when the inner block exits) — mirroring
    :func:`repro.obs.collect`.
    """
    global _current, ACTIVE
    previous = _current
    armed = Guard(budget, token)
    _current = armed
    ACTIVE = True
    try:
        yield armed
    finally:
        _current = previous
        ACTIVE = previous is not None
        armed.release()
