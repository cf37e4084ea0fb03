"""The candidate-execution data structure.

A candidate execution (Section 2 of the paper) is a graph: events as nodes,
and the base relations ``po``, ``addr``, ``data``, ``ctrl``, ``rmw``
(abstract execution) plus ``rf`` and ``co`` (execution witness) as edges.
Derived relations that "often appear in cat models" — ``fr``, ``com``,
``po-loc``, ``rfi``/``rfe``, ``coi``/``coe``, ``fri``/``fre`` — are provided
as cached properties, mirroring the definitions given in the paper.

Only ``rf`` and ``co`` (and their derivatives) vary between the candidates
of one trace combination; everything else — the events, the base
relations, ``loc``/``int``/``ext``/``id``, ``po-loc``, the tag sets — is
*trace-invariant*.  The enumerator attaches one
:class:`repro.kernel.skeleton.TraceSkeleton` to all candidates of a
combination, and the invariant cached properties are memoised there: the
first candidate computes each value, the rest reuse it.  Model layers can
join in via :meth:`shared_memo`.
"""

from __future__ import annotations

from functools import cached_property
from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.events import Event, FENCE, READ, WRITE
from repro.kernel import config as _config
from repro.kernel.bitrel import index_for
from repro.kernel.skeleton import TraceSkeleton
from repro.litmus.outcomes import FinalState
from repro.relations import EventSet, Relation

#: Core constructor attributes (everything else in ``__dict__`` is a cache).
_CORE_ATTRS = (
    "events",
    "universe",
    "po",
    "addr",
    "data",
    "ctrl",
    "rmw",
    "rf",
    "co",
    "final_regs",
    "name",
)


class CandidateExecution:
    """One candidate execution of a litmus test."""

    def __init__(
        self,
        events: Iterable[Event],
        po: Relation,
        addr: Relation,
        data: Relation,
        ctrl: Relation,
        rmw: Relation,
        rf: Relation,
        co: Relation,
        final_regs: Optional[Dict[Tuple[int, str], object]] = None,
        name: str = "",
        shared: Optional[TraceSkeleton] = None,
    ):
        self.events: FrozenSet[Event] = frozenset(events)
        self.universe = self.events
        self.po = po
        self.addr = addr
        self.data = data
        self.ctrl = ctrl
        self.rmw = rmw
        self.rf = rf
        self.co = co
        self.final_regs = dict(final_regs or {})
        self.name = name
        self._shared = shared

    def shared_memo(self, key: Any, compute: Callable[[], Any]) -> Any:
        """Memoise a trace-invariant value on the shared skeleton.

        When no skeleton is attached (incremental checking disabled, or a
        hand-built execution), this simply calls ``compute``.  Callers must
        only use it for values fully determined by the events and the base
        relations — never anything derived from ``rf`` or ``co``.
        """
        if self._shared is None:
            return compute()
        return self._shared.memo(key, compute)

    def __getstate__(self):
        # Drop the shared skeleton (it aggregates caches across sibling
        # candidates) and every memoised property; both are recomputable.
        return {k: self.__dict__[k] for k in _CORE_ATTRS}

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._shared = None

    # -- event sets -----------------------------------------------------

    def event_set(self, events: Iterable[Event]) -> EventSet:
        return EventSet(events, self.universe)

    @cached_property
    def all_events(self) -> EventSet:
        """The cat ``_`` set."""
        return self.shared_memo(
            "all_events", lambda: self.event_set(self.events)
        )

    @cached_property
    def reads(self) -> EventSet:
        """The cat ``R`` set."""
        return self.shared_memo(
            "reads",
            lambda: self.event_set(e for e in self.events if e.kind == READ),
        )

    @cached_property
    def writes(self) -> EventSet:
        """The cat ``W`` set."""
        return self.shared_memo(
            "writes",
            lambda: self.event_set(e for e in self.events if e.kind == WRITE),
        )

    @cached_property
    def fences(self) -> EventSet:
        """The cat ``F`` set."""
        return self.shared_memo(
            "fences",
            lambda: self.event_set(e for e in self.events if e.kind == FENCE),
        )

    @cached_property
    def accesses(self) -> EventSet:
        """The cat ``M`` set (memory accesses)."""
        return self.shared_memo("accesses", lambda: self.reads | self.writes)

    @cached_property
    def initial_writes(self) -> EventSet:
        """The cat ``IW`` set."""
        return self.shared_memo(
            "initial_writes",
            lambda: self.event_set(e for e in self.events if e.is_init),
        )

    def tagged(self, tag: str) -> EventSet:
        """Events carrying ``tag`` (e.g. ``acquire``, ``mb``, ``rcu-lock``)."""
        return self.shared_memo(
            ("tagged", tag),
            lambda: self.event_set(
                e for e in self.events if e.has_tag(tag)
            ),
        )

    # -- base relations given by construction ------------------------------

    @cached_property
    def identity(self) -> Relation:
        """The cat ``id`` relation."""
        return self.shared_memo("identity", lambda: self.all_events.identity())

    @cached_property
    def loc(self) -> Relation:
        """Pairs of accesses to the same shared location."""

        def compute() -> Relation:
            if not _config.oracle():
                return _same_key(self.universe, lambda event: event.loc)
            by_loc: Dict[str, List[Event]] = {}
            for event in self.events:
                if event.loc is not None:
                    by_loc.setdefault(event.loc, []).append(event)
            pairs = [
                (a, b)
                for events in by_loc.values()
                for a in events
                for b in events
            ]
            return Relation(pairs, self.universe)

        return self.shared_memo("loc", compute)

    @cached_property
    def int_(self) -> Relation:
        """Pairs of events on the same thread (cat ``int``)."""

        def compute() -> Relation:
            if not _config.oracle():
                return _same_key(self.universe, lambda event: event.tid)
            by_tid: Dict[int, List[Event]] = {}
            for event in self.events:
                by_tid.setdefault(event.tid, []).append(event)
            pairs = [
                (a, b)
                for events in by_tid.values()
                for a in events
                for b in events
            ]
            return Relation(pairs, self.universe)

        return self.shared_memo("int", compute)

    @cached_property
    def ext(self) -> Relation:
        """Pairs of events on different threads (cat ``ext``)."""

        def compute() -> Relation:
            if not _config.oracle():
                return self.int_.complement()
            return Relation(
                (
                    (a, b)
                    for a in self.events
                    for b in self.events
                    if a.tid != b.tid
                ),
                self.universe,
            )

        return self.shared_memo("ext", compute)

    # -- derived relations (Section 2) -------------------------------------

    @cached_property
    def fr(self) -> Relation:
        """from-reads: ``rf^-1 ; co``."""
        return self.rf.inverse().sequence(self.co)

    @cached_property
    def com(self) -> Relation:
        """communications: ``rf | co | fr``."""
        return self.rf | self.co | self.fr

    @cached_property
    def po_loc(self) -> Relation:
        """``po & loc``."""
        return self.shared_memo("po_loc", lambda: self.po & self.loc)

    @cached_property
    def rfi(self) -> Relation:
        return self.rf & self.int_

    @cached_property
    def rfe(self) -> Relation:
        return self.rf & self.ext

    @cached_property
    def coi(self) -> Relation:
        return self.co & self.int_

    @cached_property
    def coe(self) -> Relation:
        return self.co & self.ext

    @cached_property
    def fri(self) -> Relation:
        return self.fr & self.int_

    @cached_property
    def fre(self) -> Relation:
        return self.fr & self.ext

    @cached_property
    def dep(self) -> Relation:
        """``addr | data`` (the paper's ``dep``)."""
        return self.shared_memo("dep", lambda: self.addr | self.data)

    # -- final state -----------------------------------------------------

    @cached_property
    def final_state(self) -> FinalState:
        """The observable end state: final registers and, per location, the
        co-maximal write's value."""
        memory: Dict[str, object] = {}
        co = self.co
        rows = co.rows
        if rows is not None:
            # Bitset fast path: a write is co-maximal iff its co row meets
            # no other write to the same location.  Same predicate as the
            # pair-scan below, one mask test per write instead of a scan
            # over every write pair.
            pos = co.index.pos
            loc_writes: Dict[str, int] = {}
            writes = []
            for event in self.events:
                if event.kind == WRITE:
                    writes.append(event)
                    bit = 1 << pos[event]
                    loc_writes[event.loc] = loc_writes.get(event.loc, 0) | bit
            for event in writes:
                bit = 1 << pos[event]
                if not rows[pos[event]] & (loc_writes[event.loc] & ~bit):
                    memory[event.loc] = event.value
            return FinalState(dict(self.final_regs), memory)
        for event in self.events:
            if event.kind != WRITE:
                continue
            is_last = not any(
                (event, other) in co
                for other in self.events
                if other.kind == WRITE and other.loc == event.loc and other != event
            )
            if is_last:
                memory[event.loc] = event.value
        return FinalState(dict(self.final_regs), memory)

    # -- display -----------------------------------------------------------

    def sorted_events(self) -> List[Event]:
        return sorted(self.events, key=lambda e: (e.tid, e.po_index, e.eid))

    def describe(self) -> str:
        """A human-readable rendering, for debugging and explanations."""
        lines = [f"Candidate execution of {self.name or '<anonymous>'}:"]
        for event in self.sorted_events():
            lines.append(f"  T{event.tid}  {event!r}")
        for rel_name in ("rf", "co", "fr"):
            rel = getattr(self, rel_name)
            shown = ", ".join(
                sorted(
                    f"{a.label or a.eid}->{b.label or b.eid}" for a, b in rel.pairs
                )
            )
            lines.append(f"  {rel_name}: {shown or '(empty)'}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"<CandidateExecution {self.name}: {len(self.events)} events, "
            f"{len(self.rf)} rf, {len(self.co)} co>"
        )


def _same_key(universe: FrozenSet[Event], key: Callable[[Event], Any]) -> Relation:
    """Production: the pairs of events of ``universe`` whose ``key`` is
    equal and not None, as one bitmask row per key value."""
    index = index_for(universe)
    keys = [key(event) for event in index.events]
    masks: Dict[Any, int] = {}
    for i, value in enumerate(keys):
        masks[value] = masks.get(value, 0) | 1 << i
    masks[None] = 0
    return Relation.from_rows(index, [masks[value] for value in keys], universe)
