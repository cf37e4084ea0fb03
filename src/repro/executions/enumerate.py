"""Enumeration of all candidate executions of a litmus test.

The enumeration follows herd's structure:

1. compute per-location *possible value sets* (a fixpoint seeded with the
   initial values — :func:`repro.executions.thread_sem.possible_value_sets`);
2. enumerate every *trace* of every thread (each trace fixes the values its
   reads return and therefore its control-flow path): the traces the
   fixpoint ends with (:func:`~repro.executions.thread_sem.traces_at_fixpoint`);
3. for each combination of traces, enumerate every *reads-from* assignment
   (each read is mapped to a same-location write of the value it chose,
   including the implicit initialising writes) and every *coherence order*
   (a permutation of the non-initial writes per location, after the
   initialising write);
4. each combination yields one :class:`CandidateExecution`.

Reads whose chosen value is written nowhere have no rf source, which also
discards the spurious values the fixpoint of step 1 may over-approximate.
Such a trace combination is dropped by a value-first test before any
event or relation of it is built (in both configurations).

Given condition *pins* (:func:`candidate_executions`), the stream is
the full stream filtered by the pins, in the same order.

Production has one rf×co enumerator, the *per-location sweep*
(:func:`_joined_candidates`, :func:`_pruned_candidates`, :func:`_sweep`).
Every edge of ``po-loc | rf | co | fr`` joins two events on the same
location, so a location's rf×co choices never constrain another's, and
the check graph of ``require_sc_per_location`` is a disjoint union of
per-location graphs, acyclic iff each of them is.  A location's part is fixed by its
*signature* — its init value, its condition pins and each thread's
projection onto it (the ``(kind, value)`` sequence of the trace's
events there) — and by its own reads' rf sources.  One memo per call
maps each signature to a :class:`_LocationFate`: whether a read is
unwritable, whether any rf sub-assignment keeps a co order, and the
co orders kept, on location-local indices, that meet its pins.  With
the filter these are per rf sub-assignment the orders that keep the
graph acyclic (*pruned as they are extended*: a cyclic permutation
prefix skips its whole subtree); without it, every order, once for all
rf sub-assignments.  The combinations are not formed one by one: for
each combination of all threads but the last, the last thread's traces
are grouped by their projection onto each location, and one fate lookup
per group rejects, with bitmask arithmetic over the last thread's trace
indices, every combination with an unwritable or infeasible location.
Such a combination builds nothing; one that keeps a candidate is swept
on integer event ids and materialised (:func:`_materialise`: events,
base relations, ``po-loc`` and the
:class:`~repro.kernel.skeleton.TraceSkeleton` its candidates share) at
its first candidate, whose ``rf`` and ``co`` are dense bitset rows.
The stream is the oracle's, in the same order.

The oracle (``REPRO_ORACLE=1``) is the naive path alone: it
materialises each combination with the same :func:`_materialise`,
builds every rf×co candidate, then drops those that violate
SC PER LOCATION (when asked) or miss a pin.
"""

from __future__ import annotations

import itertools
from typing import (
    Callable, Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Tuple,
)

from repro.events import Event, FENCE, INIT_TID, ONCE, READ, WRITE, _index_to_label
from repro.guard import core as _guard
from repro.kernel import config as _config
from repro.obs import core as _obs
from repro.kernel.bitrel import _bits, _popcount, index_for, reaches
from repro.kernel.skeleton import TraceSkeleton
from repro.litmus.ast import Program
from repro.litmus.outcomes import Condition, RegValue
from repro.relations import Relation
from repro.executions.candidate import CandidateExecution
from repro.executions.thread_sem import ThreadTrace, traces_at_fixpoint


def candidate_executions(
    program: Program,
    require_sc_per_location: bool = False,
    pins: Sequence[Condition] = (),
) -> Iterator[CandidateExecution]:
    """Yield every candidate execution of ``program``.

    When ``require_sc_per_location`` is true, executions violating
    ``acyclic(po-loc | com)`` are filtered out during enumeration.  That
    changes no verdict of a model that implies the axiom
    (:attr:`repro.model.Model.sc_per_location`, which
    :func:`repro.herd.run_litmus_many` reads to set the filter), and
    shrinks the search space of the larger programs (e.g. the inlined RCU
    implementation of Section 6).

    ``pins`` (``RegValue``/``LocValue`` atoms, see
    :func:`repro.litmus.outcomes.pinned_atoms`) make the stream
    *condition-directed*: the full stream restricted to the candidates
    whose final state satisfies every pin, in the same order.  Each pin
    names a thread of the program (:func:`repro.litmus.ast.check_condition`).
    In production a thread trace whose final registers contradict a
    register pin is dropped before any combination is formed, and a
    coherence order whose co-last write has the wrong value for a pinned
    location is dropped before its candidate is built; the oracle builds
    every candidate and drops those that miss a pin.  Each drop counts
    as ``enumerate.pruned.condition``.
    """
    with _obs.span("enumerate.thread_traces"):
        per_thread = traces_at_fixpoint(program)[1]
        locations = program.locations()
    if _config.oracle():
        for traces in itertools.product(*per_thread):
            if _guard.ACTIVE:
                _guard._current.tick()  # budget safepoint: one trace combination
            if _obs.ENABLED:
                _obs.count("enumerate.trace_combos")
            yield from _executions_of_traces(
                program, locations, traces, require_sc_per_location, None, pins
            )
        return
    loc_pins: Dict[str, List[object]] = {}
    for atom in pins:
        if not isinstance(atom, RegValue):
            loc_pins.setdefault(atom.loc, []).append(atom.value)
        else:
            traces = per_thread[atom.tid]
            kept = [
                trace
                for trace in traces
                if trace.final_regs.get(atom.reg) == atom.value
            ]
            if _obs.ENABLED:
                _obs.count("enumerate.pruned.condition", len(traces) - len(kept))
            per_thread[atom.tid] = kept
    memo = _LocationMemo(program, locations, loc_pins, require_sc_per_location)
    yield from _joined_candidates(
        program, locations, per_thread, require_sc_per_location, memo
    )


def count_candidate_executions(program: Program, **kwargs) -> int:
    """The number of candidate executions (mostly for tests and reports)."""
    return sum(1 for _ in candidate_executions(program, **kwargs))


def _order_pairs(order: List[Event]) -> Iterator[Tuple[Event, Event]]:
    """Strict-total-order pairs of ``order`` (earlier -> later)."""
    for i in range(len(order)):
        for j in range(i + 1, len(order)):
            yield (order[i], order[j])


def _executions_of_traces(
    program: Program,
    locations: List[str],
    traces: Tuple[ThreadTrace, ...],
    require_sc_per_location: bool,
    memo: Optional[_LocationMemo] = None,
    pins: Sequence[Condition] = (),
) -> Iterator[CandidateExecution]:
    """The candidates of one trace combination.  In production they come
    from the per-location sweep of ``memo``, the call's memo, which holds
    its location pins (a fresh memo without pins when none is given).
    The oracle builds every candidate and keeps those that meet ``pins``."""
    if memo is None and not _config.oracle():
        memo = _LocationMemo(program, locations, {}, require_sc_per_location)
    if memo is not None:
        yield from _pruned_candidates(program, locations, traces, memo)
        return

    # Value-first pruning: a read of a (location, value) pair that neither
    # an initial write nor a write of this combination produces has no rf
    # source, so the combination has no candidate.  Tested on the
    # proto-events, before any Event or Relation is built.
    writable = {
        (location, program.initial_value(location)) for location in locations
    }
    for trace in traces:
        for proto in trace.events:
            if proto.kind == WRITE:
                writable.add((proto.loc, proto.value))
    for trace in traces:
        for proto in trace.events:
            if proto.kind == READ and (proto.loc, proto.value) not in writable:
                if _obs.ENABLED:
                    _obs.count("enumerate.pruned.unwritable_trace")
                return

    # Naive path: materialise the combination, then enumerate complete
    # rf×co candidates, filtering after construction.
    events, universe, build = _materialise(program, locations, traces)

    # Reads-from candidates (never empty, by the value-first test above).
    reads = [e for e in events if e.kind == READ]
    writes_by_loc: Dict[str, List[Event]] = {}
    for event in events:
        if event.kind == WRITE:
            writes_by_loc.setdefault(event.loc, []).append(event)
    rf_candidates: List[List[Event]] = [
        [w for w in writes_by_loc[read.loc] if w.value == read.value]
        for read in reads
    ]

    # Coherence candidates: per location, init write first (the events
    # open with them, in ``locations`` order), then any permutation of
    # the remaining writes.
    co_orders_per_loc: List[List[List[Event]]] = [
        [
            [init] + list(perm)
            for perm in itertools.permutations(
                [w for w in writes_by_loc[location] if not w.is_init]
            )
        ]
        for init, location in zip(events, locations)
    ]

    survived = False
    for rf_choice in itertools.product(*rf_candidates):
        rf = Relation(zip(rf_choice, reads), universe)
        for co_combo in itertools.product(*co_orders_per_loc):
            if _guard.ACTIVE:
                _guard._current.tick()  # budget safepoint: one rf×co assignment
            co_pairs: List[Tuple[Event, Event]] = []
            for order in co_combo:
                co_pairs.extend(_order_pairs(order))
            execution = build(rf, Relation(co_pairs, universe))
            if require_sc_per_location and not (
                execution.po_loc | execution.com
            ).is_acyclic():
                if _obs.ENABLED:
                    _obs.count("enumerate.pruned.sc_filtered")
                continue
            survived = True
            if not all(pin.evaluate(execution.final_state) for pin in pins):
                if _obs.ENABLED:
                    _obs.count("enumerate.pruned.condition")
                continue
            if _guard.ACTIVE:
                _guard._current.note_candidate()
            if _obs.ENABLED:
                _obs.count("enumerate.candidates")
            yield execution
    if require_sc_per_location and not survived and _obs.ENABLED:
        _obs.count("enumerate.pruned.no_survivor")


Build = Callable[[Relation, Relation], CandidateExecution]


def _materialise(
    program: Program,
    locations: List[str],
    traces: Tuple[ThreadTrace, ...],
) -> Tuple[List[Event], frozenset, Build]:
    """The events, base relations, ``po-loc`` and skeleton of one trace
    combination.

    Eids are assigned to the initial writes first, in ``locations``
    order, then to each thread's events in program order, thread by
    thread: the numbering :func:`_sweep` sweeps over before
    any event exists.  Returns the events in eid order, their universe,
    and ``build(rf, co)``, which makes one candidate of the combination.
    """
    events: List[Event] = []
    eid = 0
    label_counter = 0

    # Implicit initialising writes, one per location.
    for po_index, location in enumerate(locations):
        events.append(
            Event(
                eid=eid,
                tid=INIT_TID,
                po_index=po_index,
                kind=WRITE,
                tag=ONCE,
                loc=location,
                value=program.initial_value(location),
                label=f"i{location}",
            )
        )
        eid += 1

    # Thread events, with trace-local indices mapped to global events.
    po_pairs: List[Tuple[Event, Event]] = []
    addr_pairs: List[Tuple[Event, Event]] = []
    data_pairs: List[Tuple[Event, Event]] = []
    ctrl_pairs: List[Tuple[Event, Event]] = []
    rmw_pairs: List[Tuple[Event, Event]] = []
    final_regs: Dict[Tuple[int, str], object] = {}

    for tid, trace in enumerate(traces):
        local: List[Event] = []
        for po_index, proto in enumerate(trace.events):
            label = ""
            if proto.kind != FENCE:
                label = _index_to_label(label_counter)
                label_counter += 1
            event = Event(
                eid=eid,
                tid=tid,
                po_index=po_index,
                kind=proto.kind,
                tag=proto.tag,
                loc=proto.loc,
                value=proto.value,
                label=label,
            )
            eid += 1
            local.append(event)
            events.append(event)
        for i, a in enumerate(local):
            for b in local[i + 1:]:
                po_pairs.append((a, b))
        for index, proto in enumerate(trace.events):
            target = local[index]
            for read_index in proto.addr_deps:
                addr_pairs.append((local[read_index], target))
            for read_index in proto.data_deps:
                data_pairs.append((local[read_index], target))
            for read_index in proto.ctrl_deps:
                ctrl_pairs.append((local[read_index], target))
        for read_index, write_index in trace.rmw_pairs:
            rmw_pairs.append((local[read_index], local[write_index]))
        for reg, value in trace.final_regs.items():
            final_regs[(tid, reg)] = value

    universe = frozenset(events)
    po = Relation(po_pairs, universe)
    addr = Relation(addr_pairs, universe)
    data = Relation(data_pairs, universe)
    ctrl = Relation(ctrl_pairs, universe)
    rmw = Relation(rmw_pairs, universe)

    shared: Optional[TraceSkeleton] = None
    if not _config.oracle():
        shared = TraceSkeleton(universe)
        po_loc_pairs = [
            (a, b)
            for a, b in po_pairs
            if a.loc is not None and a.loc == b.loc
        ]
        shared.seed("po_loc", Relation(po_loc_pairs, universe))

    def build(rf: Relation, co: Relation) -> CandidateExecution:
        return CandidateExecution(
            universe,
            po,
            addr,
            data,
            ctrl,
            rmw,
            rf,
            co,
            final_regs=final_regs,
            name=program.name,
            shared=shared,
        )

    return events, universe, build


class _Projection:
    """One thread trace's projection onto the locations of a call.

    ``pids[g]`` interns the ``(kind, value)`` sequence of the trace's
    events on ``locations[g]`` (0 when it has none); ``outside`` does the
    same for locations not in ``locations``, and ``read_outside`` lists
    those the trace reads.
    """

    __slots__ = ("trace", "pids", "outside", "read_outside")

    def __init__(self, trace: ThreadTrace, memo: "_LocationMemo") -> None:
        self.trace = trace  # keeps the trace, and so its id, alive
        sequences: Dict[str, List[Tuple[str, object]]] = {}
        read_outside: List[str] = []
        for proto in trace.events:
            loc = proto.loc
            if loc is None:
                continue
            sequences.setdefault(loc, []).append((proto.kind, proto.value))
            if (
                proto.kind == READ
                and loc not in memo.group_of
                and loc not in read_outside
            ):
                read_outside.append(loc)
        self.pids = tuple(
            memo.intern(tuple(sequences.pop(loc, ()))) for loc in memo.locations
        )
        self.outside = {
            loc: memo.intern(tuple(seq)) for loc, seq in sequences.items()
        }
        self.read_outside = tuple(read_outside)


class _LocationMemo:
    """The per-location memo of one :func:`candidate_executions`
    call: each trace's :class:`_Projection` and each location signature's
    :class:`_LocationFate`, filtered by SC PER LOCATION or not, as the
    call asks.

    A location's signature is its init value and pins with each thread's
    projection onto it.  It fixes the location's ``po-loc | rf | co | fr``
    subgraph, rf candidates and co orders up to renumbering, so its fate
    is decided once for every combination that shares it.  Within one
    call a location fixes its init value and pins, so fates are keyed by
    the location (its index, or its name when it is outside
    ``locations``) and one projection id per thread.
    """

    def __init__(
        self,
        program: Program,
        locations: List[str],
        loc_pins: Dict[str, List[object]],
        sc_per_location: bool,
    ) -> None:
        self.locations = locations
        self.group_of = {location: g for g, location in enumerate(locations)}
        self._program = program
        self._loc_pins = loc_pins
        self._sc_per_location = sc_per_location
        self._interned: Dict[Tuple[Tuple[str, object], ...], int] = {(): 0}
        self._sequences: List[Tuple[Tuple[str, object], ...]] = [()]
        self._projections: Dict[int, _Projection] = {}
        self._fates: Dict[tuple, _LocationFate] = {}

    def intern(self, sequence: Tuple[Tuple[str, object], ...]) -> int:
        pid = self._interned.get(sequence)
        if pid is None:
            pid = self._interned[sequence] = len(self._sequences)
            self._sequences.append(sequence)
        return pid

    def projections(self, traces: Tuple[ThreadTrace, ...]) -> List[_Projection]:
        cache = self._projections
        projections = []
        for trace in traces:
            projection = cache.get(id(trace))
            if projection is None:
                projection = cache[id(trace)] = _Projection(trace, self)
            projections.append(projection)
        return projections

    def fates(self, projections: List[_Projection]) -> List["_LocationFate"]:
        """One combination's fates: one per location of ``locations``,
        then one per location outside it that the combination reads."""
        keys = list(
            zip(range(len(self.locations)), *(p.pids for p in projections))
        )
        for p in projections:
            for loc in p.read_outside:
                key = (loc,) + tuple(q.outside.get(loc, 0) for q in projections)
                if key not in keys:
                    keys.append(key)
        return [self.fate(key) for key in keys]

    def fate(self, key: tuple) -> "_LocationFate":
        """The fate of signature ``key``: a location (its index, or its
        name when outside ``locations``), then one projection id per
        thread."""
        fate = self._fates.get(key)
        if fate is None:
            fate = self._fates[key] = self._decide(key)
            if _obs.ENABLED:
                _obs.count("enumerate.location_fates")
        return fate

    def _decide(self, key: tuple) -> "_LocationFate":
        head, pids = key[0], key[1:]
        sequences = [self._sequences[pid] for pid in pids]
        if not isinstance(head, int):
            return _LocationFate(_NO_INIT, None, sequences, self._sc_per_location)
        location = self.locations[head]
        return _LocationFate(
            self._program.initial_value(location),
            self._loc_pins.get(location),
            sequences,
            self._sc_per_location,
        )


#: The init of a location outside ``locations``: it has no init write.
_NO_INIT = object()


class _LocationFate:
    """What one location signature decides, on location-local indices.

    Local event 0 is the init write (when there is one), then each
    thread's events on the location in program order, thread by thread:
    the order of their eids in any combination.  ``rf_candidates[j]``
    lists the writes local read ``j`` may read from; an empty list makes
    the location *unwritable*.  An rf sub-assignment is keyed as a
    mixed-radix int of its candidate indices, first read most
    significant, so keys ``0, 1, 2, ...`` run in ``itertools.product``
    order.  :meth:`orders` memoises the kept co orders per key;
    ``feasible`` says whether any key keeps one.  Without the
    SC-per-location filter (``sc_per_location`` false) the orders do not
    depend on the rf sub-assignment, so every key shares key 0's.
    """

    __slots__ = (
        "reads", "rf_candidates", "unwritable", "sc_per_location", "_feasible",
        "_rows", "_init", "_writes", "_values", "_pins", "_orders",
    )

    def __init__(
        self,
        init: object,
        pins: Optional[List[object]],
        sequences: List[Tuple[Tuple[str, object], ...]],
        sc_per_location: bool,
    ) -> None:
        kinds: List[str] = []
        values: List[object] = []
        rows: List[int] = []  # po-loc, as bitset rows
        if init is not _NO_INIT:
            kinds.append(WRITE)
            values.append(init)
            rows.append(0)
        for sequence in sequences:
            end = len(kinds) + len(sequence)
            for kind, value in sequence:
                kinds.append(kind)
                values.append(value)
                rows.append(((1 << end) - 1) & ~((1 << len(kinds)) - 1))
        reads = [e for e, kind in enumerate(kinds) if kind == READ]
        writes = [e for e, kind in enumerate(kinds) if kind == WRITE]
        self.rf_candidates: List[List[int]] = [
            [w for w in writes if values[w] == values[r]] for r in reads
        ]
        self.reads = reads
        self.sc_per_location = sc_per_location
        self._rows = rows
        self._values = values
        self._pins = pins
        # A location without an init write gets one empty coherence order,
        # as in the naive path.
        self._init: Optional[int] = None if init is _NO_INIT else 0
        self._writes = [] if init is _NO_INIT else writes[1:]
        self._orders: Dict[int, List[Tuple[int, ...]]] = {}
        self.unwritable = not all(self.rf_candidates)
        self._feasible: Optional[bool] = None

    def feasible(self) -> bool:
        """Whether some rf sub-assignment keeps a co order.  Decided on
        first use, trying keys in order up to the first that does."""
        if self._feasible is None:
            keys = 1  # unfiltered, key 0 decides for every key
            if self.sc_per_location:
                for candidates in self.rf_candidates:
                    keys *= len(candidates)
            self._feasible = False
            for key in range(keys):
                if _guard.ACTIVE:
                    _guard._current.tick()  # budget safepoint: one rf step
                if self.orders(key):
                    self._feasible = True
                    break
        return self._feasible

    def orders(self, key: int) -> List[Tuple[int, ...]]:
        """The co orders, in local indices, kept under rf sub-assignment
        ``key`` that meet the location's pins.  Filtered: a cycle test of
        ``po-loc | rf`` (such a cycle survives every co order), then
        :func:`_coherence_orders`.  Unfiltered: the init write, then each
        permutation of the other writes, in ``itertools.permutations``
        order."""
        if not self.sc_per_location:
            key = 0
        orders = self._orders.get(key)
        if orders is not None:
            return orders
        if not self.sc_per_location:
            head = () if self._init is None else (self._init,)
            orders = [head + perm for perm in itertools.permutations(self._writes)]
        else:
            rows = list(self._rows)
            readers_of = [0] * len(rows)  # write -> bitmask of its readers
            rest = key
            for j in range(len(self.reads) - 1, -1, -1):
                candidates = self.rf_candidates[j]
                rest, i = divmod(rest, len(candidates))
                r_bit = 1 << self.reads[j]
                rows[candidates[i]] |= r_bit
                readers_of[candidates[i]] |= r_bit
            if _has_cycle(rows, (1 << len(rows)) - 1):
                if _obs.ENABLED:
                    _obs.count("enumerate.pruned.rf_cycle")
                orders = []
            else:
                orders = _coherence_orders(
                    rows, readers_of, self._init, self._writes
                )
        pinned = self._pins
        if pinned is not None:
            kept = [
                o for o in orders if all(self._values[o[-1]] == v for v in pinned)
            ]
            if _obs.ENABLED:
                _obs.count("enumerate.pruned.condition", len(orders) - len(kept))
            orders = kept
        self._orders[key] = orders
        return orders


def _pruned_candidates(
    program: Program,
    locations: List[str],
    traces: Tuple[ThreadTrace, ...],
    memo: _LocationMemo,
) -> Iterator[CandidateExecution]:
    """rf×co enumeration decided location by location, with
    ``acyclic(po-loc | com)`` pruning when ``memo`` filters.

    Every edge of the check graph (po-loc, rf, co, fr) joins two events on
    the same location, so the graph is the disjoint union of one graph per
    location and is acyclic iff each of them is.  A location's graph
    depends only on its signature (see :class:`_LocationMemo`) and on the
    rf sources of its own reads, so the combination has a candidate iff
    no location is unwritable and every location is feasible (unfiltered,
    iff no location is unwritable and no pin empties its co orders).  Both are
    looked up in ``memo``: a combination that fails either is rejected
    here, counted as ``enumerate.pruned.unwritable_trace`` or
    ``enumerate.pruned.no_survivor``, and never reaches :func:`_sweep`.
    """
    projections = memo.projections(traces)
    fates = memo.fates(projections)
    if any(fate.unwritable for fate in fates):
        if _obs.ENABLED:
            _obs.count("enumerate.pruned.unwritable_trace")
        return
    if not all(fate.feasible() for fate in fates):
        if _obs.ENABLED:
            _obs.count("enumerate.pruned.no_survivor")
        return
    yield from _sweep(program, locations, traces, projections, fates)


def _joined_candidates(
    program: Program,
    locations: List[str],
    per_thread: List[List[ThreadTrace]],
    require_sc_per_location: bool,
    memo: _LocationMemo,
) -> Iterator[CandidateExecution]:
    """Every combination's candidates, deciding each combination's fate
    per distinct projection of the innermost (last) thread.

    The walk runs over the product of all threads but the last.  Under
    one such *prefix* a location's signature varies only with the last
    thread's projection onto it, so the last thread's traces are grouped
    by projection id per location (bitmasks over their indices, built
    once per call) and each group looks up one fate.  The fates are
    applied as :func:`_pruned_candidates` applies them to one
    combination: every unwritable group is masked out first, then,
    location by location, each group still alive asks
    :meth:`_LocationFate.feasible`.  So the fates decided, the feasibility
    tests run and every ``enumerate.*`` counter are those of the
    combination-by-combination walk.  A location outside ``locations``
    gets a fate for a group when the prefix or the group reads it; one
    that only the last thread reads is decided, like
    :meth:`_LocationMemo.fates` does, in the order of that trace's reads,
    so those traces are taken per distinct order.  The surviving
    combinations go through :func:`_executions_of_traces` in ascending
    index order, which is ``itertools.product`` order.
    """
    *head, last = per_thread
    if not last:
        return
    width = len(last)
    full = (1 << width) - 1
    last_projections = memo.projections(tuple(last))
    columns = [
        _groups(p.pids[g] for p in last_projections) for g in range(len(locations))
    ]
    # Outside ``locations``: the groups of each location, built on first
    # use, and the traces per distinct order of their reads there.
    outside_columns: Dict[str, List[Tuple[int, int]]] = {}
    read_orders = [
        (order, mask)
        for order, mask in _groups(p.read_outside for p in last_projections)
        if order
    ]

    def outside_column(loc: str) -> List[Tuple[int, int]]:
        groups = outside_columns.get(loc)
        if groups is None:
            groups = outside_columns[loc] = _groups(
                p.outside.get(loc, 0) for p in last_projections
            )
        return groups

    for prefix in itertools.product(*head):
        if _guard.ACTIVE:
            _guard._current.tick(width)  # budget safepoint: one per combination
        if _obs.ENABLED:
            _obs.count("enumerate.trace_combos", width)
        projections = memo.projections(prefix)
        # (fate, traces) pairs, one list per location, in the order a
        # combination's fates are tested.
        steps: List[List[Tuple[_LocationFate, int]]] = []
        for g, groups in enumerate(columns):
            key = (g,) + tuple(p.pids[g] for p in projections)
            steps.append([(memo.fate(key + (pid,)), mask) for pid, mask in groups])
        shared: List[str] = []
        for p in projections:
            for loc in p.read_outside:
                if loc not in shared:
                    shared.append(loc)
        for loc in shared:
            key = (loc,) + tuple(p.outside.get(loc, 0) for p in projections)
            steps.append(
                [(memo.fate(key + (pid,)), mask) for pid, mask in outside_column(loc)]
            )
        for order, traces in read_orders:
            for loc in order:
                if loc in shared:
                    continue
                key = (loc,) + tuple(p.outside.get(loc, 0) for p in projections)
                steps.append(
                    [
                        (memo.fate(key + (pid,)), mask & traces)
                        for pid, mask in outside_column(loc)
                        if mask & traces
                    ]
                )

        alive = full
        for step in steps:
            for fate, mask in step:
                if fate.unwritable:
                    alive &= ~mask
        writable = alive
        for step in steps:
            for fate, mask in step:
                if alive & mask and not fate.feasible():
                    alive &= ~mask
        if _obs.ENABLED:
            if writable != full:
                _obs.count(
                    "enumerate.pruned.unwritable_trace", _popcount(full & ~writable)
                )
            if alive != writable:
                _obs.count("enumerate.pruned.no_survivor", _popcount(writable & ~alive))
        for i in _bits(alive):
            yield from _executions_of_traces(
                program, locations, prefix + (last[i],), require_sc_per_location, memo
            )


def _groups(ids: Iterable[Hashable]) -> List[Tuple[Hashable, int]]:
    """Each distinct id with the bitmask of the positions it appears at,
    in order of first appearance.

    Each mask is built once, from a bitmap of its group's positions:
    ORing ``1 << i`` onto a growing int would copy the mask per position,
    quadratic in the number of ids."""
    positions: Dict[Hashable, List[int]] = {}
    for i, value in enumerate(ids):
        at = positions.get(value)
        if at is None:
            positions[value] = [i]
        else:
            at.append(i)
    groups = []
    for value, at in positions.items():
        bitmap = bytearray((at[-1] >> 3) + 1)
        for i in at:
            bitmap[i >> 3] |= 1 << (i & 7)
        groups.append((value, int.from_bytes(bitmap, "little")))
    return groups


def _sweep(
    program: Program,
    locations: List[str],
    traces: Tuple[ThreadTrace, ...],
    projections: List[_Projection],
    fates: List[_LocationFate],
) -> Iterator[CandidateExecution]:
    """The candidates of one combination that keeps at least one, over
    integer event ids.

    Eids follow :func:`_materialise`'s numbering, so an eid is also the
    event's bitset position.  Each location's local indices map to its
    eids in order.  rf choices are enumerated over the reads in eid
    order, last read fastest, which is ``itertools.product`` order.  When
    the last read of a filtered location receives its source, that
    location's co orders are looked up in its fate; an empty list prunes
    the whole rf subtree, since every completion keeps the location's
    graph.  An unfiltered location's orders are fixed up front.  At a
    full rf assignment the candidates are the product of the per-location
    lists, location 0 outermost.  Each list is in
    ``itertools.permutations`` order, so the stream is *identical* to the
    oracle's naive path: same candidates, same order.  That
    is what early exit and ``max_candidates`` partial results rely on.
    The combination is materialised at its first candidate, and each
    candidate's ``rf`` and ``co`` are built straight into dense rows.
    """
    # Per location of ``fates`` (in the same order), its eids in local
    # order.
    group_of = {location: g for g, location in enumerate(locations)}
    for projection in projections:
        for loc in projection.read_outside:
            group_of.setdefault(loc, len(group_of))
    eids_of: List[List[int]] = [
        [g] if g < len(locations) else [] for g in range(len(fates))
    ]
    n = len(locations)
    for trace in traces:
        for proto in trace.events:
            g = group_of.get(proto.loc)
            if g is not None:
                eids_of[g].append(n)
            n += 1
    # Each read as (eid, location, local read index).
    located_reads: List[Tuple[int, int, int]] = [
        (eids_of[g][r], g, j)
        for g, fate in enumerate(fates)
        for j, r in enumerate(fate.reads)
    ]
    located_reads.sort()
    reads = [r for r, _, _ in located_reads]
    rf_candidates: List[List[int]] = [
        [eids_of[g][w] for w in fates[g].rf_candidates[j]]
        for _, g, j in located_reads
    ]
    # The reads each location's co orders hang on: none when unfiltered.
    reads_of: List[List[int]] = [[] for _ in fates]
    for k, (_, g, _) in enumerate(located_reads):
        if fates[g].sc_per_location:
            reads_of[g].append(k)

    # The rf walk is an odometer: ``cursor[k] - 1`` indexes the source
    # chosen for read ``k`` in ``rf_candidates[k]``.
    last = len(reads)
    rf_choice: List[int] = [0] * last
    cursor = [0] * last

    # A location's orders in eids, keyed like its fate's.
    mapped: List[Dict[int, List[Tuple[int, ...]]]] = [{} for _ in fates]

    def orders_of(g: int) -> List[Tuple[int, ...]]:
        key = 0
        for k in reads_of[g]:
            key = key * len(rf_candidates[k]) + cursor[k] - 1
        orders = mapped[g].get(key)
        if orders is None:
            eids = eids_of[g]
            orders = mapped[g][key] = [
                tuple(eids[i] for i in order) for order in fates[g].orders(key)
            ]
        return orders

    # Locations whose orders hang on no read have one list, fixed up front.
    chosen: List[List[Tuple[int, ...]]] = [
        [] if reads_of[g] else orders_of(g) for g in range(len(fates))
    ]
    closing = {ks[-1]: g for g, ks in enumerate(reads_of) if ks}

    build: Optional[Build] = None
    k = 0  # backtracking past read 0 ends the sweep
    while k >= 0:
        if k == last:
            if build is None:
                _, universe, build = _materialise(program, locations, traces)
                index = index_for(universe)
            rf_rows = [0] * n
            for w, r in zip(rf_choice, reads):
                rf_rows[w] |= 1 << r
            rf = Relation.from_rows(index, rf_rows, universe)
            for combo in itertools.product(*chosen):
                co_rows = [0] * n
                for order in combo:
                    after = 0
                    for w in reversed(order):
                        co_rows[w] = after
                        after |= 1 << w
                co = Relation.from_rows(index, co_rows, universe)
                if _guard.ACTIVE:
                    _guard._current.note_candidate()
                if _obs.ENABLED:
                    _obs.count("enumerate.candidates")
                yield build(rf, co)
            k -= 1
            continue
        i = cursor[k]
        if i == len(rf_candidates[k]):
            cursor[k] = 0
            k -= 1
            continue
        cursor[k] = i + 1
        if _guard.ACTIVE:
            _guard._current.tick()  # budget safepoint: one rf step
        rf_choice[k] = rf_candidates[k][i]
        g = closing.get(k)
        if g is not None:
            orders = orders_of(g)
            if not orders:
                continue  # prune every completion of this rf prefix
            chosen[g] = orders
        k += 1


def _coherence_orders(
    rows: List[int],
    readers_of: List[int],
    init: Optional[int],
    writes: List[int],
) -> List[Tuple[int, ...]]:
    """The co orders of one location (``init`` first, then each
    permutation of ``writes`` in ``itertools.permutations`` order) that
    keep its ``po-loc | rf | co | fr`` graph acyclic.

    Writes are eids.  ``rows`` holds the location's acyclic
    ``po-loc | rf`` graph as adjacency bitset rows; ``readers_of`` maps a
    write to the bitmask of its readers.
    """
    orders: List[Tuple[int, ...]] = []
    if init is None:
        _extend_order(orders, rows, readers_of, (), 0, writes)
    else:
        sources = (1 << init) | readers_of[init]
        _extend_order(orders, rows, readers_of, (init,), sources, writes)
    return orders


def _extend_order(
    orders: List[Tuple[int, ...]],
    rows: List[int],
    readers_of: List[int],
    prefix: Tuple[int, ...],
    sources: int,
    remaining: List[int],
) -> None:
    """Append to ``orders`` every acyclic completion of ``prefix``.

    ``sources`` is the bitmask of the prefix's writes and their readers.
    Appending write ``w`` adds only edges into ``w``: ``co`` from each
    prefix write and ``fr`` from each of their readers.  The extension
    creates a cycle iff ``w`` reaches one of those sources, and since
    every completion keeps the prefix's edges, a cyclic prefix prunes its
    entire subtree.
    """
    if not remaining:
        orders.append(prefix)
        return
    if _guard.ACTIVE:
        # Budget safepoint, batched: one tick per co extension step at
        # this level (cheaper than one call per step).
        _guard._current.tick(len(remaining))
    for i, w in enumerate(remaining):
        w_bit = 1 << w
        new_rows = list(rows)
        for e in _bits(sources):
            new_rows[e] |= w_bit  # co from a prefix write, fr from a reader
        if reaches(new_rows, w, sources):
            # Cyclic prefix: prune every completion.
            if _obs.ENABLED:
                _obs.count("enumerate.pruned.co_prefix")
            continue
        _extend_order(
            orders,
            new_rows,
            readers_of,
            prefix + (w,),
            sources | w_bit | readers_of[w],
            remaining[:i] + remaining[i + 1:],
        )


def _has_cycle(rows: List[int], alive: int) -> bool:
    """Cycle test on the subgraph of adjacency bitmask ``rows`` induced by
    the ``alive`` mask (iterative removal of sinks)."""
    while alive:
        removed = 0
        for i in _bits(alive):
            if not (rows[i] & alive):
                removed |= 1 << i
        if not removed:
            return True  # every remaining node has a live successor
        alive &= ~removed
    return False
