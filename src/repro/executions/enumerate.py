"""Enumeration of all candidate executions of a litmus test.

The enumeration follows herd's structure:

1. compute per-location *possible value sets* (a fixpoint seeded with the
   initial values — :func:`repro.executions.thread_sem.possible_value_sets`);
2. enumerate every *trace* of every thread (each trace fixes the values its
   reads return and therefore its control-flow path);
3. for each combination of traces, enumerate every *reads-from* assignment
   (each read is mapped to a same-location write of the value it chose,
   including the implicit initialising writes) and every *coherence order*
   (a permutation of the non-initial writes per location, after the
   initialising write);
4. each combination yields one :class:`CandidateExecution`.

Reads whose chosen value is written nowhere have no rf source, which also
discards the spurious values the fixpoint of step 1 may over-approximate.
Such a trace combination is dropped by a value-first test on its
proto-events, before any event or relation of it is built (in both
configurations).

Given condition *pins* (:func:`candidate_executions_sharded`), the
enumeration is condition-directed: traces and coherence orders whose
final registers or final memory contradict a pinned value are dropped
before any candidate is built, leaving the full stream filtered by the
pins, in the same order.

Two performance mechanisms (both from :mod:`repro.kernel`, both
behaviour-preserving, both off in the oracle configuration —
``REPRO_ORACLE=1`` restores the naive enumerate-then-filter path):

* when ``require_sc_per_location`` is set, the rf×co sweep is *factorised
  by location* and runs on integer event ids.  Every edge of
  ``po-loc | rf | co | fr`` joins two events on the same location, so the
  check graph is a disjoint union of per-location graphs, acyclic iff
  each of them is.  A location's surviving coherence orders depend only
  on its own reads' rf sources: they are computed once per trace
  combination and tuple of sources and memoised (coherence orders are
  *pruned as they are extended*: a permutation prefix whose partial graph
  already has a cycle cannot lead to any surviving candidate, so its
  whole subtree is skipped).  A location left without orders prunes every
  rf choice that completes it.  The sweep reads each event's location,
  kind and value straight off the proto-events, so a combination is
  materialised (:func:`_materialise`: events, base relations, ``po-loc``
  and skeleton) only at its first full rf assignment with surviving co
  orders; most combinations have none and are never built.  Kept
  candidates get their ``rf`` and ``co`` as dense bitset rows.  The
  surviving stream is the naive path's, in the same order
  (:func:`_pruned_candidates`);
* the trace-invariant structure of step 3 — events, base relations, and
  everything derivable from them — is computed once per materialised
  trace combination and shared across all its rf×co candidates via a
  :class:`~repro.kernel.skeleton.TraceSkeleton`.

The naive path materialises each combination with the same
:func:`_materialise`, before its first candidate.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.events import Event, FENCE, INIT_TID, ONCE, READ, WRITE, _index_to_label
from repro.guard import core as _guard
from repro.kernel import config as _config
from repro.obs import core as _obs
from repro.kernel.bitrel import DenseRelation, _bits, index_for, reaches
from repro.kernel.skeleton import TraceSkeleton
from repro.litmus.ast import Program
from repro.litmus.outcomes import Condition, RegValue
from repro.relations import Relation
from repro.executions.candidate import CandidateExecution
from repro.executions.thread_sem import (
    ProtoEvent,
    ThreadTrace,
    enumerate_thread_traces,
    possible_value_sets,
)


def candidate_executions(
    program: Program,
    require_sc_per_location: bool = False,
) -> Iterator[CandidateExecution]:
    """Yield every candidate execution of ``program``.

    When ``require_sc_per_location`` is true, executions violating
    ``acyclic(po-loc | com)`` are filtered out during enumeration.  All the
    models shipped with this package include that axiom, so the filter
    never changes a verdict but dramatically shrinks the search space for
    the larger programs (e.g. the inlined RCU implementation of Section 6).
    """
    yield from candidate_executions_sharded(
        program, 0, 1, require_sc_per_location=require_sc_per_location
    )


def candidate_executions_sharded(
    program: Program,
    shard: int,
    shard_count: int,
    require_sc_per_location: bool = False,
    pins: Sequence[Condition] = (),
) -> Iterator[CandidateExecution]:
    """Candidate executions of every ``shard_count``-th trace combination.

    Trace enumeration is deterministic, so ``shard_count`` workers each
    running shard ``0..shard_count-1`` partition the full candidate stream
    without communicating (:mod:`repro.kernel.parallel`).

    ``pins`` (``RegValue``/``LocValue`` atoms, see
    :func:`repro.litmus.outcomes.pinned_atoms`) make the stream
    *condition-directed*: the full stream restricted to the candidates
    whose final state satisfies every pin, in the same order.  A thread
    trace whose final registers contradict a register pin is dropped
    before any combination is formed, and a coherence order whose
    co-last write has the wrong value for a pinned location is dropped
    before its candidate is built; each drop counts as
    ``enumerate.pruned.condition``.  Combinations are numbered over the
    kept traces, so shards partition the pruned stream.
    """
    reg_pins: Dict[int, List[Tuple[str, object]]] = {}
    loc_pins: Dict[str, List[object]] = {}
    for atom in pins:
        if isinstance(atom, RegValue):
            reg_pins.setdefault(atom.tid, []).append((atom.reg, atom.value))
        else:
            loc_pins.setdefault(atom.loc, []).append(atom.value)

    with _obs.span("enumerate.thread_traces"):
        value_sets = possible_value_sets(program)
        per_thread: List[List[ThreadTrace]] = [
            enumerate_thread_traces(thread, value_sets)
            for thread in program.threads
        ]
        locations = program.locations()
    for tid, tid_pins in reg_pins.items():
        if not 0 <= tid < len(per_thread):
            continue
        traces = per_thread[tid]
        kept = [
            trace
            for trace in traces
            if all(trace.final_regs.get(reg) == v for reg, v in tid_pins)
        ]
        if _obs.ENABLED:
            _obs.count("enumerate.pruned.condition", len(traces) - len(kept))
        per_thread[tid] = kept

    for combo_index, traces in enumerate(itertools.product(*per_thread)):
        if combo_index % shard_count != shard:
            continue
        if _guard.ACTIVE:
            _guard._current.tick()  # budget safepoint: one trace combination
        if _obs.ENABLED:
            _obs.count("enumerate.trace_combos")
        yield from _executions_of_traces(
            program, locations, traces, require_sc_per_location, loc_pins
        )


def count_candidate_executions(program: Program, **kwargs) -> int:
    """The number of candidate executions (mostly for tests and reports)."""
    return sum(1 for _ in candidate_executions(program, **kwargs))


def _order_pairs(order: List[Event]) -> Iterator[Tuple[Event, Event]]:
    """Strict-total-order pairs of ``order`` (earlier -> later)."""
    for i in range(len(order)):
        for j in range(i + 1, len(order)):
            yield (order[i], order[j])


def _pin_holds(pinned: List[object], value: object) -> bool:
    """True when a location's final ``value`` meets each of its pins."""
    return all(value == pin for pin in pinned)


def _executions_of_traces(
    program: Program,
    locations: List[str],
    traces: Tuple[ThreadTrace, ...],
    require_sc_per_location: bool,
    loc_pins: Optional[Dict[str, List[object]]] = None,
) -> Iterator[CandidateExecution]:
    loc_pins = loc_pins or {}
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

    if require_sc_per_location and not _config.oracle():
        yield from _pruned_candidates(program, locations, traces, loc_pins)
        return

    # Naive path: materialise the combination, then enumerate complete
    # rf×co candidates, filtering (when asked) after construction.
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
    for g, location in enumerate(locations):
        pinned = loc_pins.get(location)
        if pinned is not None:
            kept = [
                order
                for order in co_orders_per_loc[g]
                if _pin_holds(pinned, order[-1].value)
            ]
            if _obs.ENABLED:
                _obs.count(
                    "enumerate.pruned.condition",
                    len(co_orders_per_loc[g]) - len(kept),
                )
            co_orders_per_loc[g] = kept

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
    thread: the numbering :func:`_pruned_candidates` sweeps over before
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


def _pruned_candidates(
    program: Program,
    locations: List[str],
    traces: Tuple[ThreadTrace, ...],
    loc_pins: Dict[str, List[object]],
) -> Iterator[CandidateExecution]:
    """rf×co enumeration with ``acyclic(po-loc | com)`` pruning, factorised
    by location, over integer event ids.

    Every edge of the check graph (po-loc, rf, co, fr) joins two events on
    the same location, so the graph is the disjoint union of one graph per
    location and is acyclic iff each of them is.  A location's graph
    depends only on the rf sources of its own reads and on its own co
    order.  Its surviving co orders are therefore computed once per trace
    combination and tuple of sources, and memoised per location under
    that tuple (encoded as one int): a cycle test of ``po-loc | rf``
    restricted to the location's events (such a cycle survives every co
    order), then :func:`_coherence_orders`, keeping only the orders whose
    co-last write meets the location's condition pins (``loc_pins``).

    The sweep needs only each event's location, kind and value, which it
    reads off the proto-events under :func:`_materialise`'s eid numbering.
    Eids are ``0..n-1`` and an :class:`~repro.kernel.bitrel.EventIndex`
    sorts by eid, so an eid is also the event's bitset position.  The
    combination is materialised at the first full rf assignment with
    surviving co orders; one without any is never built and counts as
    ``enumerate.pruned.no_survivor``.  Each kept candidate's ``rf`` and
    ``co`` are built straight into dense rows.

    rf choices are enumerated over the reads in event order, last read
    fastest, which is ``itertools.product`` order.  When the last read of
    a location receives its source, that location's memo entry is looked
    up; an empty one prunes the whole rf subtree, since every completion
    keeps the location's graph.  At a full rf assignment the candidates
    are the product of the per-location lists, location 0 outermost.  Each
    list is in ``itertools.permutations`` order, so the surviving stream
    is *identical* to the naive path's: same candidates, same order.  That
    is what early exit and ``max_candidates`` partial results rely on.
    """
    # Each eid's location, kind and value, and the static part of the
    # check graph, po-loc, as bitset rows.
    n = len(locations) + sum(len(trace.events) for trace in traces)
    locs: List[Optional[str]] = list(locations)
    kinds: List[str] = [WRITE] * len(locations)
    values: List[object] = [program.initial_value(loc) for loc in locations]
    static_rows = [0] * n
    for trace in traces:
        base = len(locs)
        later: Dict[str, int] = {}  # location -> mask of po-later events
        for i in range(len(trace.events) - 1, -1, -1):
            loc = trace.events[i].loc
            if loc is not None:
                mask = later.get(loc, 0)
                static_rows[base + i] = mask
                later[loc] = mask | 1 << (base + i)
        for proto in trace.events:
            locs.append(proto.loc)
            kinds.append(proto.kind)
            values.append(proto.value)

    # Reads-from candidates (never empty, by the value-first test).
    reads = [e for e in range(n) if kinds[e] == READ]
    writes_by_loc: Dict[str, List[int]] = {}
    for e in range(n):
        if kinds[e] == WRITE:
            writes_by_loc.setdefault(locs[e], []).append(e)
    rf_candidates: List[List[int]] = [
        [w for w in writes_by_loc[locs[r]] if values[w] == values[r]]
        for r in reads
    ]

    # Per location: its init write (eid ``g`` for location ``g``), its
    # non-init writes (co-ordered) and the indices of its reads.  A read
    # of a location outside ``locations`` gets a group with no coherence
    # order, as in the naive path.
    group_of = {location: g for g, location in enumerate(locations)}
    inits: List[Optional[int]] = list(range(len(locations)))
    writes: List[List[int]] = [
        writes_by_loc[location][1:] for location in locations
    ]
    reads_of: List[List[int]] = [[] for _ in locations]
    for k, r in enumerate(reads):
        if locs[r] not in group_of:
            group_of[locs[r]] = len(inits)
            inits.append(None)
            writes.append([])
            reads_of.append([])
        reads_of[group_of[locs[r]]].append(k)
    pins_of: List[Optional[List[object]]] = [
        loc_pins.get(location) for location in locations
    ] + [None] * (len(inits) - len(locations))
    masks = [0] * len(inits)
    for e in range(n):
        g = group_of.get(locs[e])
        if g is not None:
            masks[g] |= 1 << e

    # The rf walk is an odometer: ``cursor[k] - 1`` indexes the source
    # chosen for read ``k`` in ``rf_candidates[k]``.
    last = len(reads)
    rf_choice: List[int] = [0] * last
    cursor = [0] * last

    # One memo per location, keyed by its reads' sources under the current
    # rf choice, encoded as a mixed-radix int of their ``cursor`` indices
    # (an int key churns no tuples).
    memo: List[Dict[int, List[Tuple[int, ...]]]] = [{} for _ in inits]

    def orders_of(g: int) -> List[Tuple[int, ...]]:
        key = 0
        for k in reads_of[g]:
            key = key * len(rf_candidates[k]) + cursor[k] - 1
        orders = memo[g].get(key)
        if orders is None:
            rows = list(static_rows)
            readers_of = [0] * n  # write -> bitmask of its readers
            for k in reads_of[g]:
                w = rf_choice[k]
                r_bit = 1 << reads[k]
                rows[w] |= r_bit
                readers_of[w] |= r_bit
            if _has_cycle(rows, masks[g]):
                if _obs.ENABLED:
                    _obs.count("enumerate.pruned.rf_cycle")
                orders = []
            else:
                orders = _coherence_orders(rows, readers_of, inits[g], writes[g])
                pinned = pins_of[g]
                if pinned is not None:
                    kept = [o for o in orders if _pin_holds(pinned, values[o[-1]])]
                    if _obs.ENABLED:
                        _obs.count(
                            "enumerate.pruned.condition", len(orders) - len(kept)
                        )
                    orders = kept
            memo[g][key] = orders
        return orders

    # Locations without reads have one memo entry, fixed up front.
    chosen: List[List[Tuple[int, ...]]] = [
        [] if reads_of[g] else orders_of(g) for g in range(len(inits))
    ]
    closing = {ks[-1]: g for g, ks in enumerate(reads_of) if ks}

    build: Optional[Build] = None
    # Backtracking past read 0 ends the sweep; a read-less location
    # without co orders ends it before it starts.
    k = 0 if all(chosen[g] for g in range(len(inits)) if not reads_of[g]) else -1
    while k >= 0:
        if k == last:
            if build is None:
                _, universe, build = _materialise(program, locations, traces)
                index = index_for(universe)
            rf_rows = [0] * n
            for w, r in zip(rf_choice, reads):
                rf_rows[w] |= 1 << r
            rf = Relation._from_dense(DenseRelation(index, rf_rows), universe)
            for combo in itertools.product(*chosen):
                co_rows = [0] * n
                for order in combo:
                    after = 0
                    for w in reversed(order):
                        co_rows[w] = after
                        after |= 1 << w
                co = Relation._from_dense(DenseRelation(index, co_rows), universe)
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
    if build is None and _obs.ENABLED:
        _obs.count("enumerate.pruned.no_survivor")


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
