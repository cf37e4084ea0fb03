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

Reads whose chosen value is written nowhere have no rf source and are
pruned, which also discards the spurious values the fixpoint of step 1 may
over-approximate.

Two performance mechanisms (both from :mod:`repro.kernel`, both
behaviour-preserving, both off in the oracle configuration —
``REPRO_ORACLE=1`` restores the naive enumerate-then-filter path):

* the trace-invariant structure of step 3 — events, base relations, and
  everything derivable from them — is computed once per trace combination
  and shared across all rf×co candidates via a
  :class:`~repro.kernel.skeleton.TraceSkeleton`;
* when ``require_sc_per_location`` is set, coherence orders are *pruned as
  they are extended*: a permutation prefix whose partial
  ``po-loc | rf | co | fr`` graph already has a cycle cannot lead to any
  surviving candidate (adding the remaining co/fr edges only grows the
  graph), so its whole subtree is skipped instead of generating and
  filtering every completion.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Optional, Tuple

from repro.events import Event, FENCE, INIT_TID, ONCE, READ, WRITE, _index_to_label
from repro.guard import core as _guard
from repro.kernel import config as _config
from repro.obs import core as _obs
from repro.kernel.bitrel import _bits, index_for, reaches
from repro.kernel.skeleton import TraceSkeleton
from repro.litmus.ast import Program
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
) -> Iterator[CandidateExecution]:
    """Candidate executions of every ``shard_count``-th trace combination.

    Trace enumeration is deterministic, so ``shard_count`` workers each
    running shard ``0..shard_count-1`` partition the full candidate stream
    without communicating (:mod:`repro.kernel.parallel`).
    """
    with _obs.span("enumerate.thread_traces"):
        value_sets = possible_value_sets(program)
        per_thread: List[List[ThreadTrace]] = [
            enumerate_thread_traces(thread, value_sets)
            for thread in program.threads
        ]
        locations = program.locations()

    for combo_index, traces in enumerate(itertools.product(*per_thread)):
        if combo_index % shard_count != shard:
            continue
        if _guard.ACTIVE:
            _guard._current.tick()  # budget safepoint: one trace combination
        if _obs.ENABLED:
            _obs.count("enumerate.trace_combos")
        yield from _executions_of_traces(
            program, locations, traces, require_sc_per_location
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
) -> Iterator[CandidateExecution]:
    events: List[Event] = []
    eid = 0
    label_counter = 0

    # Implicit initialising writes, one per location.
    init_writes: Dict[str, Event] = {}
    for po_index, location in enumerate(locations):
        event = Event(
            eid=eid,
            tid=INIT_TID,
            po_index=po_index,
            kind=WRITE,
            tag=ONCE,
            loc=location,
            value=program.initial_value(location),
            label=f"i{location}",
        )
        init_writes[location] = event
        events.append(event)
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

    # Reads-from candidates.
    reads = [e for e in events if e.kind == READ]
    writes_by_loc: Dict[str, List[Event]] = {}
    for event in events:
        if event.kind == WRITE:
            writes_by_loc.setdefault(event.loc, []).append(event)

    rf_candidates: List[List[Event]] = []
    for read in reads:
        sources = [
            w
            for w in writes_by_loc.get(read.loc, [])
            if w.value == read.value and w is not read
        ]
        if not sources:
            # This trace combination chose an unwritable value.
            if _obs.ENABLED:
                _obs.count("enumerate.pruned.unwritable_trace")
            return
        rf_candidates.append(sources)

    # Coherence candidates: per location, init write first, then any
    # permutation of the remaining writes.
    non_init_by_loc: List[List[Event]] = [
        [w for w in writes_by_loc.get(location, []) if not w.is_init]
        for location in locations
    ]

    incremental = not _config.oracle()
    shared: Optional[TraceSkeleton] = None
    if incremental:
        shared = TraceSkeleton(universe)
        po_loc_pairs = [
            (a, b)
            for a, b in po_pairs
            if a.loc is not None and a.loc == b.loc
        ]
        shared.seed("po_loc", Relation(po_loc_pairs, universe))

    def build(rf: Relation, co_pairs: List[Tuple[Event, Event]]):
        return CandidateExecution(
            universe,
            po,
            addr,
            data,
            ctrl,
            rmw,
            rf,
            Relation(co_pairs, universe),
            final_regs=final_regs,
            name=program.name,
            shared=shared,
        )

    if incremental and require_sc_per_location:
        yield from _pruned_candidates(
            universe,
            reads,
            rf_candidates,
            locations,
            init_writes,
            non_init_by_loc,
            build,
        )
        return

    # Naive path: enumerate complete rf×co candidates, filtering (when
    # asked) after construction.
    co_orders_per_loc: List[List[List[Event]]] = [
        [
            [init_writes[location]] + list(perm)
            for perm in itertools.permutations(non_init)
        ]
        for location, non_init in zip(locations, non_init_by_loc)
    ]

    for rf_choice in itertools.product(*rf_candidates):
        rf = Relation(zip(rf_choice, reads), universe)
        for co_combo in itertools.product(*co_orders_per_loc):
            if _guard.ACTIVE:
                _guard._current.tick()  # budget safepoint: one rf×co assignment
            co_pairs: List[Tuple[Event, Event]] = []
            for order in co_combo:
                co_pairs.extend(_order_pairs(order))
            execution = build(rf, co_pairs)
            if require_sc_per_location and not (
                execution.po_loc | execution.com
            ).is_acyclic():
                if _obs.ENABLED:
                    _obs.count("enumerate.pruned.sc_filtered")
                continue
            if _guard.ACTIVE:
                _guard._current.note_candidate()
            if _obs.ENABLED:
                _obs.count("enumerate.candidates")
            yield execution


def _pruned_candidates(
    universe: frozenset,
    reads: List[Event],
    rf_candidates: List[List[Event]],
    locations: List[str],
    init_writes: Dict[str, Event],
    non_init_by_loc: List[List[Event]],
    build,
) -> Iterator[CandidateExecution]:
    """rf×co enumeration with incremental ``acyclic(po-loc | com)`` pruning.

    The check graph is maintained as adjacency bitset rows over the
    universe's event index.  For a fixed rf, coherence orders are extended
    one write at a time (location by location, writes in the same order as
    ``itertools.permutations``, so the surviving candidate stream is
    *identical* to the naive path's — same candidates, same order).
    Appending write ``w`` after prefix ``p1..pk`` adds only edges into
    ``w``: ``co`` edges from each ``pi`` and ``fr`` edges from each read
    of ``pi``.  The extension creates a cycle iff ``w`` reaches one of
    those edge sources, and since every completion of the prefix keeps its
    edges, a cyclic prefix prunes its entire subtree.
    """
    index = index_for(universe)
    pos = index.pos
    n = index.n

    # Static part of the check graph: po-loc.
    static_rows = [0] * n
    for a in universe:
        if a.loc is None:
            continue
        # po-loc: same thread, same location, po-earlier.
        for b in universe:
            if (
                b.loc == a.loc
                and b.tid == a.tid
                and a.tid != INIT_TID
                and a.po_index < b.po_index
            ):
                static_rows[pos[a]] |= 1 << pos[b]

    read_pos = [pos[r] for r in reads]

    for rf_choice in itertools.product(*rf_candidates):
        if _guard.ACTIVE:
            _guard._current.tick()  # budget safepoint: one rf assignment
        rows = list(static_rows)
        readers_of = [0] * n  # write position -> bitmask of its readers
        for write, r_pos in zip(rf_choice, read_pos):
            w_pos = pos[write]
            rows[w_pos] |= 1 << r_pos
            readers_of[w_pos] |= 1 << r_pos
        # A cycle in po-loc | rf survives in every completion: skip the
        # whole co sweep for this rf assignment.
        if _has_cycle(rows, n):
            if _obs.ENABLED:
                _obs.count("enumerate.pruned.rf_cycle")
            continue

        rf = Relation(zip(rf_choice, reads), universe)
        chosen_orders: List[Optional[List[Event]]] = [None] * len(locations)

        def extend_location(loc_index: int, rows: List[int]):
            if loc_index == len(locations):
                co_pairs: List[Tuple[Event, Event]] = []
                for order in chosen_orders:
                    co_pairs.extend(_order_pairs(order))
                if _guard.ACTIVE:
                    _guard._current.note_candidate()
                if _obs.ENABLED:
                    _obs.count("enumerate.candidates")
                yield build(rf, co_pairs)
                return
            init = init_writes[locations[loc_index]]
            yield from extend_order(
                loc_index, [init], non_init_by_loc[loc_index], rows
            )

        def extend_order(
            loc_index: int,
            prefix: List[Event],
            remaining: List[Event],
            rows: List[int],
        ):
            if not remaining:
                chosen_orders[loc_index] = prefix
                yield from extend_location(loc_index + 1, rows)
                return
            if _guard.ACTIVE:
                # Budget safepoint, batched: one tick per co extension
                # step at this level (cheaper than one call per step).
                _guard._current.tick(len(remaining))
            for i, write in enumerate(remaining):
                w_pos = pos[write]
                w_bit = 1 << w_pos
                new_rows = list(rows)
                sources = 0
                for earlier in prefix:
                    e_pos = pos[earlier]
                    new_rows[e_pos] |= w_bit  # co: earlier -> write
                    sources |= 1 << e_pos
                    readers = readers_of[e_pos]
                    sources |= readers
                    for r_pos in _bits(readers):
                        new_rows[r_pos] |= w_bit  # fr: reader -> write
                if reaches(new_rows, w_pos, sources):
                    # Cyclic prefix: prune every completion.
                    if _obs.ENABLED:
                        _obs.count("enumerate.pruned.co_prefix")
                    continue
                yield from extend_order(
                    loc_index,
                    prefix + [write],
                    remaining[:i] + remaining[i + 1:],
                    new_rows,
                )

        yield from extend_location(0, rows)


def _has_cycle(rows: List[int], n: int) -> bool:
    """Cycle test on adjacency bitmask rows (iterative removal of sinks)."""
    alive = (1 << n) - 1
    while alive:
        removed = 0
        for i in _bits(alive):
            if not (rows[i] & alive):
                removed |= 1 << i
        if not removed:
            return True  # every remaining node has a live successor
        alive &= ~removed
    return False
