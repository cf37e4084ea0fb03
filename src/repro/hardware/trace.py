"""From operational traces to candidate executions.

The paper validates its model against hardware by comparing *final
states*; with a simulator we can do better and validate *executions*:
a traced run of :class:`~repro.hardware.opsim.OperationalSimulator`
(``run_once_traced``) records which write each read observed (rf), the
order writes reached memory (co), and the dependency taints — enough to
rebuild the exact
:class:`~repro.executions.candidate.CandidateExecution` the run
performed, and check it against an axiomatic model directly.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.events import Event, INIT_TID, _index_to_label
from repro.executions.candidate import CandidateExecution
from repro.hardware.archspec import ArchSpec, get_arch
from repro.hardware.compile import compile_program
from repro.hardware.opsim import OperationalSimulator, RunTrace
from repro.litmus.ast import Program
from repro.relations import Relation, relation_from_order


def build_execution(trace: RunTrace, name: str = "") -> CandidateExecution:
    """Reconstruct the candidate execution a recorded run performed."""
    events: Dict[int, Event] = {}
    label_counter = 0
    for recorded in sorted(
        trace.events, key=lambda e: (e.tid, e.po_index, e.event_id)
    ):
        label = ""
        if recorded.kind != "F" and recorded.tid != INIT_TID:
            label = _index_to_label(label_counter)
            label_counter += 1
        elif recorded.tid == INIT_TID:
            label = f"i{recorded.loc}"
        events[recorded.event_id] = Event(
            eid=recorded.event_id,
            tid=recorded.tid,
            po_index=recorded.po_index,
            kind=recorded.kind,
            tag=recorded.tag,
            loc=recorded.loc,
            value=recorded.value,
            label=label,
        )
    universe = frozenset(events.values())

    po_pairs: List[Tuple[Event, Event]] = []
    by_tid: Dict[int, List[Event]] = {}
    for event in events.values():
        if event.tid != INIT_TID:
            by_tid.setdefault(event.tid, []).append(event)
    for thread_events in by_tid.values():
        thread_events.sort(key=lambda e: (e.po_index, e.eid))
        for i, a in enumerate(thread_events):
            for b in thread_events[i + 1:]:
                po_pairs.append((a, b))

    def taint_pairs(attribute: str) -> List[Tuple[Event, Event]]:
        pairs = []
        for recorded in trace.events:
            for read_id in getattr(recorded, attribute):
                pairs.append((events[read_id], events[recorded.event_id]))
        return pairs

    rf_pairs = [
        (events[write_id], events[read_id])
        for read_id, write_id in trace.rf.items()
    ]
    co_pairs: List[Tuple[Event, Event]] = []
    for order in trace.co_order.values():
        co_pairs.extend(
            relation_from_order([events[i] for i in order], universe).pairs
        )
    rmw_pairs = [
        (events[r], events[w]) for r, w in trace.rmw_pairs
    ]

    return CandidateExecution(
        events.values(),
        po=Relation(po_pairs, universe),
        addr=Relation(taint_pairs("addr_taints"), universe),
        data=Relation(taint_pairs("data_taints"), universe),
        ctrl=Relation(taint_pairs("ctrl_taints"), universe),
        rmw=Relation(rmw_pairs, universe),
        rf=Relation(rf_pairs, universe),
        co=Relation(co_pairs, universe),
        name=name,
    )


def sample_executions(
    program: Program,
    arch: Union[ArchSpec, str],
    runs: int,
    seed: int = 0,
    rcu: str = "keep",
    rng: Optional[random.Random] = None,
) -> Iterator[CandidateExecution]:
    """Compile ``program`` for ``arch`` and yield the candidate execution
    of each of ``runs`` randomised runs.

    Deterministic for a fixed ``seed``; pass ``rng`` to inject the
    schedule stream directly instead."""
    if isinstance(arch, str):
        arch = get_arch(arch)
    compiled = compile_program(program, arch, rcu=rcu)
    simulator = OperationalSimulator(compiled, arch)
    if rng is None:
        rng = random.Random(seed)
    for _ in range(runs):
        _, trace = simulator.run_once_traced(rng)
        yield build_execution(trace, name=compiled.name)
