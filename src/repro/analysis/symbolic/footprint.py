"""From a final-state condition to pinned communication edges.

A litmus condition like ``exists (1:r0=1 /\\ x=2)`` constrains *every*
execution that satisfies it: the read feeding ``1:r0`` must read from a
write of 1 to its location, and the coherence-maximal write to ``x`` must
be the one writing 2.  When those writers are unique in the skeleton, the
condition *pins* communication edges — facts the prover may assume while
deciding whether a forbidden cycle is unavoidable.

The resolution here is deliberately narrow and, within its fragment,
exact:

* only conjunctions of ``tid:reg = v`` and ``loc = v`` atoms (the shape
  the diy generator and the stock library overwhelmingly use) — ``\\/``,
  ``~`` and ``forall`` bodies raise :class:`Unsupported`;
* a register atom resolves through the skeleton's final register origins:
  a constant origin is discharged (or refutes the condition) outright; a
  read origin pins that read's returned value, and the rf source is
  pinned when exactly one write (or the initialising write) can supply
  the value.  Candidate sources are *all* same-location writes of that
  value — including po-later ones in the same thread, which the
  enumerator genuinely offers as rf sources;
* a location atom pins the coherence-maximal write the same way.

Zero candidates is not a failure — it proves the condition unsatisfiable
(``trivially_false``), which *is* a static verdict.  Writes of unknown
(trace-dependent) values make candidate sets indeterminate and raise
:class:`Unsupported` instead.

From the pins, :func:`guaranteed_edges` derives the edges present in
every condition-satisfying execution, and :func:`scenarios` enumerates
the per-location coherence orders those executions can still choose,
yielding one :class:`~repro.analysis.symbolic.match.EdgeSet` per case —
an exhaustive partition, so "every scenario has a forbidden cycle"
really covers every condition-satisfying execution.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.litmus.ast import Program
from repro.litmus.outcomes import And, Condition, LocValue, RegValue

from repro.analysis.symbolic.match import EdgeSet, Key
from repro.analysis.symbolic.skeleton import (
    ProgramSkeleton,
    SkelEvent,
    UNKNOWN,
    Unsupported,
)

#: Per-location coherence scenarios beyond this are not enumerated; the
#: prover falls back to the guaranteed-edge intersection.
SCENARIO_CAP = 64


@dataclass
class Footprint:
    """What the condition body forces on every satisfying execution."""

    #: The condition body can never evaluate to True (e.g. a register
    #: compared against a value nothing writes) — an immediate verdict.
    trivially_false: bool = False
    #: Read events whose returned value is fixed: read key -> (source
    #: write key or None for the initialising write, the pinned value).
    read_pins: Dict[Key, Tuple[Optional[Key], object]] = field(
        default_factory=dict
    )
    #: Locations whose coherence-maximal write is fixed.
    comax_pins: Dict[str, Key] = field(default_factory=dict)


def _conjuncts(condition: Condition) -> List[Condition]:
    if isinstance(condition, And):
        return _conjuncts(condition.lhs) + _conjuncts(condition.rhs)
    if isinstance(condition, (RegValue, LocValue)):
        return [condition]
    raise Unsupported(f"condition atom {condition!r} outside the fragment")


def _value_candidates(
    skeleton: ProgramSkeleton, program: Program, loc: str, value: object
) -> Tuple[List[SkelEvent], bool]:
    """Skeleton writes that can supply ``value`` at ``loc``, plus whether
    the initialising write also can."""
    candidates = []
    for write in skeleton.writes_to(loc):
        if write.value is UNKNOWN:
            raise Unsupported(
                f"write of a trace-dependent value to {loc!r}"
            )
        if write.value == value:
            candidates.append(write)
    return candidates, program.initial_value(loc) == value


def resolve_footprint(
    skeleton: ProgramSkeleton, condition: Condition
) -> Footprint:
    """Resolve a condition body against the skeleton.

    Raises :class:`Unsupported` outside the conjunction-of-atoms
    fragment; returns ``trivially_false`` when the body is provably
    unsatisfiable over all candidate executions.
    """
    program = skeleton.program
    footprint = Footprint()

    def refuted() -> Footprint:
        footprint.trivially_false = True
        return footprint

    for atom in _conjuncts(condition):
        if isinstance(atom, RegValue):
            origin = skeleton.threads[atom.tid].final_regs.get(atom.reg)
            if origin is None:
                return refuted()  # never assigned: absent from final state
            tag, payload = origin
            if tag == "const":
                if payload != atom.value:
                    return refuted()
                continue  # satisfied in every execution
            if tag != "read":
                raise Unsupported(
                    f"register {atom.tid}:{atom.reg} has an opaque origin"
                )
            read = skeleton.threads[atom.tid].events[payload]
            pinned = footprint.read_pins.get(read.key)
            if pinned is not None:
                if pinned[1] != atom.value:
                    return refuted()  # one read, two required values
                continue
            candidates, init_ok = _value_candidates(
                skeleton, program, read.loc, atom.value
            )
            candidates = [w for w in candidates if w.key != read.key]
            total = len(candidates) + (1 if init_ok else 0)
            if total == 0:
                return refuted()  # no writer can supply the value
            if total > 1:
                raise Unsupported(
                    f"{total} possible rf sources for {read.describe()}"
                )
            source = candidates[0].key if candidates else None
            footprint.read_pins[read.key] = (source, atom.value)
        else:  # LocValue
            writes = skeleton.writes_to(atom.loc)
            candidates, init_ok = _value_candidates(
                skeleton, program, atom.loc, atom.value
            )
            if not writes:
                if not init_ok:
                    return refuted()
                continue  # untouched location keeps its initial value
            # With writes present, the final value is the co-max write's.
            if not candidates:
                return refuted()
            if len(candidates) > 1:
                raise Unsupported(
                    f"{len(candidates)} possible final writes to {atom.loc!r}"
                )
            pinned = footprint.comax_pins.get(atom.loc)
            if pinned is not None and pinned != candidates[0].key:
                return refuted()
            footprint.comax_pins[atom.loc] = candidates[0].key
    return footprint


def guaranteed_edges(
    skeleton: ProgramSkeleton, footprint: Footprint
) -> EdgeSet:
    """Edges present in *every* execution satisfying the condition."""
    rf: set = set()
    co: set = set()
    fr: set = set()
    for read_key, (source, _value) in footprint.read_pins.items():
        read = skeleton.event(read_key)
        if source is not None:
            rf.add((source, read_key))
            comax = footprint.comax_pins.get(read.loc)
            if comax is not None and comax != source:
                # Source precedes the pinned co-max write, so the read
                # from-reads it in every satisfying execution.
                fr.add((read_key, comax))
        else:
            # Reading the initialising write: every skeleton write to the
            # location is coherence-after it.
            for write in skeleton.writes_to(read.loc):
                fr.add((read_key, write.key))
    for loc, comax in footprint.comax_pins.items():
        for write in skeleton.writes_to(loc):
            if write.key != comax:
                co.add((write.key, comax))
    return EdgeSet(frozenset(rf), frozenset(co), frozenset(fr))


def _location_orders(
    writes: List[SkelEvent], comax: Optional[Key]
) -> List[Tuple[Key, ...]]:
    keys = [w.key for w in writes]
    if comax is not None:
        rest = [k for k in keys if k != comax]
        return [p + (comax,) for p in itertools.permutations(rest)]
    return list(itertools.permutations(keys))


def scenarios(
    skeleton: ProgramSkeleton,
    footprint: Footprint,
    cap: int = SCENARIO_CAP,
) -> List[EdgeSet]:
    """One :class:`EdgeSet` per coherence-order choice the satisfying
    executions can make — an exhaustive partition of those executions.

    Locations with at most one skeleton write have a fixed coherence
    order.  For the rest, every permutation (restricted by a pinned
    co-max write) becomes a scenario; past ``cap`` total scenarios the
    guaranteed intersection is returned alone, which only loses
    precision, never soundness.
    """
    base = guaranteed_edges(skeleton, footprint)
    multi: List[List[Tuple[Key, ...]]] = []
    count = 1
    for loc in sorted({w.loc for w in skeleton.accesses() if w.loc}):
        writes = skeleton.writes_to(loc)
        if len(writes) < 2:
            continue
        orders = _location_orders(writes, footprint.comax_pins.get(loc))
        count *= len(orders)
        if count > cap:
            return [base]
        multi.append(orders)
    if not multi:
        return [base]
    results: List[EdgeSet] = []
    for combo in itertools.product(*multi):
        co: set = set(base.co)
        fr: set = set(base.fr)
        for order in combo:
            for i, earlier in enumerate(order):
                for later in order[i + 1:]:
                    co.add((earlier, later))
            # A pinned read from a write in this order from-reads every
            # coherence-later write.
            position = {key: i for i, key in enumerate(order)}
            for read_key, (source, _v) in footprint.read_pins.items():
                if source in position:
                    for later in order[position[source] + 1:]:
                        fr.add((read_key, later))
        results.append(EdgeSet(base.rf, frozenset(co), frozenset(fr)))
    return results
