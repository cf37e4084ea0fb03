"""Relational algebra over events.

The cat language (Section 2 of the paper) manipulates two sorts of values:
*sets of events* and *binary relations over events*.  This module provides
both, with all the operators the paper's models use: union, intersection,
difference, complement, inverse, sequence, reflexive/transitive closures,
cartesian product, and the three constraint checks (`acyclic`,
`irreflexive`, `empty`).

Relations are immutable; every operator returns a new relation.  Both kinds
of value carry a *universe* (the event set of the candidate execution) so
that complement (`~r`) and reflexive closure (`r?`) are well defined.

Two interchangeable backends implement the operators, one per kernel
configuration (:mod:`repro.kernel.config`):

* **bitset** (production) — events are mapped to dense indices
  ``0..n-1`` once per universe and the relation is held as adjacency
  bitmask rows (:mod:`repro.kernel.bitrel`); operators are word-parallel
  integer arithmetic.  ``pairs`` is materialised lazily on demand.
* **frozenset** (the oracle, ``REPRO_ORACLE=1``) — the original reference
  implementation over ``frozenset`` of event pairs.

Both produce identical results (``tests/test_kernel_equiv.py``); the
frozenset backend is kept as the executable specification of the bitset
one.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.events import Event
from repro.kernel import config as _config
from repro.kernel.bitrel import DenseRelation, index_for

Pair = Tuple[Event, Event]


class EventSet:
    """An immutable set of events with set-algebra operators."""

    __slots__ = ("events", "universe")

    def __init__(self, events: Iterable[Event], universe: FrozenSet[Event]):
        self.events: FrozenSet[Event] = frozenset(events)
        self.universe: FrozenSet[Event] = universe

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def __contains__(self, event: Event) -> bool:
        return event in self.events

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EventSet):
            return NotImplemented
        return self.events == other.events

    def __hash__(self) -> int:
        return hash(self.events)

    def __repr__(self) -> str:
        names = sorted(repr(e) for e in self.events)
        return "{" + ", ".join(names) + "}"

    def _wrap(self, events: Iterable[Event]) -> "EventSet":
        return EventSet(events, self.universe)

    def union(self, other: "EventSet") -> "EventSet":
        return self._wrap(self.events | other.events)

    def intersection(self, other: "EventSet") -> "EventSet":
        return self._wrap(self.events & other.events)

    def difference(self, other: "EventSet") -> "EventSet":
        return self._wrap(self.events - other.events)

    def complement(self) -> "EventSet":
        return self._wrap(self.universe - self.events)

    def filter(self, predicate: Callable[[Event], bool]) -> "EventSet":
        return self._wrap(e for e in self.events if predicate(e))

    def is_empty(self) -> bool:
        return not self.events

    __or__ = union
    __and__ = intersection
    __sub__ = difference
    __invert__ = complement

    def identity(self) -> "Relation":
        """``[S]`` in cat: the identity relation restricted to this set."""
        return Relation(((e, e) for e in self.events), self.universe)

    def product(self, other: "EventSet") -> "Relation":
        """``S * T`` in cat: the cartesian product."""
        if not _config.oracle():
            try:
                index = index_for(self.universe)
                self_mask = index.mask_of(self.events)
                other_mask = index.mask_of(other.events)
            except KeyError:
                pass
            else:
                rows = [
                    other_mask if self_mask & (1 << i) else 0
                    for i in range(index.n)
                ]
                return Relation._from_dense(
                    DenseRelation(index, rows), self.universe
                )
        return Relation(
            ((a, b) for a in self.events for b in other.events), self.universe
        )

    __mul__ = product


class Relation:
    """An immutable binary relation over events.

    Supports the full cat operator suite.  Internally either a
    :class:`~repro.kernel.bitrel.DenseRelation` (bitset backend) or a
    ``frozenset`` of pairs (reference backend); ``pairs`` is always
    available, materialised lazily from the dense form when needed.
    """

    __slots__ = ("universe", "_pairs", "_dense", "_succ")

    def __init__(self, pairs: Iterable[Pair], universe: FrozenSet[Event]):
        self.universe: FrozenSet[Event] = universe
        self._pairs: Optional[FrozenSet[Pair]] = None
        self._dense: Optional[DenseRelation] = None
        self._succ: Optional[Dict[Event, Set[Event]]] = None
        if not _config.oracle():
            if not isinstance(pairs, (frozenset, set, list, tuple)):
                pairs = list(pairs)
            try:
                self._dense = DenseRelation.from_pairs(
                    index_for(universe), pairs
                )
                return
            except KeyError:
                # A pair mentions an event outside the universe; keep the
                # tolerant frozenset representation for this relation.
                pass
        self._pairs = frozenset(pairs)

    @classmethod
    def _from_dense(
        cls, dense: DenseRelation, universe: FrozenSet[Event]
    ) -> "Relation":
        relation = cls.__new__(cls)
        relation.universe = universe
        relation._pairs = None
        relation._dense = dense
        relation._succ = None
        return relation

    # -- backend plumbing ------------------------------------------------

    @property
    def pairs(self) -> FrozenSet[Pair]:
        if self._pairs is None:
            self._pairs = frozenset(self._dense.pairs())
        return self._pairs

    def _densify(self) -> Optional[DenseRelation]:
        """This relation's dense form, building and caching it if the
        bitset backend is active.  ``None`` when unavailable."""
        if self._dense is not None:
            return self._dense
        if _config.oracle():
            return None
        try:
            self._dense = DenseRelation.from_pairs(
                index_for(self.universe), self._pairs
            )
        except KeyError:
            return None
        return self._dense

    def _dense_with(
        self, other: "Relation"
    ) -> Optional[Tuple[DenseRelation, DenseRelation]]:
        """Dense forms of both operands over one index, or ``None``."""
        if self.universe is not other.universe and self.universe != other.universe:
            return None
        mine = self._densify()
        if mine is None:
            return None
        theirs = other._densify()
        if theirs is None:
            return None
        return mine, theirs

    def __getstate__(self):
        return (self.pairs, self.universe)

    def __setstate__(self, state):
        self._pairs, self.universe = state
        self._dense = None
        self._succ = None

    # -- basics ---------------------------------------------------------

    def __iter__(self) -> Iterator[Pair]:
        return iter(self.pairs)

    def __len__(self) -> int:
        if self._pairs is None:
            return len(self._dense)
        return len(self._pairs)

    def __contains__(self, pair: Pair) -> bool:
        if self._pairs is None:
            return self._dense.contains(*pair)
        return pair in self._pairs

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        if (
            self._dense is not None
            and other._dense is not None
            and (
                self.universe is other.universe
                or self.universe == other.universe
            )
        ):
            return self._dense.equals(other._dense)
        return self.pairs == other.pairs

    def __hash__(self) -> int:
        return hash(self.pairs)

    def __repr__(self) -> str:
        shown = sorted(
            f"({a.label or a.eid},{b.label or b.eid})" for a, b in self.pairs
        )
        return "{" + ", ".join(shown) + "}"

    def _wrap(self, pairs: Iterable[Pair]) -> "Relation":
        return Relation(pairs, self.universe)

    def successors(self) -> Dict[Event, Set[Event]]:
        """Adjacency index, built lazily and cached."""
        if self._succ is None:
            succ: Dict[Event, Set[Event]] = {}
            if self._pairs is None:
                events = self._dense.index.events
                for i, row in enumerate(self._dense.rows):
                    if row:
                        succ[events[i]] = {
                            events[j]
                            for j in self._dense.successor_positions(i)
                        }
            else:
                for a, b in self._pairs:
                    succ.setdefault(a, set()).add(b)
            self._succ = succ
        return self._succ

    # -- set algebra ----------------------------------------------------

    def union(self, other: "Relation") -> "Relation":
        both = self._dense_with(other)
        if both is not None:
            return Relation._from_dense(both[0].union(both[1]), self.universe)
        return self._wrap(self.pairs | other.pairs)

    def intersection(self, other: "Relation") -> "Relation":
        both = self._dense_with(other)
        if both is not None:
            return Relation._from_dense(
                both[0].intersection(both[1]), self.universe
            )
        return self._wrap(self.pairs & other.pairs)

    def difference(self, other: "Relation") -> "Relation":
        both = self._dense_with(other)
        if both is not None:
            return Relation._from_dense(
                both[0].difference(both[1]), self.universe
            )
        return self._wrap(self.pairs - other.pairs)

    def complement(self) -> "Relation":
        dense = self._densify()
        if dense is not None:
            return Relation._from_dense(dense.complement(), self.universe)
        full = {(a, b) for a in self.universe for b in self.universe}
        return self._wrap(full - self.pairs)

    __or__ = union
    __and__ = intersection
    __sub__ = difference
    __invert__ = complement

    # -- relational operators -------------------------------------------

    def inverse(self) -> "Relation":
        """``r^-1``."""
        dense = self._densify()
        if dense is not None:
            return Relation._from_dense(dense.inverse(), self.universe)
        return self._wrap((b, a) for a, b in self.pairs)

    def sequence(self, other: "Relation") -> "Relation":
        """``r1 ; r2`` — relational composition."""
        both = self._dense_with(other)
        if both is not None:
            return Relation._from_dense(
                both[0].sequence(both[1]), self.universe
            )
        succ = other.successors()
        out: Set[Pair] = set()
        for a, b in self.pairs:
            for c in succ.get(b, ()):
                out.add((a, c))
        return self._wrap(out)

    def optional(self) -> "Relation":
        """``r?`` — reflexive closure over the universe."""
        dense = self._densify()
        if dense is not None:
            return Relation._from_dense(dense.optional(), self.universe)
        return self._wrap(self.pairs | {(e, e) for e in self.universe})

    def transitive_closure(self) -> "Relation":
        """``r+``."""
        dense = self._densify()
        if dense is not None:
            return Relation._from_dense(
                dense.transitive_closure(), self.universe
            )
        succ = {a: set(bs) for a, bs in self.successors().items()}
        # Floyd-Warshall style saturation via BFS from every source node.
        closure: Set[Pair] = set()
        for start in succ:
            seen: Set[Event] = set()
            stack = list(succ[start])
            while stack:
                node = stack.pop()
                if node in seen:
                    continue
                seen.add(node)
                stack.extend(succ.get(node, ()))
            closure.update((start, node) for node in seen)
        return self._wrap(closure)

    def reflexive_transitive_closure(self) -> "Relation":
        """``r*``."""
        dense = self._densify()
        if dense is not None:
            return Relation._from_dense(
                dense.reflexive_transitive_closure(), self.universe
            )
        return self._wrap(
            self.transitive_closure().pairs | {(e, e) for e in self.universe}
        )

    # -- restriction helpers ---------------------------------------------

    def restrict(
        self,
        domain: Optional[EventSet] = None,
        range_: Optional[EventSet] = None,
    ) -> "Relation":
        """Restrict domain and/or range to the given event sets."""
        dense = self._densify()
        if dense is not None:
            try:
                domain_mask = (
                    None if domain is None else dense.index.mask_of(domain)
                )
                range_mask = (
                    None if range_ is None else dense.index.mask_of(range_)
                )
            except KeyError:
                pass
            else:
                return Relation._from_dense(
                    dense.restrict(domain_mask, range_mask), self.universe
                )
        pairs = self.pairs
        if domain is not None:
            pairs = {(a, b) for a, b in pairs if a in domain}
        if range_ is not None:
            pairs = {(a, b) for a, b in pairs if b in range_}
        return self._wrap(pairs)

    def domain(self) -> EventSet:
        if self._pairs is None:
            index = self._dense.index
            return EventSet(
                (
                    index.events[i]
                    for i, row in enumerate(self._dense.rows)
                    if row
                ),
                self.universe,
            )
        return EventSet((a for a, _ in self._pairs), self.universe)

    def range(self) -> EventSet:
        if self._pairs is None:
            index = self._dense.index
            mask = self._dense.range_mask()
            return EventSet(
                (index.events[i] for i in range(index.n) if mask & (1 << i)),
                self.universe,
            )
        return EventSet((b for _, b in self._pairs), self.universe)

    def filter(self, predicate: Callable[[Event, Event], bool]) -> "Relation":
        return self._wrap((a, b) for a, b in self.pairs if predicate(a, b))

    # -- checks -----------------------------------------------------------

    def is_empty(self) -> bool:
        if self._pairs is None:
            return self._dense.is_empty()
        return not self._pairs

    def is_irreflexive(self) -> bool:
        if self._pairs is None:
            return self._dense.is_irreflexive()
        return all(a is not b and a != b for a, b in self.pairs)

    def reflexive_pairs(self) -> List[Pair]:
        """The ``(e, e)`` pairs of the relation (irreflexivity witnesses)."""
        if self._pairs is None:
            index = self._dense.index
            mask = self._dense.reflexive_mask()
            return [
                (index.events[i], index.events[i])
                for i in range(index.n)
                if mask & (1 << i)
            ]
        return sorted(
            ((a, b) for a, b in self._pairs if a == b),
            key=lambda pair: pair[0].eid,
        )

    def is_acyclic(self) -> bool:
        """True iff the relation, viewed as a directed graph, has no cycle."""
        return self.find_cycle() is None

    def find_cycle(self) -> Optional[List[Event]]:
        """Return one cycle as ``[e0, e1, ..., e0]``, or ``None``.

        Used both for the acyclicity checks of the model and for producing
        the human-readable explanations of *why* an execution is forbidden
        (:mod:`repro.lkmm.explain`).
        """
        if self._pairs is None:
            return self._dense.find_cycle()
        succ = self.successors()
        WHITE, GREY, BLACK = 0, 1, 2
        colour: Dict[Event, int] = {}
        parent: Dict[Event, Event] = {}

        for root in succ:
            if colour.get(root, WHITE) != WHITE:
                continue
            stack: List[Tuple[Event, Iterator[Event]]] = [
                (root, iter(succ.get(root, ())))
            ]
            colour[root] = GREY
            while stack:
                node, it = stack[-1]
                advanced = False
                for nxt in it:
                    state = colour.get(nxt, WHITE)
                    if state == GREY:
                        # Found a back edge: reconstruct the cycle.
                        cycle = [nxt, node]
                        cursor = node
                        while cursor != nxt:
                            cursor = parent[cursor]
                            cycle.append(cursor)
                        cycle.reverse()
                        # cycle currently [nxt, ..., node, nxt] reversed;
                        # normalise to start and end at the same event.
                        if cycle[0] != cycle[-1]:
                            cycle.append(cycle[0])
                        return cycle
                    if state == WHITE:
                        colour[nxt] = GREY
                        parent[nxt] = node
                        stack.append((nxt, iter(succ.get(nxt, ()))))
                        advanced = True
                        break
                if not advanced:
                    colour[node] = BLACK
                    stack.pop()
        return None

    def is_total_order_on(self, events: Iterable[Event]) -> bool:
        """True iff the relation is a strict total order on ``events``."""
        events = list(events)
        if not self.is_acyclic():
            return False
        for i, a in enumerate(events):
            for b in events[i + 1:]:
                if (a, b) not in self and (b, a) not in self:
                    return False
        return True


def empty_relation(universe: FrozenSet[Event]) -> Relation:
    return Relation((), universe)


def relation_from_order(order: Sequence[Event], universe: FrozenSet[Event]) -> Relation:
    """Strict total order relation from a sequence (earlier -> later)."""
    pairs = [
        (order[i], order[j])
        for i in range(len(order))
        for j in range(i + 1, len(order))
    ]
    return Relation(pairs, universe)


def least_fixpoint(
    step: Callable[[Relation], Relation], universe: FrozenSet[Event]
) -> Relation:
    """Least fixpoint of a monotone function on relations.

    Used for cat ``let rec`` definitions such as the paper's ``rcu-path``
    (Figure 12).  Iteration starts from the empty relation and stops when
    one application adds nothing; monotonicity of the cat operators used in
    recursive definitions guarantees termination on finite universes.
    """
    current = empty_relation(universe)
    while True:
        nxt = step(current)
        if nxt == current:
            return current
        current = nxt
