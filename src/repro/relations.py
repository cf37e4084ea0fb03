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

A :class:`Relation` has one representation per kernel configuration
(:mod:`repro.kernel.config`), fixed when it is built:

* **production** — an :class:`~repro.kernel.bitrel.EventIndex` mapping the
  universe to positions ``0..n-1`` plus adjacency bitset rows; operators
  are word-parallel integer arithmetic over the row functions of
  :mod:`repro.kernel.bitrel`, and ``pairs`` is materialised on demand.
  Events outside the universe raise ``KeyError``;
* **oracle** (``REPRO_ORACLE=1``) — a ``frozenset`` of event pairs, the
  reference implementation.

An operator over two relations takes the row path when both hold rows
and the pair path otherwise; operands over different universes raise
``ValueError``.  Both configurations produce identical results
(``tests/test_kernel_equiv.py``); the oracle is the executable
specification of production.
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
from repro.kernel.bitrel import (
    EventIndex,
    _bits,
    _popcount,
    closure_rows,
    complement_rows,
    domain_mask,
    find_cycle_rows,
    index_for,
    inverse_rows,
    optional_rows,
    range_mask,
    reflexive_mask,
    restrict_rows,
    sequence_rows,
)

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
        if _config.oracle():
            return Relation(((e, e) for e in self.events), self.universe)
        # An event outside the universe raises KeyError.
        index = index_for(self.universe)
        mask = index.mask_of(self.events)
        rows = [mask & 1 << i for i in range(index.n)]
        return Relation.from_rows(index, rows, self.universe)

    def product(self, other: "EventSet") -> "Relation":
        """``S * T`` in cat: the cartesian product."""
        if _config.oracle():
            return Relation(
                ((a, b) for a in self.events for b in other.events),
                self.universe,
            )
        # An event outside the universe raises KeyError.
        index = index_for(self.universe)
        self_mask = index.mask_of(self.events)
        other_mask = index.mask_of(other.events)
        rows = [
            other_mask if self_mask >> i & 1 else 0 for i in range(index.n)
        ]
        return Relation.from_rows(index, rows, self.universe)

    __mul__ = product


class Relation:
    """An immutable binary relation over events.

    Supports the full cat operator suite.  The representation is fixed
    when the relation is built, by the kernel configuration: in
    production an :class:`~repro.kernel.bitrel.EventIndex` of the
    universe (``index``) plus adjacency bitset ``rows``, with ``pairs``
    materialised on demand; under the oracle a frozenset of ``pairs``
    only.  In production a pair naming an event outside the universe
    raises ``KeyError``.
    """

    __slots__ = ("universe", "index", "_rows", "_pairs", "_succ")

    def __init__(self, pairs: Iterable[Pair], universe: FrozenSet[Event]):
        self.universe: FrozenSet[Event] = universe
        self._succ: Optional[Dict[Event, Set[Event]]] = None
        if _config.oracle():
            self.index: Optional[EventIndex] = None
            self._rows: Optional[List[int]] = None
            self._pairs: Optional[FrozenSet[Pair]] = frozenset(pairs)
            return
        index = self.index = index_for(universe)
        rows = [0] * index.n
        pos = index.pos
        for a, b in pairs:
            rows[pos[a]] |= 1 << pos[b]
        self._rows = rows
        self._pairs = None

    @classmethod
    def from_rows(
        cls, index: EventIndex, rows: List[int], universe: FrozenSet[Event]
    ) -> "Relation":
        """A production relation from bitset ``rows`` over ``index``, the
        index of ``universe``.  The rows are taken, not copied."""
        relation = cls.__new__(cls)
        relation.universe = universe
        relation.index = index
        relation._rows = rows
        relation._pairs = None
        relation._succ = None
        return relation

    @property
    def rows(self) -> Optional[List[int]]:
        """The bitset rows, or ``None`` under the oracle.  A relation built
        under the oracle and read in production gets its rows here."""
        if self._rows is None and not _config.oracle():
            built = Relation(self._pairs, self.universe)
            self.index, self._rows = built.index, built._rows
        return self._rows

    @property
    def pairs(self) -> FrozenSet[Pair]:
        if self._pairs is None:
            events = self.index.events
            self._pairs = frozenset(
                (events[i], events[j])
                for i, row in enumerate(self._rows)
                for j in _bits(row)
            )
        return self._pairs

    def _row_path(self, other: "Relation") -> bool:
        """True when both operands hold rows.  Raises ``ValueError`` when
        the universes differ, so that positions never mismatch."""
        if self.universe is not other.universe and self.universe != other.universe:
            raise ValueError(
                f"relations over different universes ({len(self.universe)}"
                f" and {len(other.universe)} events)"
            )
        return self._rows is not None and other._rows is not None

    def _with_rows(self, rows: List[int]) -> "Relation":
        return Relation.from_rows(self.index, rows, self.universe)

    def _event_set(self, mask: int) -> EventSet:
        events = self.index.events
        return EventSet((events[i] for i in _bits(mask)), self.universe)

    def __getstate__(self):
        return (self.pairs, self.universe)

    def __setstate__(self, state):
        self.__init__(*state)

    # -- basics ---------------------------------------------------------

    def __iter__(self) -> Iterator[Pair]:
        return iter(self.pairs)

    def __len__(self) -> int:
        if self._rows is not None:
            return sum(map(_popcount, self._rows))
        return len(self._pairs)

    def __contains__(self, pair: Pair) -> bool:
        if self._rows is None:
            return pair in self._pairs
        pos = self.index.pos
        a, b = pair
        try:
            return bool(self._rows[pos[a]] >> pos[b] & 1)
        except KeyError:
            return False

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        if (
            self._rows is not None
            and other._rows is not None
            and (
                self.universe is other.universe
                or self.universe == other.universe
            )
        ):
            return self._rows == other._rows
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
            if self._rows is not None:
                events = self.index.events
                for i, row in enumerate(self._rows):
                    if row:
                        succ[events[i]] = {events[j] for j in _bits(row)}
            else:
                for a, b in self._pairs:
                    succ.setdefault(a, set()).add(b)
            self._succ = succ
        return self._succ

    # -- set algebra ----------------------------------------------------

    def union(self, other: "Relation") -> "Relation":
        if self._row_path(other):
            return self._with_rows(
                [a | b for a, b in zip(self._rows, other._rows)]
            )
        return self._wrap(self.pairs | other.pairs)

    def intersection(self, other: "Relation") -> "Relation":
        if self._row_path(other):
            return self._with_rows(
                [a & b for a, b in zip(self._rows, other._rows)]
            )
        return self._wrap(self.pairs & other.pairs)

    def difference(self, other: "Relation") -> "Relation":
        if self._row_path(other):
            return self._with_rows(
                [a & ~b for a, b in zip(self._rows, other._rows)]
            )
        return self._wrap(self.pairs - other.pairs)

    def complement(self) -> "Relation":
        if self._rows is not None:
            return self._with_rows(
                complement_rows(self._rows, self.index.full_row)
            )
        full = {(a, b) for a in self.universe for b in self.universe}
        return self._wrap(full - self.pairs)

    __or__ = union
    __and__ = intersection
    __sub__ = difference
    __invert__ = complement

    # -- relational operators -------------------------------------------

    def inverse(self) -> "Relation":
        """``r^-1``."""
        if self._rows is not None:
            return self._with_rows(inverse_rows(self._rows))
        return self._wrap((b, a) for a, b in self.pairs)

    def sequence(self, other: "Relation") -> "Relation":
        """``r1 ; r2`` — relational composition."""
        if self._row_path(other):
            return self._with_rows(sequence_rows(self._rows, other._rows))
        succ = other.successors()
        out: Set[Pair] = set()
        for a, b in self.pairs:
            for c in succ.get(b, ()):
                out.add((a, c))
        return self._wrap(out)

    def optional(self) -> "Relation":
        """``r?`` — reflexive closure over the universe."""
        if self._rows is not None:
            return self._with_rows(optional_rows(self._rows))
        return self._wrap(self.pairs | {(e, e) for e in self.universe})

    def transitive_closure(self) -> "Relation":
        """``r+``."""
        if self._rows is not None:
            return self._with_rows(closure_rows(self._rows))
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
        if self._rows is not None:
            return self._with_rows(optional_rows(closure_rows(self._rows)))
        return self._wrap(
            self.transitive_closure().pairs | {(e, e) for e in self.universe}
        )

    # -- restriction helpers ---------------------------------------------

    def restrict(
        self,
        domain: Optional[EventSet] = None,
        range_: Optional[EventSet] = None,
    ) -> "Relation":
        """Restrict domain and/or range to the given event sets.  In
        production an event outside the universe raises ``KeyError``."""
        if self._rows is not None:
            mask_of = self.index.mask_of
            return self._with_rows(
                restrict_rows(
                    self._rows,
                    None if domain is None else mask_of(domain),
                    None if range_ is None else mask_of(range_),
                )
            )
        pairs = self.pairs
        if domain is not None:
            pairs = {(a, b) for a, b in pairs if a in domain}
        if range_ is not None:
            pairs = {(a, b) for a, b in pairs if b in range_}
        return self._wrap(pairs)

    def domain(self) -> EventSet:
        if self._rows is not None:
            return self._event_set(domain_mask(self._rows))
        return EventSet((a for a, _ in self._pairs), self.universe)

    def range(self) -> EventSet:
        if self._rows is not None:
            return self._event_set(range_mask(self._rows))
        return EventSet((b for _, b in self._pairs), self.universe)

    def filter(self, predicate: Callable[[Event, Event], bool]) -> "Relation":
        return self._wrap((a, b) for a, b in self.pairs if predicate(a, b))

    # -- checks -----------------------------------------------------------

    def is_empty(self) -> bool:
        if self._rows is not None:
            return not any(self._rows)
        return not self._pairs

    def is_irreflexive(self) -> bool:
        if self._rows is not None:
            return not reflexive_mask(self._rows)
        return all(a is not b and a != b for a, b in self.pairs)

    def reflexive_pairs(self) -> List[Pair]:
        """The ``(e, e)`` pairs of the relation (irreflexivity witnesses)."""
        if self._rows is not None:
            events = self.index.events
            return [
                (events[i], events[i])
                for i in _bits(reflexive_mask(self._rows))
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
        if self._rows is not None:
            positions = find_cycle_rows(self._rows)
            if positions is None:
                return None
            events = self.index.events
            return [events[i] for i in positions]
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
