"""Integer-indexed relations: adjacency bitset rows.

In production a :class:`repro.relations.Relation` is an
:class:`EventIndex` plus bitset rows (the oracle keeps frozenset pairs
only).  The index maps the events of one execution to dense positions
``0..n-1`` once, and a relation is ``n`` Python integers, row ``i``
holding a bitmask of the successors of event ``i``.  This module holds
the index and the operators as plain functions over row lists, shared by
``Relation``, the bytecode VM (:mod:`repro.kernel.vm`, whose registers
hold bare rows) and the symbolic prover.  Every cat operator is
word-parallel bit arithmetic:

* union / intersection / difference / complement — one ``|``/``&``/``&~``
  per row;
* sequence (``;``) — row ``i`` of ``r1 ; r2`` is the OR of the ``r2`` rows
  of ``r1``'s successors;
* transitive closure — bitset Floyd–Warshall (``n**2`` word operations);
* acyclicity — a DFS over bitmask rows, with cycle extraction for the
  model's violation witnesses.

Everything here is deterministic: events are indexed in ``eid`` order, so
two indices built independently for equal universes are interchangeable,
and DFS visits successors lowest-index first.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.events import Event
from repro.obs import core as _obs


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _popcount_fallback(mask: int) -> int:
    # Pure-Python popcount for Python 3.9, where int.bit_count does not
    # exist yet.
    return bin(mask).count("1")


# Native popcount when available (Python >= 3.10); int.bit_count used as
# an unbound method is the fastest spelling.
_popcount = getattr(int, "bit_count", _popcount_fallback)


# -- row operations ----------------------------------------------------------
#
# The relational operators on bare row lists, shared by the bitset
# representation of :class:`repro.relations.Relation`, the VM's verdicts
# and the symbolic prover's must/may matrices (which index skeleton
# events, not an execution's events).


def inverse_rows(rows: List[int]) -> List[int]:
    """The transpose of ``rows``."""
    out = [0] * len(rows)
    bit = 1
    for row in rows:
        while row:
            low = row & -row
            out[low.bit_length() - 1] |= bit
            row ^= low
        bit <<= 1
    return out


def sequence_rows(first: List[int], second: List[int]) -> List[int]:
    """Relational composition ``first ; second``."""
    out = []
    append = out.append
    for row in first:
        acc = 0
        while row:
            low = row & -row
            acc |= second[low.bit_length() - 1]
            row ^= low
        append(acc)
    return out


def closure_rows(rows: List[int]) -> List[int]:
    """The transitive closure of ``rows``."""
    # Bitset Floyd–Warshall: after processing k, row i holds every node
    # reachable from i via intermediates <= k.
    rows = list(rows)
    for k, row_k in enumerate(rows):
        if not row_k:
            continue
        bit = 1 << k
        for i in range(len(rows)):
            if rows[i] & bit:
                rows[i] |= rows[k]
    return rows


def complement_rows(rows: List[int], full: int) -> List[int]:
    """``~rows``, with ``full`` the mask of every position."""
    return [full & ~row for row in rows]


def optional_rows(rows: List[int]) -> List[int]:
    """``rows?``: every position related to itself as well."""
    return [row | (1 << i) for i, row in enumerate(rows)]


def restrict_rows(
    rows: List[int], domain_mask: Optional[int], range_mask: Optional[int]
) -> List[int]:
    """The pairs of ``rows`` whose source lies in ``domain_mask`` and
    whose target lies in ``range_mask`` (``None``: unrestricted)."""
    out = rows
    if range_mask is not None:
        out = [row & range_mask for row in out]
    if domain_mask is not None:
        out = [row if domain_mask >> i & 1 else 0 for i, row in enumerate(out)]
    return out if out is not rows else list(rows)


def domain_mask(rows: List[int]) -> int:
    """Bitmask of the positions with a successor."""
    mask = 0
    for i, row in enumerate(rows):
        if row:
            mask |= 1 << i
    return mask


def range_mask(rows: List[int]) -> int:
    """Bitmask of the positions with a predecessor."""
    mask = 0
    for row in rows:
        mask |= row
    return mask


def reflexive_mask(rows: List[int]) -> int:
    """Bitmask of the positions related to themselves."""
    mask = 0
    for i, row in enumerate(rows):
        bit = 1 << i
        if row & bit:
            mask |= bit
    return mask


def find_cycle_rows(rows: List[int]) -> Optional[List[int]]:
    """One cycle as positions ``[i0, ..., i0]``, or ``None``.

    Mirrors the reference DFS of :meth:`repro.relations.Relation.find_cycle`
    (three-colour, iterative) so cycle witnesses have the same shape in
    both configurations.
    """
    n = len(rows)
    WHITE, GREY, BLACK = 0, 1, 2
    colour = [WHITE] * n
    parent = [0] * n

    for root in range(n):
        if colour[root] != WHITE or not rows[root]:
            continue
        colour[root] = GREY
        stack: List[Tuple[int, Iterator[int]]] = [(root, _bits(rows[root]))]
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                state = colour[nxt]
                if state == GREY:
                    cycle = [nxt, node]
                    cursor = node
                    while cursor != nxt:
                        cursor = parent[cursor]
                        cycle.append(cursor)
                    cycle.reverse()
                    if cycle[0] != cycle[-1]:
                        cycle.append(cycle[0])
                    return cycle
                if state == WHITE:
                    colour[nxt] = GREY
                    parent[nxt] = node
                    stack.append((nxt, _bits(rows[nxt])))
                    advanced = True
                    break
            if not advanced:
                colour[node] = BLACK
                stack.pop()
    return None


class EventIndex:
    """A dense ``event -> 0..n-1`` mapping for one universe.

    Events are ordered by ``eid`` so the mapping is canonical: any two
    indices over equal universes assign the same position to each event.
    """

    __slots__ = ("universe", "events", "pos", "n", "full_row")

    def __init__(self, universe: Iterable[Event]):
        self.events: List[Event] = sorted(universe, key=lambda e: e.eid)
        self.universe = frozenset(self.events)
        self.pos: Dict[Event, int] = {e: i for i, e in enumerate(self.events)}
        self.n = len(self.events)
        self.full_row = (1 << self.n) - 1

    def mask_of(self, events: Iterable[Event]) -> int:
        """Bitmask of the given events.  Raises ``KeyError`` on strangers."""
        mask = 0
        pos = self.pos
        for event in events:
            mask |= 1 << pos[event]
        return mask


#: Bounded index cache, keyed by universe *identity*.  Universes repeat
#: heavily within one litmus run (every rf×co candidate of a trace
#: combination shares one frozenset object), so interning avoids
#: rebuilding the mapping.  Identity, not equality: events compare by
#: ``eid`` only, so equal-looking universes from different trace
#: combinations carry different payloads (values, kinds) and must not
#: share canonical events.  Each entry keeps a strong reference to its
#: universe so the id cannot be recycled while cached.
_INDEX_CACHE: Dict[int, Tuple[frozenset, EventIndex]] = {}
_INDEX_CACHE_LIMIT = 128


def index_for(universe: frozenset) -> EventIndex:
    key = id(universe)
    entry = _INDEX_CACHE.get(key)
    if entry is not None and entry[0] is universe:
        if _obs.ENABLED:
            _obs.count("bitrel.index_hit")
        return entry[1]
    if _obs.ENABLED:
        _obs.count("bitrel.index_miss")
    index = EventIndex(universe)
    if len(_INDEX_CACHE) >= _INDEX_CACHE_LIMIT:
        _INDEX_CACHE.clear()
    _INDEX_CACHE[key] = (universe, index)
    return index


def reaches(rows: List[int], start: int, targets: int) -> bool:
    """True iff some node in ``targets`` (a bitmask) is reachable from
    ``start`` in the graph given by ``rows``.

    Used by the incremental coherence-order pruner: after adding edges
    that all point *into* a new node ``w``, a new cycle exists iff ``w``
    reaches one of the edges' sources.
    """
    seen = 1 << start
    frontier = rows[start]
    while frontier:
        if frontier & targets:
            return True
        fresh = frontier & ~seen
        if not fresh:
            return False
        seen |= fresh
        acc = 0
        for j in _bits(fresh):
            acc |= rows[j]
        frontier = acc & ~seen
    return False
