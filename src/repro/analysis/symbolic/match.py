"""Must/may entailment over the relational IR, for a whole skeleton.

Given the skeleton events of a litmus test and the communication edges
one condition-footprint scenario pins, :class:`MustMay` evaluates
compiled cat expressions (:mod:`repro.analysis.catir.ir`) bottom-up into
pairs of n×n bitset matrices over those events: ``must`` holds only
pairs provably in the relation in *every* execution carrying the edges,
``may`` every pair that can be in it in *some* such execution.  Event
sets become a pair of masks the same way.  Each IR node is evaluated
once per scenario, memoised by node identity.

Why a whole-skeleton evaluation is sound: every skeleton event occurs
in every execution (:mod:`.skeleton`), so a cycle among ``must`` pairs
is a cycle of the real relation in every execution under consideration.
A check is violated when ``must`` of an ``irreflexive`` root, or the
``must`` closure of an ``acyclic`` root, has a diagonal bit — the
critical-cycle test of Herding Cats, phrased as a boolean matrix
question about the axioms (Akgün et al.).

Base facts (exact on skeleton pairs unless noted):

* ``po`` — positions carry their thread and trace index; thread_sem
  emits events in program order, so ``same tid ∧ earlier index`` is
  exactly po.
* ``addr``/``data``/``ctrl`` — the skeleton's dependency sets replicate
  thread_sem's taint computation index for index.
* ``rf``/``co`` — ``must`` is the pairs the caller pinned from the
  condition footprint; ``may`` is everything.
* ``int``/``ext``/``loc``/``id`` — structural facts of the events;
  ``rmw`` is empty (the skeleton fragment has no RMWs); ``crit`` and
  unknown names prove nothing.
* sets — kinds and tags are exact, ``IW`` is empty (initial writes are
  never skeleton events), anything else is unknown.

Operators: ``union``/``inter`` combine pointwise, ``diff`` is
``must(a) & ~may(b)``, ``compl`` swaps ``must`` and ``may`` under
negation, ``inverse`` transposes, ``opt`` adds the identity, ``setid``/
``cartesian``/``fencerel`` come from set masks, ``seq`` is a row
product, ``plus``/``star`` close ``must`` transitively, and ``rec``
groups iterate ``must`` from empty (every iterate is sound, so the
result never depends on a proof of itself).  ``may`` stays *full* for
``seq``, ``plus``, ``star`` and ``rec``: their intermediate events can be
initial writes, which are not skeleton events, so a ``may`` over
skeleton intermediates alone would be unsound.

The one relation whose natural witness is *not* a skeleton event —
``fr = rf^-1 ; co``, whose middle event is the read's (possibly initial)
coherence predecessor — is fused structurally: a ``rf^-1 ; co`` operand
pair in a ``seq`` also contributes the pinned from-read edges.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.cat import TAG_SETS
from repro.events import FENCE, READ, WRITE
from repro.kernel.bitrel import closure_rows, inverse_rows, sequence_rows

from repro.analysis.catir import ir
from repro.analysis.symbolic.skeleton import SkelEvent

Key = Tuple[int, int]
Pair = Tuple[Key, Key]
Rows = List[int]


class EdgeSet:
    """Communication edges guaranteed in every execution under
    consideration (a condition-footprint scenario)."""

    __slots__ = ("rf", "co", "fr")

    def __init__(
        self,
        rf: FrozenSet[Pair] = frozenset(),
        co: FrozenSet[Pair] = frozenset(),
        fr: FrozenSet[Pair] = frozenset(),
    ):
        self.rf = frozenset(rf)
        self.co = frozenset(co)
        self.fr = frozenset(fr)

    def union(self, other: "EdgeSet") -> "EdgeSet":
        return EdgeSet(
            self.rf | other.rf, self.co | other.co, self.fr | other.fr
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, EdgeSet)
            and self.rf == other.rf
            and self.co == other.co
            and self.fr == other.fr
        )

    def __hash__(self) -> int:
        return hash((self.rf, self.co, self.fr))


def _is_fr_fusion(first: ir.Node, second: ir.Node) -> bool:
    return (
        first.kind == "inverse"
        and first.operands[0].kind == "base"
        and first.operands[0].name == "rf"
        and second.kind == "base"
        and second.name == "co"
    )


class MustMay:
    """The ``(must, may)`` value of IR nodes over one event list and one
    edge scenario.  Relations are row lists (row ``i`` is a bitmask of
    the successors of ``events[i]``), sets are masks."""

    def __init__(self, events: Sequence[SkelEvent], edges: EdgeSet):
        self.events = list(events)
        n = self.n = len(self.events)
        self.full = (1 << n) - 1
        self.zero: Rows = [0] * n
        self.everything: Rows = [self.full] * n
        self.identity: Rows = [1 << i for i in range(n)]
        self.edges = edges
        self._where = {event.key: i for i, event in enumerate(self.events)}
        self._memo: Dict[int, tuple] = {}
        #: rec group id -> ids of memoised nodes that read the group.
        self._readers: Dict[int, List[int]] = {}
        self._bases: Dict[str, Tuple[Rows, Rows]] = {}

    # -- helpers -----------------------------------------------------------

    def _rows_of(self, pairs) -> Rows:
        where = self._where
        rows = [0] * self.n
        for a, b in pairs:
            if a in where and b in where:
                rows[where[a]] |= 1 << where[b]
        return rows

    def _group_masks(self, attr: str) -> Rows:
        """Row ``i``: the events sharing ``events[i].<attr>``."""
        groups: Dict[object, int] = {}
        for event, bit in zip(self.events, self.identity):
            value = getattr(event, attr)
            groups[value] = groups.get(value, 0) | bit
        return [groups[getattr(event, attr)] for event in self.events]

    def _mask_where(self, test) -> int:
        return sum(1 << i for i, event in enumerate(self.events)
                   if test(event))

    def _diag(self, mask: int) -> Rows:
        return [bit if mask & bit else 0 for bit in self.identity]

    # -- public queries ----------------------------------------------------

    def must(self, node: ir.Node) -> Rows:
        """Pairs provably in ``node`` in every execution."""
        return self.relation(node)[0]

    def relation(self, node: ir.Node) -> Tuple[Rows, Rows]:
        """``(must, may)`` rows of a relation-sorted node."""
        key = id(node)
        value = self._memo.get(key)
        if value is None:
            value = self._relation(node)
            self._memo[key] = value
            if node.kind != "rec":
                for gid in node.rec_ids:
                    self._readers.setdefault(gid, []).append(key)
        return value

    def event_set(self, node: ir.Node) -> Tuple[int, int]:
        """``(must, may)`` masks of a set-sorted node."""
        key = id(node)
        value = self._memo.get(key)
        if value is None:
            value = self._set(node)
            self._memo[key] = value
        return value

    # -- sets ----------------------------------------------------------------

    def _set(self, node: ir.Node) -> Tuple[int, int]:
        kind = node.kind
        full = self.full
        if kind == "base":
            name = node.name
            if name == "_":
                return full, full
            if name in ("R", "W", "F", "M"):
                kinds = {"R": (READ,), "W": (WRITE,), "F": (FENCE,),
                         "M": (READ, WRITE)}[name]
                mask = self._mask_where(lambda e: e.kind in kinds)
                return mask, mask
            if name == "IW":
                return 0, 0
            tag = TAG_SETS.get(name)
            if tag is not None:
                mask = self._mask_where(lambda e: e.tag == tag)
                return mask, mask
            return 0, full
        if kind == "empty":
            return 0, 0
        if kind in ("union", "inter"):
            values = [self.event_set(op) for op in node.operands]
            must, may = values[0]
            for op_must, op_may in values[1:]:
                if kind == "union":
                    must, may = must | op_must, may | op_may
                else:
                    must, may = must & op_must, may & op_may
            return must, may
        if kind == "diff":
            a_must, a_may = self.event_set(node.operands[0])
            b_must, b_may = self.event_set(node.operands[1])
            return a_must & ~b_may, a_may & ~b_must
        return 0, full  # domain/range/compl: unknown

    # -- relations -----------------------------------------------------------

    def _base(self, name: str) -> Tuple[Rows, Rows]:
        value = self._bases.get(name)
        if value is None:
            value = self._bases[name] = self._compute_base(name)
        return value

    def _compute_base(self, name: str) -> Tuple[Rows, Rows]:
        events = self.events
        if name == "po":
            rows = [
                sum(bit for b, bit in zip(events, self.identity)
                    if b.tid == a.tid and b.index > a.index)
                for a in events
            ]
        elif name in ("addr", "data", "ctrl"):
            rows = [0] * self.n
            for b, bit in zip(events, self.identity):
                for index in getattr(b, f"{name}_deps"):
                    source = self._where.get((b.tid, index))
                    if source is not None:
                        rows[source] |= bit
        elif name == "int":
            rows = self._group_masks("tid")
        elif name == "ext":
            rows = [self.full & ~row for row in self._group_masks("tid")]
        elif name == "loc":
            rows = [
                row if event.loc is not None else 0
                for event, row in zip(events, self._group_masks("loc"))
            ]
        elif name == "id":
            rows = self.identity
        elif name == "rmw":
            rows = self.zero
        elif name in ("rf", "co", "fr"):
            # Pinned edges; ``fr`` is not a cat builtin, only the fusion
            # in ``_seq`` reads it.
            return self._rows_of(getattr(self.edges, name)), self.everything
        else:
            return self.zero, self.everything  # crit, unknown: no proofs
        return rows, rows

    def _relation(self, node: ir.Node) -> Tuple[Rows, Rows]:
        kind = node.kind
        if kind == "base":
            return self._base(node.name)
        if kind == "empty":
            return self.zero, self.zero
        if kind == "rec":
            return self._rec(node)
        if kind in ("union", "inter"):
            values = [self.relation(op) for op in node.operands]
            must, may = values[0]
            for op_must, op_may in values[1:]:
                if kind == "union":
                    must = [x | y for x, y in zip(must, op_must)]
                    may = [x | y for x, y in zip(may, op_may)]
                else:
                    must = [x & y for x, y in zip(must, op_must)]
                    may = [x & y for x, y in zip(may, op_may)]
            return must, may
        if kind == "diff":
            a_must, a_may = self.relation(node.operands[0])
            b_must, b_may = self.relation(node.operands[1])
            return (
                [x & ~y for x, y in zip(a_must, b_may)],
                [x & ~y for x, y in zip(a_may, b_must)],
            )
        if kind == "compl":
            must, may = self.relation(node.operands[0])
            full = self.full
            return [full & ~y for y in may], [full & ~x for x in must]
        if kind == "inverse":
            must, may = self.relation(node.operands[0])
            return inverse_rows(must), inverse_rows(may)
        if kind == "opt":
            must, may = self.relation(node.operands[0])
            ident = self.identity
            return (
                [x | i for x, i in zip(must, ident)],
                [x | i for x, i in zip(may, ident)],
            )
        if kind == "plus":
            return closure_rows(self.must(node.operands[0])), self.everything
        if kind == "star":
            closed = closure_rows(self.must(node.operands[0]))
            return (
                [x | i for x, i in zip(closed, self.identity)],
                self.everything,
            )
        if kind == "setid":
            must, may = self.event_set(node.operands[0])
            return self._diag(must), self._diag(may)
        if kind == "cartesian":
            a_must, a_may = self.event_set(node.operands[0])
            b_must, b_may = self.event_set(node.operands[1])
            return (
                [b_must if a_must & bit else 0 for bit in self.identity],
                [b_may if a_may & bit else 0 for bit in self.identity],
            )
        if kind == "fencerel":
            # po ; [S] ; po — every fence is a skeleton event.
            po = self._base("po")[0]
            must, may = self.event_set(node.operands[0])
            return (
                sequence_rows([row & must for row in po], po),
                sequence_rows([row & may for row in po], po),
            )
        if kind == "seq":
            return self._seq(node.operands), self.everything
        return self.zero, self.everything

    def _seq(self, operands: Tuple[ir.Node, ...]) -> Rows:
        # reach[t] = pairs (start, p) with p reached after operands[:t].
        count = len(operands)
        reach = [self.zero] * (count + 1)
        reach[0] = self.identity
        for t, op in enumerate(operands):
            current = reach[t]
            if not any(current):
                continue  # nothing to extend: skip evaluating ``op``
            step = sequence_rows(current, self.must(op))
            reach[t + 1] = [x | y for x, y in zip(reach[t + 1], step)]
            if t + 1 < count and _is_fr_fusion(op, operands[t + 1]):
                reach[t + 2] = sequence_rows(current, self._base("fr")[0])
        return reach[count]

    def _rec(self, node: ir.Node) -> Tuple[Rows, Rows]:
        group = ir.group_of(node)
        if not group.bodies:
            return self.zero, self.everything
        keys = [id(rec_node) for rec_node in group.rec_nodes]
        for key in keys:
            self._memo[key] = (self.zero, self.everything)
        changed = True
        while changed:
            for key in self._readers.pop(group.gid, ()):
                self._memo.pop(key, None)
            changed = False
            news = [self.must(body) for body in group.bodies]
            for key, new in zip(keys, news):
                old = self._memo[key][0]
                merged = [x | y for x, y in zip(old, new)]
                if merged != old:
                    self._memo[key] = (merged, self.everything)
                    changed = True
        return self._memo[id(node)]


def _has_diagonal(rows: Rows) -> bool:
    return any(row >> i & 1 for i, row in enumerate(rows))


def violated_check(
    events: Sequence[SkelEvent], edges: EdgeSet, checks
) -> Optional[str]:
    """The label of the first non-flag acyclic/irreflexive check that
    every execution carrying ``edges`` violates, or None.

    ``acyclic r`` is violated when the ``must`` closure of ``r`` has a
    diagonal bit, ``irreflexive r`` when ``must(r)`` itself has one.
    """
    values = MustMay(events, edges)
    for check in checks:
        if check.flag or check.negated:
            continue
        if check.kind == "acyclic":
            rows = closure_rows(values.must(check.root))
        elif check.kind == "irreflexive":
            rows = values.must(check.root)
        else:
            continue
        if _has_diagonal(rows):
            return check.label
    return None
