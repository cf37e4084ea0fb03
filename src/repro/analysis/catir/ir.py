"""The relational IR: interned, normalized, typed cat expression nodes.

Every :class:`Node` is *hash-consed*: the smart constructors below first
normalize their operands (flattening, sorting, constant folding) and then
intern the result in a process-global table, so two structurally equal
expressions — even ones compiled from different models — are the *same*
object and node equality is identity.  That single property powers the
whole layer: common-subexpression elimination in the check plan is just
"same node", and the model-diff analyzer detects renamed-but-identical
relations by pointer comparison.

Sorts mirror the CAT009 inference of :mod:`repro.analysis.catlint`: a
node is either an event :data:`SET` or a binary :data:`REL`; the compiler
(:mod:`repro.analysis.catir.compile`) inserts explicit ``[S]`` coercions
where the evaluator would coerce implicitly, so sorts here are always
consistent.

Normalization applies only *structural* identities that hold for every
candidate execution — ``x | 0 = x``, ``x & 0 = 0``, ``0 ; x = 0``,
``x \\ x = 0``, ``[S] ; [T] = [S & T]``, ``id ; r = r``, ``~~x = x``,
closure collapses like ``(x+)* = x*`` and ``[S]* = id``.  Heuristic
facts (tag disjointness, ``po`` vs ``ext``) are deliberately *not*
folded here: they live in :mod:`repro.analysis.catir.analyses` and can
only ever produce warnings, never change what the check plan evaluates.

The canonical pretty form (:attr:`Node.pstr`) is valid cat syntax: it
parses back (``repro.cat.parser.parse_expr_text``) and recompiles to the
same node, and it doubles as the deterministic sort key that canonicalises
commutative operand order.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Sequence, Tuple

#: The two cat sorts (same spelling as repro.analysis.catlint).
SET = "set"
REL = "relation"

#: Builtin relations that equal their own inverse.
SYMMETRIC_BASES = frozenset({"id", "loc", "int", "ext"})

#: Printing precedence, loosest first, mirroring the parser: ``|`` then
#: ``;`` then ``\`` then ``&`` then cartesian ``*`` then unary ``~`` then
#: the postfix operators; primaries bind tightest.
_LEVELS = {
    "union": 0,
    "seq": 1,
    "diff": 2,
    "inter": 3,
    "cartesian": 4,
    "compl": 5,
    "inverse": 6,
    "opt": 6,
    "plus": 6,
    "star": 6,
}
_PRIMARY_LEVEL = 7  # base, empty, rec, setid, domain, range, fencerel


class Node:
    """One interned IR node.  Never construct directly — use the smart
    constructors, which normalize and intern."""

    __slots__ = (
        "kind",
        "name",
        "operands",
        "sort",
        "varying",
        "rec_ids",
        "group_id",
        "pos",
        "pstr",
    )

    def __init__(self, kind, name, operands, sort, varying, rec_ids,
                 group_id, pos, pstr):
        self.kind = kind
        self.name = name
        self.operands: Tuple[Node, ...] = operands
        self.sort = sort
        #: True when the value can depend on the execution witness (rf/co).
        self.varying = varying
        #: Group ids of every ``let rec`` group referenced underneath.
        self.rec_ids = rec_ids
        self.group_id = group_id  # rec nodes only
        self.pos = pos  # rec nodes only: index within the group
        #: Canonical cat-syntax rendering (also the commutative sort key).
        self.pstr = pstr

    @property
    def level(self) -> int:
        return _LEVELS.get(self.kind, _PRIMARY_LEVEL)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ir:{self.sort} {self.pstr}>"


class RecGroup:
    """One interned ``let rec`` group: its names, the :class:`Node` per
    binding, and the compiled bodies (set once, after compilation)."""

    __slots__ = ("gid", "names", "rec_nodes", "bodies")

    def __init__(self, gid: int, names: Tuple[str, ...],
                 rec_nodes: Tuple[Node, ...]):
        self.gid = gid
        self.names = names
        self.rec_nodes = rec_nodes
        self.bodies: Tuple[Node, ...] = ()


#: Intern table: structural key -> the one Node for that structure.
_INTERN: Dict[tuple, Node] = {}
#: Registered rec groups by id, and by canonical body serialization.
_GROUPS: Dict[int, RecGroup] = {}
_GROUP_CANON: Dict[tuple, RecGroup] = {}
_GROUP_IDS = itertools.count()

#: Builtin identifiers whose value varies with the execution witness:
#: the seed of every node's ``varying`` flag.
_VARYING_BASES = frozenset({"rf", "co"})


def _wrap(node: Node, parent_level: int) -> str:
    if node.level > parent_level:
        return node.pstr
    return f"({node.pstr})"


def _intern(kind, *, name=None, operands=(), sort=REL, group_id=None,
            pos=None, pstr=None, varying=None) -> Node:
    key = (kind, name, sort, group_id, pos, tuple(id(op) for op in operands))
    node = _INTERN.get(key)
    if node is not None:
        return node
    if varying is None:
        varying = any(op.varying for op in operands)
    rec_ids = frozenset().union(*(op.rec_ids for op in operands)) \
        if operands else frozenset()
    if kind == "rec":
        rec_ids = frozenset({group_id})
    node = Node(kind, name, tuple(operands), sort, varying, rec_ids,
                group_id, pos, pstr)
    _INTERN[key] = node
    return node


# -- leaves -------------------------------------------------------------------


def base(name: str, sort: str) -> Node:
    """A builtin relation or set (``po``, ``Acquire``, ``_``, ``id``)."""
    return _intern("base", name=name, sort=sort, pstr=name,
                   varying=name in _VARYING_BASES)


def empty(sort: str = REL) -> Node:
    """The empty relation (``0``) or the empty event set."""
    return _intern("empty", sort=sort, pstr="0", varying=False)


def rec(name: str, group_id: int, pos: int) -> Node:
    """A reference to one binding of a ``let rec`` group.

    Conservatively ``varying``: recursive groups in practice reach
    ``rf``/``co``, and soundness only requires never marking a varying
    node invariant.
    """
    return _intern("rec", name=name, sort=REL, group_id=group_id, pos=pos,
                   pstr=name, varying=True)


# -- commutative n-ary constructors -------------------------------------------


def _sort_key(node: Node):
    # pstr alone is ambiguous for rec nodes of different groups that share
    # a binding name; group identity breaks the tie deterministically.
    return (node.pstr, node.group_id if node.group_id is not None else -1,
            node.pos if node.pos is not None else -1)


def union(operands: Iterable[Node]) -> Node:
    ops: List[Node] = []
    sort = REL
    for op in operands:
        sort = op.sort
        if op.kind == "union":
            ops.extend(op.operands)
        elif op.kind != "empty":
            ops.append(op)
    seen: Dict[int, None] = {}
    unique = [op for op in ops
              if id(op) not in seen and seen.setdefault(id(op)) is None]
    if not unique:
        return empty(sort)
    if len(unique) == 1:
        return unique[0]
    unique.sort(key=_sort_key)
    pstr = " | ".join(_wrap(op, 0) for op in unique)
    return _intern("union", operands=unique, sort=unique[0].sort, pstr=pstr)


def inter(operands: Iterable[Node]) -> Node:
    ops: List[Node] = []
    sort = REL
    for op in operands:
        sort = op.sort
        if op.kind == "empty":
            return empty(op.sort)
        if op.kind == "inter":
            ops.extend(op.operands)
        elif not (op.kind == "base" and op.name == "_"):
            # S & _ = S for event sets (``_`` is the universe).
            ops.append(op)
    seen: Dict[int, None] = {}
    unique = [op for op in ops
              if id(op) not in seen and seen.setdefault(id(op)) is None]
    if not unique:
        # Every operand was the universe set.
        return base("_", SET) if sort == SET else empty(sort)
    if len(unique) == 1:
        return unique[0]
    unique.sort(key=_sort_key)
    pstr = " & ".join(_wrap(op, 3) for op in unique)
    return _intern("inter", operands=unique, sort=unique[0].sort, pstr=pstr)


# -- relation algebra ---------------------------------------------------------


def seq(operands: Iterable[Node]) -> Node:
    flat: List[Node] = []
    for op in operands:
        if op.kind == "empty":
            return empty(REL)
        if op.kind == "seq":
            flat.extend(op.operands)
        else:
            flat.append(op)
    # Fuse adjacent restrictions: [S] ; [T] = [S & T]; drop identities:
    # id ; r = r.
    fused: List[Node] = []
    for op in flat:
        if op.kind == "base" and op.name == "id":
            continue
        if fused and fused[-1].kind == "setid" and op.kind == "setid":
            merged = setid(inter([fused[-1].operands[0], op.operands[0]]))
            fused[-1] = merged
            if merged.kind == "empty":
                return empty(REL)
            continue
        fused.append(op)
    if not fused:
        return base("id", REL)
    if len(fused) == 1:
        return fused[0]
    pstr = " ; ".join(_wrap(op, 1) for op in fused)
    return _intern("seq", operands=fused, sort=REL, pstr=pstr)


def diff(lhs: Node, rhs: Node) -> Node:
    if rhs.kind == "empty":
        return lhs
    if lhs.kind == "empty" or lhs is rhs:
        return empty(lhs.sort)
    pstr = f"{_wrap(lhs, 2)} \\ {_wrap(rhs, 2)}"
    return _intern("diff", operands=(lhs, rhs), sort=lhs.sort, pstr=pstr)


def cartesian(lhs: Node, rhs: Node) -> Node:
    if lhs.kind == "empty" or rhs.kind == "empty":
        return empty(REL)
    pstr = f"{_wrap(lhs, 4)} * {_wrap(rhs, 4)}"
    return _intern("cartesian", operands=(lhs, rhs), sort=REL, pstr=pstr)


def compl(operand: Node) -> Node:
    if operand.kind == "compl":
        return operand.operands[0]
    pstr = f"~{_wrap(operand, 5)}"
    return _intern("compl", operands=(operand,), sort=operand.sort, pstr=pstr)


def inverse(operand: Node) -> Node:
    if operand.kind == "empty":
        return operand
    if operand.kind == "inverse":
        return operand.operands[0]
    if operand.kind == "setid":
        return operand
    if operand.kind == "base" and operand.name in SYMMETRIC_BASES:
        return operand
    pstr = f"{_wrap(operand, 6)}^-1"
    return _intern("inverse", operands=(operand,), sort=REL, pstr=pstr)


def opt(operand: Node) -> Node:
    if operand.kind == "empty":
        return base("id", REL)
    if operand.kind in ("opt", "star"):
        return operand
    if operand.kind == "plus":
        return star(operand.operands[0])
    if operand.kind == "base" and operand.name == "id":
        return operand
    pstr = f"{_wrap(operand, 6)}?"
    return _intern("opt", operands=(operand,), sort=REL, pstr=pstr)


def plus(operand: Node) -> Node:
    if operand.kind in ("empty", "plus", "star"):
        return operand
    if operand.kind == "opt":
        return star(operand.operands[0])
    if operand.kind == "setid" or (
        operand.kind == "base" and operand.name == "id"
    ):
        # Subidentities are idempotent: [S]+ = [S].
        return operand
    pstr = f"{_wrap(operand, 6)}+"
    return _intern("plus", operands=(operand,), sort=REL, pstr=pstr)


def star(operand: Node) -> Node:
    if operand.kind == "empty":
        return base("id", REL)
    if operand.kind in ("star", "plus", "opt"):
        return star(operand.operands[0]) if operand.kind != "star" \
            else operand
    if operand.kind == "setid" or (
        operand.kind == "base" and operand.name == "id"
    ):
        # r* = r+ | id and a subidentity's closure is the full identity.
        return base("id", REL)
    pstr = f"{_wrap(operand, 6)}*"
    return _intern("star", operands=(operand,), sort=REL, pstr=pstr)


def setid(operand: Node) -> Node:
    """``[S]`` — the identity relation on set ``S``."""
    if operand.kind == "empty":
        return empty(REL)
    if operand.kind == "base" and operand.name == "_":
        return base("id", REL)
    pstr = f"[{operand.pstr}]"
    return _intern("setid", operands=(operand,), sort=REL, pstr=pstr)


def domain(operand: Node) -> Node:
    if operand.kind == "empty":
        return empty(SET)
    if operand.kind == "setid":
        return operand.operands[0]
    if operand.kind == "base" and operand.name == "id":
        return base("_", SET)
    pstr = f"domain({operand.pstr})"
    return _intern("domain", operands=(operand,), sort=SET, pstr=pstr)


def range_(operand: Node) -> Node:
    if operand.kind == "empty":
        return empty(SET)
    if operand.kind == "setid":
        return operand.operands[0]
    if operand.kind == "base" and operand.name == "id":
        return base("_", SET)
    pstr = f"range({operand.pstr})"
    return _intern("range", operands=(operand,), sort=SET, pstr=pstr)


def fencerel(operand: Node) -> Node:
    if operand.kind == "empty":
        return empty(REL)
    pstr = f"fencerel({operand.pstr})"
    return _intern("fencerel", operands=(operand,), sort=REL, pstr=pstr)


# -- rec groups ---------------------------------------------------------------


def fresh_group_id() -> int:
    return next(_GROUP_IDS)


def group_of(node: Node) -> RecGroup:
    """The :class:`RecGroup` a ``rec`` node belongs to."""
    return _GROUPS[node.group_id]


def _canon(node: Node, own: Dict[int, int], memo: Dict[int, tuple]) -> tuple:
    """A serialization of ``node`` where this group's rec nodes are
    positional and other groups' rec nodes carry their (canonical) group
    id — names alone would conflate distinct outer groups."""
    cached = memo.get(id(node))
    if cached is not None:
        return cached
    if node.kind == "rec":
        pos = own.get(id(node))
        if pos is not None:
            result = ("rec-self", pos)
        else:
            result = ("rec", node.group_id, node.pos)
    else:
        result = (node.kind, node.name, node.sort,
                  tuple(_canon(op, own, memo) for op in node.operands))
    memo[id(node)] = result
    return result


def intern_group(names: Sequence[str], rec_nodes: Sequence[Node],
                 bodies: Sequence[Node]) -> RecGroup:
    """Register a compiled ``let rec`` group, unifying it with any
    previously interned group that has the same names and bodies (the
    power/armv7 ``ii``/``ic``/``ci``/``cc`` groups, for instance)."""
    own = {id(rn): i for i, rn in enumerate(rec_nodes)}
    memo: Dict[int, tuple] = {}
    key = (tuple(names), tuple(_canon(b, own, memo) for b in bodies))
    existing = _GROUP_CANON.get(key)
    if existing is not None:
        return existing
    group = RecGroup(rec_nodes[0].group_id, tuple(names), tuple(rec_nodes))
    group.bodies = tuple(bodies)
    _GROUPS[group.gid] = group
    _GROUP_CANON[key] = group
    return group
