"""Synthesising litmus tests from cycles of relaxation edges.

Given a cycle such as ``Rfe PodRR Fre MbdWW`` the generator:

1. resolves the kind (read/write) and annotation of every node — node *i*
   is the target of edge *i-1* and the source of edge *i*;
2. groups nodes into threads (communication edges change thread) and
   assigns locations (communication edges stay on one location,
   program-order edges move to a different one);
3. emits the code, realising fences and dependencies (dependencies use
   the diy trick of a false computation, ``p + (r & 0)``, which preserves
   the value while carrying the taint);
4. builds the ``exists`` clause identifying exactly the cycle's execution:
   each read's value names its reads-from source (or 0 for an initial
   read), and multi-write locations pin the final value.

The systematic exploration of Section 5 ("cycles of edges of increasing
size") is :func:`generate_cycles`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.events import ACQUIRE, ONCE, Pointer, READ, RELEASE, WRITE
from repro.diy.edges import ANY, Edge, edge
from repro.litmus.ast import (
    BinOp,
    Const,
    Fence,
    If,
    Instruction,
    Load,
    Program,
    Reg,
    Store,
    Thread,
)
from repro.litmus.outcomes import (
    Condition,
    Exists,
    LocValue,
    RegValue,
    conj,
    exists,
)


class CycleError(Exception):
    """Raised when a cycle cannot be realised as a litmus test."""


@dataclass
class _Node:
    index: int
    kind: str
    annot: str
    thread: int = -1
    loc: str = ""
    value: int = 0  # value written (writes only)
    reg: str = ""  # destination register (reads only)


def name_of_cycle(edge_names: Sequence[str]) -> str:
    return "+".join(edge_names)


def generate(edge_names: Sequence[str], name: Optional[str] = None) -> Program:
    """Build the litmus test realising the given cycle of edges."""
    if not edge_names:
        raise CycleError("empty cycle")
    edges = [edge(n) if isinstance(n, str) else n for n in edge_names]
    n = len(edges)

    # Rotate so the cycle starts just after an external edge: node 0 then
    # begins thread 0.
    externals = [i for i, e in enumerate(edges) if e.external]
    if not externals:
        raise CycleError("a cycle needs at least one communication edge")
    shift = (externals[-1] + 1) % n
    edges = edges[shift:] + edges[:shift]

    nodes = [_resolve_node(edges, i) for i in range(n)]
    _assign_threads(edges, nodes)
    _assign_locations(edges, nodes)
    _assign_values(edges, nodes)
    condition = _build_condition(edges, nodes)
    threads = _emit_threads(edges, nodes)

    init = {node.loc: 0 for node in nodes}
    return Program(
        name=name or name_of_cycle([e.name for e in edges]),
        threads=tuple(threads),
        init=init,
        condition=condition,
    )


# -- resolution ---------------------------------------------------------------


def _resolve_node(edges: List[Edge], index: int) -> _Node:
    outgoing = edges[index]
    incoming = edges[index - 1]
    kinds = {outgoing.src, incoming.tgt} - {ANY}
    if not kinds:
        raise CycleError(
            f"node {index} has no determined kind "
            f"(between {incoming.name} and {outgoing.name})"
        )
    if len(kinds) > 1:
        raise CycleError(
            f"node {index} must be both {' and '.join(sorted(kinds))} "
            f"(between {incoming.name} and {outgoing.name})"
        )
    # ``kinds`` has exactly one element here, but extract it with min()
    # rather than pop(): set iteration order depends on string hashes,
    # which vary across processes (PYTHONHASHSEED), and the generator
    # must be bit-for-bit deterministic across worker processes.
    kind = min(kinds)

    annots = {outgoing.src_annot, incoming.tgt_annot} - {None}
    if len(annots) > 1:
        raise CycleError(
            f"conflicting annotations at node {index}: {sorted(annots)}"
        )
    annot = min(annots) if annots else ONCE
    if annot == ACQUIRE and kind != READ:
        raise CycleError(f"acquire annotation on a write at node {index}")
    if annot == RELEASE and kind != WRITE:
        raise CycleError(f"release annotation on a read at node {index}")
    return _Node(index, kind, annot)


def _assign_threads(edges: List[Edge], nodes: List[_Node]) -> None:
    thread = 0
    for i, node in enumerate(nodes):
        node.thread = thread
        if edges[i].external:
            thread += 1
    # The final external edge wraps back to node 0 / thread 0, which is
    # guaranteed by the rotation in generate().


def _assign_locations(edges: List[Edge], nodes: List[_Node]) -> None:
    n = len(nodes)
    # Union-find over node indices: external edges identify locations.
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, e in enumerate(edges):
        if e.external:
            a, b = find(i), find((i + 1) % n)
            parent[a] = b

    # Internal ("different location") edges must join distinct classes.
    for i, e in enumerate(edges):
        if not e.external and find(i) == find((i + 1) % n):
            raise CycleError(
                f"edge {e.name} requires a location change but the cycle "
                "identifies both endpoints' locations"
            )

    names = ["x", "y", "z", "a", "b", "c", "d", "e"]
    class_loc: Dict[int, str] = {}
    for node in nodes:
        root = find(node.index)
        if root not in class_loc:
            if len(class_loc) >= len(names):
                raise CycleError("too many locations in cycle")
            class_loc[root] = names[len(class_loc)]
        node.loc = class_loc[root]


def _assign_values(edges: List[Edge], nodes: List[_Node]) -> None:
    by_loc: Dict[str, List[_Node]] = {}
    for node in nodes:
        if node.kind == WRITE:
            by_loc.setdefault(node.loc, []).append(node)
    for writes in by_loc.values():
        for value, node in enumerate(writes, start=1):
            node.value = value
    reads = 0
    for node in nodes:
        if node.kind == READ:
            node.reg = f"r{reads}"
            reads += 1


# -- the exists clause -------------------------------------------------------


def _build_condition(edges: List[Edge], nodes: List[_Node]) -> Exists:
    n = len(nodes)
    rf_source: Dict[int, _Node] = {}
    co_constraints: Dict[str, List[Tuple[_Node, _Node]]] = {}

    for i, e in enumerate(edges):
        src, tgt = nodes[i], nodes[(i + 1) % n]
        if e.comm == "rf":
            rf_source[tgt.index] = src
        elif e.comm == "co":
            co_constraints.setdefault(src.loc, []).append((src, tgt))

    # Fre(r, w): r's source must be co-before w.
    for i, e in enumerate(edges):
        if e.comm != "fr":
            continue
        read, write = nodes[i], nodes[(i + 1) % n]
        source = rf_source.get(read.index)
        if source is not None:
            co_constraints.setdefault(write.loc, []).append((source, write))

    clauses: List[Condition] = []
    for node in nodes:
        if node.kind != READ:
            continue
        source = rf_source.get(node.index)
        clauses.append(
            RegValue(node.thread, node.reg, source.value if source else 0)
        )

    # Locations with several writes: pin the final (co-maximal) value.
    writes_per_loc: Dict[str, List[_Node]] = {}
    for node in nodes:
        if node.kind == WRITE:
            writes_per_loc.setdefault(node.loc, []).append(node)
    for loc, writes in writes_per_loc.items():
        if len(writes) == 1:
            continue
        maximal = _co_maximal(writes, co_constraints.get(loc, []))
        clauses.append(LocValue(loc, maximal.value))

    return exists(conj(*clauses))


def _co_maximal(
    writes: List[_Node], constraints: List[Tuple[_Node, _Node]]
) -> _Node:
    """The unique co-maximal write, per the cycle's constraints."""
    dominated: Set[int] = {a.index for a, _ in constraints}
    candidates = [w for w in writes if w.index not in dominated]
    if len(candidates) != 1:
        raise CycleError(
            "cannot determine a unique final write for location "
            f"{writes[0].loc}: the cycle under-constrains coherence"
        )
    return candidates[0]


# -- code emission -------------------------------------------------------------


def _emit_threads(edges: List[Edge], nodes: List[_Node]) -> List[Thread]:
    n = len(nodes)
    threads: Dict[int, List[Instruction]] = {}
    for i, node in enumerate(nodes):
        incoming = edges[i - 1]
        body = threads.setdefault(node.thread, [])
        dep = incoming.dep if not incoming.external else None
        dep_reg = nodes[i - 1].reg if dep else ""
        instruction = _emit_access(node, dep, dep_reg)
        if not incoming.external and incoming.fence:
            body.append(Fence(incoming.fence))
        if dep == "ctrl":
            body.append(
                If(_false_guard(dep_reg), (instruction,), ())
            )
        else:
            body.append(instruction)
    return [threads[tid] and Thread(tuple(threads[tid])) for tid in sorted(threads)]


def _false_guard(reg: str) -> BinOp:
    """``(r & 0) == 0`` — always true, but control-dependent on r."""
    return BinOp("==", BinOp("&", Reg(reg), Const(0)), Const(0))


def _emit_access(node: _Node, dep: Optional[str], dep_reg: str) -> Instruction:
    addr = Const(Pointer(node.loc))
    if dep == "addr":
        # p + (r & 0): same address, tainted by r.
        addr = BinOp("+", addr, BinOp("&", Reg(dep_reg), Const(0)))
    if node.kind == READ:
        return Load(node.reg, addr, node.annot)
    value = Const(node.value)
    if dep == "data":
        value = BinOp("|", value, BinOp("&", Reg(dep_reg), Const(0)))
    return Store(addr, value, node.annot)


# -- systematic exploration -----------------------------------------------------


def canonical_cycle(edge_names: Sequence[str]) -> Tuple[str, ...]:
    """The lexicographically least rotation of a cycle of edge names.

    Rotations of a cycle describe the same test, so this tuple is the
    canonical identity used for deduplication — by :func:`generate_cycles`
    and by the corpus generator (:mod:`repro.corpus`).  Purely a function
    of the names: stable across processes and interpreter hash seeds.
    """
    names = tuple(str(n) for n in edge_names)
    return min(names[i:] + names[:i] for i in range(len(names)))


def generate_cycles(
    vocabulary: Sequence[str],
    length: int,
    max_tests: Optional[int] = None,
) -> Iterator[Program]:
    """Every realisable cycle of exactly ``length`` edges over
    ``vocabulary``, deduplicated up to rotation.

    This is the systematic-variation mode of Section 5: feed it increasing
    lengths to sweep the space of tests.
    """
    seen: Set[Tuple[str, ...]] = set()
    produced = 0
    for combo in itertools.product(vocabulary, repeat=length):
        canonical = canonical_cycle(combo)
        if canonical in seen:
            continue
        seen.add(canonical)
        try:
            program = generate(list(canonical))
        except CycleError:
            continue
        yield program
        produced += 1
        if max_tests is not None and produced >= max_tests:
            return
