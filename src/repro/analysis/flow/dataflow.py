"""A generic forward/backward dataflow solver over litmus CFGs.

An analysis supplies a small join-semilattice of abstract values (anything
with ``==`` — the implementations here use frozensets and tuples) and a
transfer function per instruction; the solver computes the least fixpoint
of block-in/block-out values.  Litmus CFGs are DAGs whose block ids
increase along every edge (see :mod:`repro.analysis.flow.cfg`: loops are
unrolled to a bound), so the fixpoint is exactly one pass over the block
list in topological order (reverse order for backward analyses).

Program points use the convention of :data:`repro.analysis.flow.cfg.Point`:
a block's straight-line instructions occupy indices ``0..n-1`` and its
branch terminator (whose *condition* is evaluated in this block) index
``n``.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Tuple, TypeVar

from repro.analysis.flow.cfg import Cfg, Point
from repro.litmus.ast import If, Instruction

V = TypeVar("V")

FORWARD = "forward"
BACKWARD = "backward"


class DataflowAnalysis:
    """Base class for analyses.  Subclasses define:

    * ``direction`` — :data:`FORWARD` or :data:`BACKWARD`;
    * :meth:`boundary` — the value at the entry (forward) or exit
      (backward) of the graph;
    * :meth:`bottom` — the identity of :meth:`join` (the value of an
      unreached block);
    * :meth:`join` — the lattice join (must be monotone and commutative);
    * :meth:`transfer` — the effect of one instruction.  Branch
      terminators (``If``) are passed through it too, modelling the
      *evaluation of the condition* only — their arms are separate blocks.
    """

    direction: str = FORWARD

    def boundary(self):
        raise NotImplementedError

    def bottom(self):
        raise NotImplementedError

    def join(self, a, b):
        raise NotImplementedError

    def transfer(self, instruction: Instruction, value, point: Point):
        raise NotImplementedError


class DataflowResult:
    """Fixpoint values per block, plus per-instruction reconstruction."""

    def __init__(
        self,
        cfg: Cfg,
        analysis: DataflowAnalysis,
        block_in: Dict[int, object],
        block_out: Dict[int, object],
    ):
        self.cfg = cfg
        self.analysis = analysis
        #: Value at block entry (forward) — for a backward analysis this
        #: is the value *after* the block's last instruction has been
        #: considered, i.e. the backward-flow "output" at the block top.
        self.block_in = block_in
        self.block_out = block_out

    def states(self) -> Iterator[Tuple[Point, Instruction, object]]:
        """Per-instruction states, in topological block order.

        Forward analyses yield the value *before* each instruction;
        backward analyses the value *after* it (e.g. liveness yields the
        live-out set of each instruction).  Either is exactly what the
        corresponding checkers need to judge the instruction.
        """
        forward = self.analysis.direction == FORWARD
        for block in self.cfg.blocks:
            points = list(_block_points(block))
            if forward:
                value = self.block_in[block.bid]
                for point, ins in points:
                    yield point, ins, value
                    value = self.analysis.transfer(ins, value, point)
            else:
                value = self.block_out[block.bid]
                for point, ins in reversed(points):
                    yield point, ins, value
                    value = self.analysis.transfer(ins, value, point)

    def at_exit(self):
        """The value flowing out of the graph: the exit block's out-value
        (forward) or in-value (backward)."""
        if self.analysis.direction == FORWARD:
            return self.block_out[self.cfg.exit.bid]
        return self.block_in[self.cfg.entry.bid]


def _block_points(block) -> Iterator[Tuple[Point, Instruction]]:
    for idx, ins in enumerate(block.instructions):
        yield (block.bid, idx), ins
    if block.branch is not None:
        yield (block.bid, len(block.instructions)), block.branch


def _transfer_block(analysis: DataflowAnalysis, block, value):
    points = list(_block_points(block))
    if analysis.direction == BACKWARD:
        points = list(reversed(points))
    for point, ins in points:
        value = analysis.transfer(ins, value, point)
    return value


def infeasible_edges(cfg: Cfg) -> frozenset:
    """Branch edges that can never be taken at run time, as
    ``(source bid, target bid)`` pairs, plus every edge out of a block
    those prune from the graph entirely.

    A branch whose condition folds to a constant — including through the
    dependency-breaking identities of :func:`fold_expr`, which hold in
    every execution — always takes the same arm; the other arm's edge
    carries no run-time state.  Blocks all of whose incoming edges are
    infeasible are unreachable, so their outgoing edges are infeasible
    too (one topological pass suffices: the CFG is a DAG with ids
    increasing along edges).
    """
    # Local import: analyses.py imports this module at load time.
    from repro.analysis.flow.analyses import fold_expr

    dead = set()
    for block in cfg.blocks:
        if block.bid != cfg.entry.bid and block.preds and all(
            (pred, block.bid) in dead for pred in block.preds
        ):
            dead.update((block.bid, succ) for succ in block.succs)
            continue
        if block.branch is not None:
            value = fold_expr(block.branch.cond)
            if value is not None:
                untaken = 1 if value else 0
                dead.add((block.bid, block.succs[untaken]))
    return frozenset(dead)


def solve(cfg: Cfg, analysis: DataflowAnalysis) -> DataflowResult:
    """Run ``analysis`` to fixpoint over ``cfg``.

    Edges reported by :func:`infeasible_edges` carry no state in either
    direction, so values joined at a block come only from its *feasible*
    inputs; unreachable blocks keep the analysis bottom."""
    dead = infeasible_edges(cfg)
    forward = analysis.direction == FORWARD
    if forward:
        boundary_bid = cfg.entry.bid
        order = list(cfg.blocks)
        inputs = lambda block: [  # noqa: E731 - tiny local alias
            p for p in block.preds if (p, block.bid) not in dead
        ]
    else:
        boundary_bid = cfg.exit.bid
        order = list(reversed(cfg.blocks))
        inputs = lambda block: [  # noqa: E731
            s for s in block.succs if (block.bid, s) not in dead
        ]

    # block_in is the value entering the block in *flow* direction:
    # from predecessors for forward analyses, successors for backward.
    block_in = {b.bid: analysis.bottom() for b in cfg.blocks}
    block_out = {b.bid: analysis.bottom() for b in cfg.blocks}
    block_in[boundary_bid] = analysis.boundary()
    block_out[boundary_bid] = _transfer_block(
        analysis, cfg.block(boundary_bid), block_in[boundary_bid]
    )

    # One pass in (reverse) topological order is the fixpoint: every
    # input of a block is final before the block is reached.
    for block in order:
        if block.bid == boundary_bid:
            continue
        value = analysis.bottom()
        for source in inputs(block):
            value = analysis.join(value, block_out[source])
        block_in[block.bid] = value
        block_out[block.bid] = _transfer_block(analysis, block, value)

    if forward:
        return DataflowResult(cfg, analysis, block_in, block_out)
    # Present backward results in program orientation: block_in holds the
    # value at the block's *top* (after the backward pass through it).
    return DataflowResult(
        cfg,
        analysis,
        block_in=block_out,
        block_out=block_in,
    )
