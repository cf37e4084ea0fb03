"""Lowering a compiled cat model to the relational bytecode of the VM.

Compilation (:mod:`repro.analysis.catir.compile`) has already inlined
every non-recursive ``let`` and function application and *interned* the
result, so the roots of all checks form one shared subexpression DAG: a
node like ``po-loc`` that five checks mention is a single object.
:func:`lower_plan` turns that DAG into a :class:`repro.kernel.vm.VMProgram`
once per model; :class:`repro.cat.eval.CatModel` then runs every
candidate through :func:`repro.kernel.vm.run_checks`.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Tuple

from repro.cat.eval import CatError
from repro.kernel import vm as _vm

from repro.analysis.catir import ir
from repro.analysis.catir.compile import CompiledModel

#: Process-unique program tokens (the VM's prelude-cache key; id() is
#: unsafe because it is recyclable).
_PROGRAM_TOKENS = itertools.count()

#: node kind -> (relation opcode, set opcode) for the sort-polymorphic
#: binary operators.
_BINARY_OPS = {
    "union": (_vm.UNION_REL, _vm.UNION_SET),
    "inter": (_vm.INTER_REL, _vm.INTER_SET),
    "diff": (_vm.DIFF_REL, _vm.DIFF_SET),
}

_UNARY_OPS = {
    "inverse": _vm.INVERSE,
    "opt": _vm.OPT,
    "plus": _vm.PLUS,
    "star": _vm.STAR,
    "setid": _vm.SETID,
    "domain": _vm.DOMAIN,
    "range": _vm.RANGE,
}


def lower_plan(compiled: CompiledModel) -> "_vm.VMProgram":
    """Lower a compiled model to relational bytecode.

    Register allocation is by node identity over the interned DAG, so the
    CSE that interning bought carries over: a shared node is computed by
    exactly one instruction.  Instructions split into the trace-invariant
    *prelude* (``node.varying`` false — runs once per skeleton) and the
    per-candidate *main* stream; nodes inside an in-flux ``let rec`` group
    go to that group's :data:`~repro.kernel.vm.FIXPOINT` segment instead,
    re-run on every Gauss–Seidel sweep (a node shared by two bodies lands
    in the segment of the first body that needs it, computed once per
    sweep).  Raises :class:`CatError` for a construct it cannot lower.
    """
    names: Dict[str, int] = {}
    registers: Dict[ir.Node, int] = {}
    prelude: List[tuple] = []
    main: List[tuple] = []
    #: In-flux rec groups, innermost last: (gid, segment instruction list).
    active: List[Tuple[int, List[tuple]]] = []
    lowered_groups: set = set()
    counter = itertools.count()

    def name_index(name: str) -> int:
        index = names.get(name)
        if index is None:
            index = names[name] = len(names)
        return index

    def stream_for(node: ir.Node) -> List[tuple]:
        if not node.varying:
            return prelude
        for gid, segment in reversed(active):
            if gid in node.rec_ids:
                return segment
        return main

    def visit(node: ir.Node) -> int:
        register = registers.get(node)
        if register is not None:
            return register
        if node.kind == "rec":
            lower_group(ir.group_of(node))
            return registers[node]
        operand_regs = [visit(operand) for operand in node.operands]
        stream = stream_for(node)
        register = next(counter)
        kind = node.kind
        if kind == "base":
            stream.append(
                (_vm.LOAD_BASE, register, name_index(node.name), 0)
            )
        elif kind == "empty":
            opcode = _vm.EMPTY_SET if node.sort == ir.SET else _vm.EMPTY_REL
            stream.append((opcode, register, 0, 0))
        elif kind in _BINARY_OPS:
            if any(op.sort != node.sort for op in node.operands):
                raise CatError(f"mixed sorts under {kind}")
            opcode = _BINARY_OPS[kind][node.sort == ir.SET]
            stream.append(
                (opcode, register, operand_regs[0], operand_regs[1])
            )
            for extra in operand_regs[2:]:
                stream.append((opcode, register, register, extra))
        elif kind == "seq":
            stream.append(
                (_vm.SEQ, register, operand_regs[0], operand_regs[1])
            )
            for extra in operand_regs[2:]:
                stream.append((_vm.SEQ, register, register, extra))
        elif kind == "cartesian":
            if any(op.sort != ir.SET for op in node.operands):
                raise CatError("cartesian product of non-sets")
            stream.append(
                (_vm.CARTESIAN, register, operand_regs[0], operand_regs[1])
            )
        elif kind == "compl":
            opcode = (
                _vm.COMPL_SET if node.sort == ir.SET else _vm.COMPL_REL
            )
            stream.append((opcode, register, operand_regs[0], 0))
        elif kind == "fencerel":
            # fencerel(S) composes po restricted to S; give the fused
            # opcode its po operand explicitly.
            po_register = visit(ir.base("po", ir.REL))
            stream.append(
                (_vm.FENCEREL, register, po_register, operand_regs[0])
            )
        elif kind in _UNARY_OPS:
            expects_set = kind == "setid"
            if (node.operands[0].sort == ir.SET) != expects_set:
                raise CatError(f"bad operand sort under {kind}")
            stream.append(
                (_UNARY_OPS[kind], register, operand_regs[0], 0)
            )
        else:
            raise CatError(f"cannot lower node kind {kind!r}")
        registers[node] = register
        return register

    def lower_group(group: ir.RecGroup) -> None:
        if group.gid in lowered_groups:
            return
        lowered_groups.add(group.gid)
        # Rec registers first, so body instructions can read them.
        for rec_node in group.rec_nodes:
            registers[rec_node] = next(counter)
        segments = []
        for rec_node, body in zip(group.rec_nodes, group.bodies):
            if body.sort != ir.REL:
                raise CatError("rec binding with a set-sorted body")
            segment: List[tuple] = []
            active.append((group.gid, segment))
            try:
                body_register = visit(body)
            finally:
                active.pop()
            segments.append(
                (tuple(segment), body_register, registers[rec_node])
            )
        # The fixpoint instruction itself belongs to the innermost still
        # in-flux group its bodies depend on (none, in every bundled
        # model — cat's statement order forbids forward references).
        outer_ids = frozenset().union(
            *(body.rec_ids for body in group.bodies)
        ) - {group.gid}
        stream = main
        for gid, segment in reversed(active):
            if gid in outer_ids:
                stream = segment
                break
        stream.append((_vm.FIXPOINT, 0, tuple(segments), 0))

    checks = []
    for check in compiled.checks:
        register = visit(check.root)
        checks.append(
            _vm.VMCheck(
                check.kind,
                check.label,
                check.negated,
                check.flag,
                register,
                check.root.sort == ir.SET,
                not check.root.varying,
            )
        )

    return _vm.VMProgram(
        next(_PROGRAM_TOKENS),
        compiled.name,
        tuple(names),
        tuple(prelude),
        tuple(main),
        tuple(checks),
        next(counter),
    )

