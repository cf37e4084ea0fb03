"""Serialising programs back to the C litmus format.

The inverse of :mod:`repro.litmus.parser`: render a
:class:`~repro.litmus.ast.Program` as herd-style C litmus text.  Used by
the ``repro-diy`` tool to emit generated tests as files, by the
round-trip tests (parse(write(p)) must behave identically to p), and by
:func:`program_digest`, the program identity that journals and the
corpus key on.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Dict, List, Set

from repro.events import Pointer
from repro.litmus.ast import (
    Assume,
    BinOp,
    CmpXchg,
    Const,
    Expr,
    Fence,
    If,
    Instruction,
    Load,
    LocalAssign,
    Program,
    Reg,
    Rmw,
    Store,
    Thread,
    UnOp,
)
from repro.litmus.outcomes import (
    And,
    Condition,
    Exists,
    Forall,
    LocValue,
    Not,
    NotExists,
    Or,
    RegValue,
)


class WriteError(Exception):
    """Raised when a program uses constructs the text format lacks."""


_FENCE_CALLS = {
    "mb": "smp_mb",
    "rmb": "smp_rmb",
    "wmb": "smp_wmb",
    "rb-dep": "smp_read_barrier_depends",
    "rcu-lock": "rcu_read_lock",
    "rcu-unlock": "rcu_read_unlock",
    "sync-rcu": "synchronize_rcu",
}


def write_litmus(program: Program) -> str:
    """Render ``program`` as C litmus text."""
    lines: List[str] = [f"C {program.name}", ""]

    locations = program.locations()
    init_entries = []
    for loc in locations:
        value = program.initial_value(loc)
        init_entries.append(f"{loc}={_value_text(value)};")
    lines.append("{ " + " ".join(init_entries) + " }")
    lines.append("")

    for tid, thread in enumerate(program.threads):
        params = ", ".join(f"int *{loc}" for loc in locations)
        lines.append(f"P{tid}({params})")
        lines.append("{")
        declared: Set[str] = set()
        _write_body(thread.body, lines, declared, indent=1)
        lines.append("}")
        lines.append("")

    if program.condition is not None:
        lines.append(_condition_text(program.condition))
    return "\n".join(lines) + "\n"


def program_digest(program: Program) -> str:
    """The canonical AST hash of a litmus program.

    Computed over the serialised litmus text with the name struck out, so
    two tests are corpus-identical iff their code, initial state and
    condition coincide — regardless of what cycle (or hand edit) produced
    them.  Stable across processes; used for deduplication and as the
    journal/golden integrity digest.
    """
    canonical = dataclasses.replace(program, name="@")
    return hashlib.sha256(write_litmus(canonical).encode()).hexdigest()[:16]


def _write_body(
    body, lines: List[str], declared: Set[str], indent: int
) -> None:
    pad = "    " * indent
    for ins in body:
        for text in _instruction_lines(ins, declared, indent):
            lines.append(pad + text if not text.startswith("    ") else text)


def _declare(register: str, declared: Set[str]) -> str:
    if register in declared:
        return register
    declared.add(register)
    return f"int {register}"


def _instruction_lines(
    ins: Instruction, declared: Set[str], indent: int
) -> List[str]:
    if isinstance(ins, Fence):
        call = _FENCE_CALLS.get(ins.tag)
        if call is None:
            raise WriteError(f"no C spelling for fence {ins.tag!r}")
        return [f"{call}();"]

    if isinstance(ins, Load):
        target = _declare(ins.reg, declared)
        addr = _addr_text(ins.addr)
        if ins.rb_dep:
            if ins.tag != "once":
                raise WriteError("rb-dep loads must be READ_ONCE-based")
            return [f"{target} = rcu_dereference({addr});"]
        if ins.tag == "once":
            return [f"{target} = READ_ONCE({addr});"]
        if ins.tag == "acquire":
            return [f"{target} = smp_load_acquire({addr});"]
        if ins.tag == "plain":
            return [f"{target} = {addr};"]
        raise WriteError(f"no C spelling for load tag {ins.tag!r}")

    if isinstance(ins, Store):
        addr = _addr_text(ins.addr)
        value = _expr_text(ins.value)
        if ins.tag == "once":
            return [f"WRITE_ONCE({addr}, {value});"]
        if ins.tag == "release":
            return [f"smp_store_release({addr}, {value});"]
        if ins.tag == "plain":
            return [f"{addr} = {value};"]
        raise WriteError(f"no C spelling for store tag {ins.tag!r}")

    if isinstance(ins, Rmw):
        target = _declare(ins.reg, declared)
        addr = _addr_text(ins.addr, deref=False)
        # spin_lock/spin_unlock round-trip through their own spelling.
        if ins.require_read_value == 0 and ins.variant == "xchg_acquire":
            return [f"spin_lock({addr});"]
        if ins.require_read_value is not None:
            raise WriteError("required read values only supported for locks")
        return [f"{target} = {ins.variant}({addr}, {_expr_text(ins.new_value)});"]

    if isinstance(ins, CmpXchg):
        target = _declare(ins.reg, declared)
        addr = _addr_text(ins.addr, deref=False)
        call = {"xchg": "cmpxchg", "xchg_relaxed": "cmpxchg_relaxed",
                "xchg_acquire": "cmpxchg_acquire",
                "xchg_release": "cmpxchg_release"}[ins.variant]
        return [
            f"{target} = {call}({addr}, {_expr_text(ins.expected)}, "
            f"{_expr_text(ins.new_value)});"
        ]

    if isinstance(ins, LocalAssign):
        target = _declare(ins.reg, declared)
        return [f"{target} = {_expr_text(ins.expr)};"]

    if isinstance(ins, If):
        lines: List[str] = [f"if ({_expr_text(ins.cond)}) {{"]
        inner: List[str] = []
        _write_body(ins.then, inner, declared, indent=1)
        lines.extend(inner)
        if ins.orelse:
            lines.append("} else {")
            inner = []
            _write_body(ins.orelse, inner, declared, indent=1)
            lines.extend(inner)
        lines.append("}")
        return lines

    if isinstance(ins, Assume):
        raise WriteError("assume() is a verification construct with no C form")

    raise WriteError(f"cannot serialise {ins!r}")


def _addr_text(expr: Expr, deref: bool = True) -> str:
    star = "*" if deref else ""
    if isinstance(expr, Const) and isinstance(expr.value, Pointer):
        return f"{star}{expr.value.loc}" if deref else expr.value.loc
    if isinstance(expr, Reg):
        return f"*{expr.name}" if deref else expr.name
    # Tainted address (diy false dependency): render the expression.
    return f"{star}({_expr_text(expr)})"


def _value_text(value) -> str:
    if isinstance(value, Pointer):
        return f"&{value.loc}"
    return str(value)


def _expr_text(expr: Expr) -> str:
    if isinstance(expr, Const):
        return _value_text(expr.value)
    if isinstance(expr, Reg):
        return expr.name
    if isinstance(expr, BinOp):
        return f"({_expr_text(expr.lhs)} {expr.op} {_expr_text(expr.rhs)})"
    if isinstance(expr, UnOp):
        return f"{expr.op}{_expr_text(expr.operand)}"
    raise WriteError(f"cannot serialise expression {expr!r}")


def _condition_text(condition: Condition) -> str:
    if isinstance(condition, Exists):
        return f"exists ({_clause_text(condition.body)})"
    if isinstance(condition, NotExists):
        return f"~exists ({_clause_text(condition.body)})"
    if isinstance(condition, Forall):
        return f"forall ({_clause_text(condition.body)})"
    raise WriteError(f"top-level condition must be quantified: {condition!r}")


def _clause_text(condition: Condition) -> str:
    if isinstance(condition, RegValue):
        return f"{condition.tid}:{condition.reg}={_value_text(condition.value)}"
    if isinstance(condition, LocValue):
        return f"{condition.loc}={_value_text(condition.value)}"
    if isinstance(condition, And):
        return f"{_clause_text(condition.lhs)} /\\ {_clause_text(condition.rhs)}"
    if isinstance(condition, Or):
        return f"({_clause_text(condition.lhs)} \\/ {_clause_text(condition.rhs)})"
    if isinstance(condition, Not):
        return f"~({_clause_text(condition.operand)})"
    raise WriteError(f"cannot serialise condition {condition!r}")
