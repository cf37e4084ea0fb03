"""Compile the cat AST to the relational IR.

The compiler takes the statement list :class:`~repro.cat.eval.CatModel`
flattens (includes expanded) and mirrors the evaluator's walk of it
exactly — non-recursive ``let``s bound in order, function applications
inlined at their call sites with lexical scoping — but produces interned
:class:`~repro.analysis.catir.ir.Node` graphs instead of values.  Every
implicit coercion the evaluator performs (a set in relation position
becomes ``[S]``) is made explicit, so the IR is sort-consistent by
construction; every condition under which the evaluator would raise
:class:`~repro.cat.eval.CatError` raises :class:`CatIRError` here, at
compile time.

``CatIRError`` subclasses ``CatError`` on purpose: callers that fall
back to the interpreter on compile failure (the check plan) observe
identical behaviour either way, because the interpreter evaluates all
value bindings eagerly and would raise the equivalent error on its first
``check()``.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple, Union as TUnion

from repro.cat import ast as C
from repro.cat.eval import CatError, CatModel, load_model
from repro.cat.parser import parse_cat

from repro.analysis.catir import facts, ir

#: Guard against runaway recursion through self-applying cat functions
#: (the evaluator would hit Python's recursion limit at check time).
_MAX_APPLY_DEPTH = 64


class CatIRError(CatError):
    """Raised when an expression cannot be compiled to the IR."""


class _Func:
    """An uncompiled cat function: body compiled per application, in the
    captured (lexical) environment — same semantics as CatFunction."""

    __slots__ = ("name", "params", "expr", "env")

    def __init__(self, name, params, expr, env):
        self.name = name
        self.params = params
        self.expr = expr
        self.env = env


_EnvValue = TUnion[ir.Node, _Func]


class CompiledCheck:
    """One compiled check: its normalized root node plus the metadata the
    evaluator threads through (axiom naming must match exactly)."""

    __slots__ = ("kind", "root", "name", "negated", "flag", "index", "label")

    def __init__(self, kind, root, name, negated, flag, index):
        self.kind = kind
        self.root = root
        self.name = name
        self.negated = negated
        self.flag = flag
        #: Index of the originating statement in the flattened list (the
        #: evaluator derives anonymous axiom names from it).
        self.index = index
        self.label = name or f"{kind}-{index}"


class CompiledModel:
    """A whole compiled model: value definitions (in order, post-inline),
    functions, recursive groups, and the checks."""

    def __init__(self, name, definitions, functions, rec_groups, checks,
                 statements):
        self.name = name
        #: Ordered name -> Node for every value binding (rec included).
        self.definitions: Dict[str, ir.Node] = definitions
        #: name -> (params, body AST) for function bindings.
        self.functions: Dict[str, Tuple[Tuple[str, ...], C.CatExpr]] = functions
        self.rec_groups: List[ir.RecGroup] = rec_groups
        self.checks: Tuple[CompiledCheck, ...] = checks
        #: The flattened statement list the model was compiled from.
        self.statements: Tuple = statements


def _as_rel(node: ir.Node) -> ir.Node:
    """Lift a set to its identity relation, as the evaluator coerces."""
    if node.sort == ir.SET:
        return ir.setid(node)
    return node


def _as_set(node: ir.Node, context: str) -> ir.Node:
    if node.sort != ir.SET:
        raise CatIRError(f"{context}: expected an event set")
    return node


def compile_expr(expr: C.CatExpr, env: Dict[str, _EnvValue],
                 _depth: int = 0) -> ir.Node:
    """Compile one expression in ``env`` (user bindings shadow builtins)."""
    if isinstance(expr, C.Id):
        value = env.get(expr.name)
        if isinstance(value, ir.Node):
            return value
        if isinstance(value, _Func):
            raise CatIRError(
                f"function {expr.name!r} used as a plain value"
            )
        if expr.name in facts.BUILTIN_RELATIONS:
            return ir.base(expr.name, ir.REL)
        if expr.name in facts.BUILTIN_SETS:
            return ir.base(expr.name, ir.SET)
        raise CatIRError(f"unbound identifier {expr.name!r}")
    if isinstance(expr, C.EmptyRel):
        return ir.empty(ir.REL)
    if isinstance(expr, (C.Union, C.Inter, C.Diff)):
        lhs = compile_expr(expr.lhs, env, _depth)
        rhs = compile_expr(expr.rhs, env, _depth)
        if lhs.sort != rhs.sort:
            lhs, rhs = _as_rel(lhs), _as_rel(rhs)
        if isinstance(expr, C.Union):
            return ir.union([lhs, rhs])
        if isinstance(expr, C.Inter):
            return ir.inter([lhs, rhs])
        return ir.diff(lhs, rhs)
    if isinstance(expr, C.Seq):
        return ir.seq([
            _as_rel(compile_expr(expr.lhs, env, _depth)),
            _as_rel(compile_expr(expr.rhs, env, _depth)),
        ])
    if isinstance(expr, C.Cartesian):
        return ir.cartesian(
            _as_set(compile_expr(expr.lhs, env, _depth), "*"),
            _as_set(compile_expr(expr.rhs, env, _depth), "*"),
        )
    if isinstance(expr, C.Compl):
        return ir.compl(compile_expr(expr.operand, env, _depth))
    if isinstance(expr, C.Inverse):
        return ir.inverse(_as_rel(compile_expr(expr.operand, env, _depth)))
    if isinstance(expr, C.Opt):
        return ir.opt(_as_rel(compile_expr(expr.operand, env, _depth)))
    if isinstance(expr, C.Plus):
        return ir.plus(_as_rel(compile_expr(expr.operand, env, _depth)))
    if isinstance(expr, C.Star):
        return ir.star(_as_rel(compile_expr(expr.operand, env, _depth)))
    if isinstance(expr, C.SetId):
        return ir.setid(
            _as_set(compile_expr(expr.operand, env, _depth), "[]")
        )
    if isinstance(expr, C.App):
        return _apply(expr, env, _depth)
    raise CatIRError(f"unknown cat expression {expr!r}")


def _apply(expr: C.App, env: Dict[str, _EnvValue], _depth: int) -> ir.Node:
    args = [compile_expr(arg, env, _depth) for arg in expr.args]
    if expr.func == "domain":
        if len(args) != 1:
            raise CatIRError("domain expects one argument")
        return ir.domain(_as_rel(args[0]))
    if expr.func == "range":
        if len(args) != 1:
            raise CatIRError("range expects one argument")
        return ir.range_(_as_rel(args[0]))
    if expr.func == "fencerel":
        if len(args) != 1:
            raise CatIRError("fencerel expects one argument")
        return ir.fencerel(_as_set(args[0], "fencerel"))
    func = env.get(expr.func)
    if not isinstance(func, _Func):
        raise CatIRError(f"unknown function {expr.func!r}")
    if len(args) != len(func.params):
        raise CatIRError(
            f"{func.name} expects {len(func.params)} args, got {len(args)}"
        )
    if _depth >= _MAX_APPLY_DEPTH:
        raise CatIRError(
            f"function {func.name!r} recurses; cat functions must not"
        )
    inner: Dict[str, _EnvValue] = dict(func.env)
    inner.update(zip(func.params, args))
    return compile_expr(func.expr, inner, _depth + 1)


def compile_statements(statements: Sequence, name: str) -> CompiledModel:
    """Compile a flattened (include-free) statement list."""
    env: Dict[str, _EnvValue] = {}
    definitions: Dict[str, ir.Node] = {}
    functions: Dict[str, Tuple[Tuple[str, ...], C.CatExpr]] = {}
    rec_groups: List[ir.RecGroup] = []
    checks: List[CompiledCheck] = []
    for index, statement in enumerate(statements):
        if isinstance(statement, C.Let):
            if statement.recursive:
                _compile_rec(statement, env, definitions, rec_groups)
            else:
                for binding in statement.bindings:
                    if binding.params:
                        env[binding.name] = _Func(
                            binding.name, binding.params, binding.expr,
                            dict(env),
                        )
                        functions[binding.name] = (
                            binding.params, binding.expr,
                        )
                    else:
                        node = compile_expr(binding.expr, env)
                        env[binding.name] = node
                        definitions[binding.name] = node
        elif isinstance(statement, C.Check):
            root = compile_expr(statement.expr, env)
            if statement.kind != "empty":
                # acyclic/irreflexive coerce a set to its identity.
                root = _as_rel(root)
            checks.append(
                CompiledCheck(
                    statement.kind, root, statement.name,
                    statement.negated, statement.flag, index,
                )
            )
        else:  # pragma: no cover - flattening removes includes
            raise CatIRError(f"unknown statement {statement!r}")
    return CompiledModel(
        name, definitions, functions, rec_groups, tuple(checks),
        tuple(statements),
    )


def _compile_rec(statement: C.Let, env, definitions, rec_groups) -> None:
    for binding in statement.bindings:
        if binding.params:
            raise CatIRError("recursive cat functions are not supported")
    names = [b.name for b in statement.bindings]
    gid = ir.fresh_group_id()
    rec_nodes = [ir.rec(n, gid, pos) for pos, n in enumerate(names)]
    inner: Dict[str, _EnvValue] = dict(env)
    inner.update(zip(names, rec_nodes))
    bodies = [
        _as_rel(compile_expr(b.expr, inner)) for b in statement.bindings
    ]
    group = ir.intern_group(names, rec_nodes, bodies)
    for bname, rnode in zip(names, group.rec_nodes):
        env[bname] = rnode
        definitions[bname] = rnode
    rec_groups.append(group)


def compile_source(text: str, name: str = "cat-model") -> CompiledModel:
    """Parse and compile cat source text, raising :class:`CatIRError`
    (or the :class:`CatError` of a missing include) when it does not
    compile."""
    model = CatModel(parse_cat(text, default_name=name), name=name)
    return compile_statements(model._flattened(), name)


def compile_model(name: str) -> CompiledModel:
    """The IR of a bundled model (``lkmm``, ``c11``, ``tso``, ...): the
    one compile its shared :func:`~repro.cat.eval.load_model` instance
    owns.  A model the compiler rejects is compiled again only to raise
    the error, as :func:`compile_source` does."""
    model = load_model(name)
    return model.compiled or compile_statements(model._flattened(), model.name)
