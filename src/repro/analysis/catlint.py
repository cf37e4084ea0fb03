"""Candidate-independent lint for cat models.

The cat evaluator (:mod:`repro.cat.eval`) only reports an unbound
identifier when a check actually *evaluates* the offending expression over
some candidate execution — a typo in a rarely-exercised branch of a model
can therefore survive until long after it was introduced.  This pass walks
a parsed :class:`~repro.cat.ast.CatFile` without any execution and flags:

* ``undefined-identifier`` — a name that is neither a builtin of the
  evaluation environment nor bound by an earlier ``let``;
* ``unknown-base-set`` — the same, for capitalised names, which by cat
  convention denote annotation sets (``Once``, ``Acquire``, ...): the
  likeliest typo in a model is a misspelt tag set;
* ``undefined-function`` — an application ``f(...)`` of an unknown
  function;
* ``unused-binding`` — a ``let`` binding never referenced by any later
  expression or check;
* ``shadowing`` — a ``let`` rebinding a builtin or an earlier binding;
* ``duplicate-check-name`` — two checks sharing one ``as`` name, which
  makes their violations indistinguishable in reports;
* ``missing-include`` — an ``include`` of a file absent from the models
  directory;
* ``sort-mismatch`` — every expression is typed as an *event set* or a
  *relation* (cat's two sorts) by a bottom-up inference over the builtin
  environment and earlier ``let`` bindings.  Mixing the sorts where herd
  would reject the model is an error: a set operand of ``;``, ``^-1``,
  ``?``, ``+``, ``*`` or of a set/relation union (the evaluator here
  silently coerces the set to an identity relation — write ``[S]`` if
  that is intended), a relation operand of ``S * T``, ``[S]`` or
  ``fencerel``, a set argument of ``domain``/``range``.  Function
  parameters and recursive bindings type as unknown/relation, so
  inference never guesses;
* ``empty-intersection`` — an ``&`` of two event sets that is empty *by
  construction*: distinct event kinds (``R & W`` — reads, writes and
  fences are pairwise disjoint, ``M`` is ``R | W``, ``IW`` is a subset
  of ``W``) or two distinct annotation sets (every event carries exactly
  one tag, so ``Acquire & Release`` can never hold events).  The check
  never fires through bindings or tag-vs-kind pairs, only on provably
  empty atoms.  The disjointness facts live in
  :mod:`repro.analysis.catir.facts`, the same tables the algebraic
  analyses use, so the surface and semantic passes cannot disagree.

On top of the surface walk, models that *compile* to the relational IR
(:mod:`repro.analysis.catir`) also get the semantic analyses — CAT011
(dead check), CAT012 (redundant check), CAT013 (unreachable binding),
CAT014 (implied acyclicity); see
:func:`repro.analysis.catir.analyses.analyze_cat_file`.  Any of those
codes can be silenced with a ``(* lint: allow CAT011 *)`` comment in the
model source.

The builtin environment is derived from the same tables the evaluator
uses (:func:`repro.cat.eval.builtin_environment` and
:data:`repro.cat.eval.TAG_SETS`), so the two cannot drift apart silently.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set

from repro.analysis.catir.facts import (  # noqa: F401  (re-exported API)
    BUILTIN_FUNCTIONS,
    BUILTIN_RELATIONS,
    BUILTIN_SETS,
    base_sets_disjoint,
)
from repro.analysis.findings import Finding, describe_findings  # noqa: F401
from repro.cat import MODELS_DIR, TAG_SETS, parse_cat  # noqa: F401
from repro.cat import ast as C
from repro.cat.eval import _load_cat_file

BUILTINS = BUILTIN_RELATIONS | BUILTIN_SETS

#: The two cat sorts, plus "don't know" (function parameters, results of
#: user-defined functions applied to unknowns, names already reported as
#: undefined).  UNKNOWN never produces a mismatch: inference only reports
#: what it can prove.
SET = "set"
REL = "relation"
UNKNOWN = "unknown"


def lint_cat(
    cat_file: C.CatFile,
    source: Optional[str] = None,
    suppress: Sequence[str] = (),
) -> List[Finding]:
    """Lint one parsed cat model; returns the findings (empty if clean).

    Runs the surface walk below, then the semantic analyses of
    :mod:`repro.analysis.catir.analyses` when the model compiles.
    ``suppress`` drops findings by code (from ``(* lint: allow ... *)``
    comments, which only the source-level entry points can see).
    """
    from repro.analysis.catir.analyses import analyze_cat_file

    linter = _CatLinter(source or cat_file.name)
    linter.run(cat_file)
    findings = linter.finish()
    findings.extend(
        analyze_cat_file(cat_file, source=source or cat_file.name)
    )
    if suppress:
        blocked = frozenset(suppress)
        findings = [f for f in findings if f.code not in blocked]
    return findings


def lint_cat_source(text: str, name: str = "cat-model") -> List[Finding]:
    """Lint cat model source text."""
    from repro.analysis.catir.analyses import parse_suppressions

    return lint_cat(
        parse_cat(text, default_name=name),
        source=name,
        suppress=parse_suppressions(text),
    )


def lint_cat_path(path) -> List[Finding]:
    """Lint a cat model file."""
    from repro.analysis.catir.analyses import parse_suppressions

    path = Path(path)
    text = path.read_text()
    cat_file = parse_cat(text, default_name=path.stem, path=str(path))
    return lint_cat(
        cat_file, source=str(path), suppress=parse_suppressions(text)
    )


def lint_all_models() -> Dict[str, List[Finding]]:
    """Lint every shipped model in ``repro/cat/models/``."""
    return {
        path.name: lint_cat_path(path)
        for path in sorted(MODELS_DIR.glob("*.cat"))
    }


class _CatLinter:
    """Walks statements in order, tracking bindings and their uses."""

    def __init__(self, source: str):
        self.source = source
        self.findings: List[Finding] = []
        #: User bindings, in definition order: name -> kind ("value"/"function").
        self.bindings: Dict[str, str] = {}
        #: Inferred sort per binding (for functions: of the body).
        self.sorts: Dict[str, str] = {}
        self.used: Set[str] = set()
        self.check_names: Set[str] = set()
        self.included: Set[str] = set()

    # -- driving ---------------------------------------------------------

    def run(self, cat_file: C.CatFile) -> None:
        for statement in cat_file.statements:
            if isinstance(statement, C.Include):
                self._include(statement)
            elif isinstance(statement, C.Let):
                self._let(statement)
            elif isinstance(statement, C.Check):
                self._check(statement)

    def finish(self) -> List[Finding]:
        for name in self.bindings:
            if name not in self.used:
                self._report(
                    "unused-binding",
                    f"'let {name}' is never used by a later definition or check",
                )
        return self.findings

    def _report(self, category: str, message: str) -> None:
        self.findings.append(Finding.of(self.source, category, message))

    # -- statements ------------------------------------------------------

    def _include(self, statement: C.Include) -> None:
        if statement.path in self.included:
            self._report(
                "duplicate-include", f'"{statement.path}" included twice'
            )
            return
        self.included.add(statement.path)
        path = MODELS_DIR / statement.path
        if not path.exists():
            self._report(
                "missing-include",
                f'included file "{statement.path}" not found in {MODELS_DIR}',
            )
            return
        # Bindings of the included file become visible here, exactly as in
        # the evaluator; its own findings are reported against its name.
        self.run(_load_cat_file(statement.path))

    def _let(self, statement: C.Let) -> None:
        group = {binding.name for binding in statement.bindings}
        if len(group) < len(statement.bindings):
            self._report(
                "shadowing",
                "a 'let ... and ...' group binds the same name twice",
            )
        if statement.recursive:
            # Mutually recursive: all names are in scope in every body,
            # and `let rec` only makes sense for relations (a fixpoint of
            # event sets has no cat syntax), so pre-type them as such.
            for binding in statement.bindings:
                self._bind(binding, REL)
            for binding in statement.bindings:
                self._expr(binding.expr, extra=set(binding.params))
        else:
            for binding in statement.bindings:
                sort = self._expr(binding.expr, extra=set(binding.params))
                self._bind(binding, sort)

    def _bind(self, binding: C.LetBinding, sort: str) -> None:
        if binding.name in BUILTINS or binding.name in BUILTIN_FUNCTIONS:
            self._report(
                "shadowing",
                f"'let {binding.name}' shadows a builtin of the same name",
            )
        elif binding.name in self.bindings:
            self._report(
                "shadowing",
                f"'let {binding.name}' shadows an earlier binding",
            )
        self.bindings[binding.name] = "function" if binding.params else "value"
        self.sorts[binding.name] = sort

    def _check(self, statement: C.Check) -> None:
        self._expr(statement.expr, extra=set())
        if statement.name is not None:
            if statement.name in self.check_names:
                self._report(
                    "duplicate-check-name",
                    f"two checks are named 'as {statement.name}'",
                )
            self.check_names.add(statement.name)

    # -- expressions (walk + sort inference) -----------------------------

    def _expr(self, expr: C.CatExpr, extra: Set[str]) -> str:
        """Walk an expression; returns its inferred sort."""
        if isinstance(expr, C.Id):
            return self._name(expr.name, extra)
        if isinstance(expr, C.EmptyRel):
            return REL
        if isinstance(expr, C.App):
            return self._app(expr, extra)
        if isinstance(expr, (C.Union, C.Inter, C.Diff)):
            op = {C.Union: "|", C.Inter: "&", C.Diff: "\\"}[type(expr)]
            lhs = self._expr(expr.lhs, extra)
            rhs = self._expr(expr.rhs, extra)
            if {lhs, rhs} == {SET, REL}:
                self._report(
                    "sort-mismatch",
                    f"'{op}' mixes an event set and a relation — write "
                    "[S] to lift the set to an identity relation if that "
                    "is intended",
                )
                return REL
            if isinstance(expr, C.Inter) and lhs == rhs == SET:
                self._check_empty_intersection(expr)
            if lhs == rhs:
                return lhs
            return lhs if rhs == UNKNOWN else rhs
        if isinstance(expr, C.Seq):
            self._expect(expr.lhs, extra, REL, "';'")
            self._expect(expr.rhs, extra, REL, "';'")
            return REL
        if isinstance(expr, C.Cartesian):
            self._expect(expr.lhs, extra, SET, "'*'")
            self._expect(expr.rhs, extra, SET, "'*'")
            return REL
        if isinstance(expr, C.Compl):
            # '~' is polymorphic: complements a set or a relation.
            return self._expr(expr.operand, extra)
        if isinstance(expr, C.Inverse):
            self._expect(expr.operand, extra, REL, "'^-1'")
            return REL
        if isinstance(expr, C.Opt):
            self._expect(expr.operand, extra, REL, "'?'")
            return REL
        if isinstance(expr, C.Plus):
            self._expect(expr.operand, extra, REL, "'+'")
            return REL
        if isinstance(expr, C.Star):
            self._expect(expr.operand, extra, REL, "'*' (closure)")
            return REL
        if isinstance(expr, C.SetId):
            self._expect(expr.operand, extra, SET, "'[...]'")
            return REL
        return UNKNOWN

    def _expect(
        self, operand: C.CatExpr, extra: Set[str], wanted: str, where: str
    ) -> None:
        got = self._expr(operand, extra)
        if got not in (wanted, UNKNOWN):
            self._report(
                "sort-mismatch",
                f"{where} expects a {wanted} operand, got a {got}",
            )

    def _app(self, expr: C.App, extra: Set[str]) -> str:
        if expr.func in self.bindings:
            self.used.add(expr.func)
            if self.bindings[expr.func] != "function":
                self._report(
                    "undefined-function",
                    f"{expr.func!r} is a plain binding, not a function",
                )
            for arg in expr.args:
                self._expr(arg, extra)
            return self.sorts.get(expr.func, UNKNOWN)
        if expr.func not in BUILTIN_FUNCTIONS:
            self._report(
                "undefined-function", f"unknown function {expr.func!r}"
            )
            for arg in expr.args:
                self._expr(arg, extra)
            return UNKNOWN
        if expr.func in ("domain", "range"):
            for arg in expr.args:
                self._expect(arg, extra, REL, f"'{expr.func}'")
            return SET
        # fencerel
        for arg in expr.args:
            self._expect(arg, extra, SET, "'fencerel'")
        return REL

    def _name(self, name: str, extra: Set[str]) -> str:
        if name in extra:
            return UNKNOWN
        if name in BUILTIN_SETS:
            return SET
        if name in BUILTIN_RELATIONS:
            return REL
        if name in self.bindings:
            self.used.add(name)
            return self.sorts.get(name, UNKNOWN)
        if name[:1].isupper():
            known = ", ".join(sorted(BUILTIN_SETS))
            self._report(
                "unknown-base-set",
                f"unknown base set {name!r} (known sets: {known})",
            )
        else:
            self._report(
                "undefined-identifier", f"undefined identifier {name!r}"
            )
        return UNKNOWN

    def _check_empty_intersection(self, expr: C.Inter) -> None:
        """Flag ``a & b`` when both sides are builtin-set atoms that can
        share no event (facts from :mod:`repro.analysis.catir.facts`)."""
        if not isinstance(expr.lhs, C.Id) or not isinstance(expr.rhs, C.Id):
            return
        a, b = expr.lhs.name, expr.rhs.name
        reason = base_sets_disjoint(a, b)
        if reason is not None:
            self._report(
                "empty-intersection",
                f"'{a} & {b}' is empty by construction: {reason}",
            )
