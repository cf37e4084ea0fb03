"""Algebraic analyses over the relational IR.

Two inference engines, both *sound for warning* — they only ever claim a
fact when it holds in every candidate execution, and their output is
WARNING-severity findings, never a rewrite of what gets evaluated:

* :func:`prove_empty` — is this relation/set empty in every execution?
  Combines structural rules (a union is empty iff all operands are, a
  diff ``l \\ r`` is empty when ``l ⊆ r``, a ``let rec`` fixpoint is
  empty when its bodies are empty under the assumption that the group
  is) with the abstract domains below: event-kind and tag bounds on
  sets, ``int``/``ext``/``id``/irreflexivity attributes on relations,
  and domain/range bounds threaded through compositions — which is
  exactly how ``[S] ; r ; [T]`` narrows.

* :func:`subsumes` — is ``sub ⊆ sup`` in every execution?  Structural
  monotonicity rules (``e ⊆ e | f``, operand-wise sequence inclusion,
  closure laws like ``y ⊆ x+  ⇒  y+ ⊆ x+``) plus the base-relation
  facts of :mod:`repro.analysis.catir.facts`.

On top of these the check analyses emit the semantic findings:

* **CAT011** ``dead-check`` — a (non-negated) check whose relation is
  provably empty: ``empty``/``acyclic``/``irreflexive`` hold trivially,
  so the check constrains nothing and likely mis-states the model.
* **CAT012** ``redundant-check`` — a check implied by an *earlier*
  enforcing check: same-kind subsumption (``empty r`` after ``empty s``
  with ``r ⊆ s``; likewise ``irreflexive``), any check over a relation
  contained in an already-empty one, and ``irreflexive r`` after
  ``acyclic s`` when ``r ⊆ s+`` (a reflexive pair in ``r`` would be a
  cycle in ``s``).
* **CAT013** ``unreachable-binding`` — a ``let`` that *is* referenced,
  but only by definitions that never feed any check: dead weight that
  CAT004 (unused-binding) cannot see.
* **CAT014** ``implied-acyclicity`` — ``acyclic r`` after ``acyclic s``
  with ``r ⊆ s+``: any ``r``-cycle maps into an ``s``-cycle, so the
  earlier check already forbids it.  The same test tells whether a model
  implies SC PER LOCATION (:func:`implies_sc_per_location`).

False positives can be silenced per-model with a suppression comment
anywhere in the source: ``(* lint: allow CAT011 *)`` (several codes may
be comma-separated); :func:`parse_suppressions` extracts them.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.analysis.findings import Finding
from repro.cat import ast as C
from repro.cat.eval import MODELS_DIR, CatModel, _free_identifiers, load_model

from repro.analysis.catir import facts, ir
from repro.analysis.catir.compile import CompiledCheck, CompiledModel

# -- abstract domains ---------------------------------------------------------

_KIND_MEMO: Dict[ir.Node, Optional[FrozenSet[str]]] = {}
_TAG_MEMO: Dict[ir.Node, Optional[FrozenSet[str]]] = {}
_ATTR_MEMO: Dict[ir.Node, FrozenSet[str]] = {}
_BOUND_MEMO: Dict[Tuple[ir.Node, str], Optional[ir.Node]] = {}


def _join(values):
    """Union of optional upper bounds: None (= no bound) absorbs."""
    out: FrozenSet[str] = frozenset()
    for value in values:
        if value is None:
            return None
        out |= value
    return out


def _meet(values):
    """Intersection of optional upper bounds: None is the top element."""
    out = None
    for value in values:
        if value is None:
            continue
        out = value if out is None else out & value
    return out


def set_kinds(node: ir.Node) -> Optional[FrozenSet[str]]:
    """Upper bound on the event kinds (R/W/F) a set node may contain."""
    if node in _KIND_MEMO:
        return _KIND_MEMO[node]
    result: Optional[FrozenSet[str]]
    if node.kind == "base":
        result = facts.base_set_kinds(node.name)
    elif node.kind == "empty":
        result = frozenset()
    elif node.kind == "union":
        result = _join(set_kinds(op) for op in node.operands)
    elif node.kind == "inter":
        result = _meet(set_kinds(op) for op in node.operands)
    elif node.kind == "diff":
        result = set_kinds(node.operands[0])
    elif node.kind == "domain":
        result = _bound_kinds(node.operands[0], "domain")
    elif node.kind == "range":
        result = _bound_kinds(node.operands[0], "range")
    else:  # compl and anything unforeseen: no bound
        result = None
    _KIND_MEMO[node] = result
    return result


def set_tags(node: ir.Node) -> Optional[FrozenSet[str]]:
    """Upper bound on the annotations of events in a set node."""
    if node in _TAG_MEMO:
        return _TAG_MEMO[node]
    result: Optional[FrozenSet[str]]
    if node.kind == "base":
        result = facts.base_set_tags(node.name)
    elif node.kind == "empty":
        result = frozenset()
    elif node.kind == "union":
        result = _join(set_tags(op) for op in node.operands)
    elif node.kind == "inter":
        result = _meet(set_tags(op) for op in node.operands)
    elif node.kind == "diff":
        result = set_tags(node.operands[0])
    else:
        result = None
    _TAG_MEMO[node] = result
    return result


def sets_disjoint(a: ir.Node, b: ir.Node) -> Optional[str]:
    """A reason why set nodes ``a`` and ``b`` share no event, or None."""
    ka, kb = set_kinds(a), set_kinds(b)
    if ka is not None and kb is not None and not (ka & kb):
        return "reads, writes and fences are disjoint event kinds"
    ta, tb = set_tags(a), set_tags(b)
    if ta is not None and tb is not None and not (ta & tb):
        return "every event carries exactly one annotation"
    return None


def rel_attrs(node: ir.Node) -> FrozenSet[str]:
    """Sound attribute set of a relation node, each an upper bound:
    ``int`` ⇒ contained in same-thread pairs, ``ext`` ⇒ different-thread,
    ``id`` ⇒ contained in the identity, ``irr`` ⇒ irreflexive."""
    if node in _ATTR_MEMO:
        return _ATTR_MEMO[node]
    result: FrozenSet[str]
    if node.kind == "base":
        result = facts.REL_ATTRS.get(node.name, frozenset())
    elif node.kind == "empty":
        result = frozenset({"int", "ext", "id", "irr"})
    elif node.kind == "setid":
        result = frozenset({"int", "id"})
    elif node.kind == "union":
        ops = [rel_attrs(op) for op in node.operands]
        result = frozenset.intersection(*ops)
    elif node.kind == "inter":
        result = frozenset().union(*(rel_attrs(op) for op in node.operands))
    elif node.kind == "diff":
        result = rel_attrs(node.operands[0])
    elif node.kind == "seq":
        # Same-thread composes (tid equality is transitive); so do
        # subidentities.  ext does not (a;b may return to the thread),
        # and irreflexivity is not compositional.
        ops = [rel_attrs(op) for op in node.operands]
        result = frozenset.intersection(*ops) & frozenset({"int", "id"})
    elif node.kind == "inverse":
        result = rel_attrs(node.operands[0])  # all four are symmetric
    elif node.kind == "plus":
        result = rel_attrs(node.operands[0]) & frozenset({"int", "id"})
    elif node.kind in ("opt", "star"):
        result = rel_attrs(node.operands[0]) & frozenset({"int", "id"})
    elif node.kind == "fencerel":
        # (a, c) with a fence po-between: same thread, strictly ordered.
        result = frozenset({"int", "irr"})
    else:  # cartesian, compl, rec
        result = frozenset()
    _ATTR_MEMO[node] = result
    return result


def _bound(node: ir.Node, side: str) -> Optional[ir.Node]:
    """A *set node* upper bound on the domain (``side="domain"``) or
    range of a relation node, or None."""
    key = (node, side)
    if key in _BOUND_MEMO:
        return _BOUND_MEMO[key]
    result: Optional[ir.Node] = None
    if node.kind == "base":
        bounds = facts.REL_BOUNDS.get(node.name)
        if bounds is not None:
            name = bounds[0] if side == "domain" else bounds[1]
            if name is not None:
                result = ir.base(name, ir.SET)
    elif node.kind == "empty":
        result = ir.empty(ir.SET)
    elif node.kind == "setid":
        result = node.operands[0]
    elif node.kind == "cartesian":
        result = node.operands[0] if side == "domain" else node.operands[1]
    elif node.kind == "inter":
        bounds = [
            b for b in (_bound(op, side) for op in node.operands)
            if b is not None
        ]
        if bounds:
            result = ir.inter(bounds)
    elif node.kind == "union":
        bounds = [_bound(op, side) for op in node.operands]
        if all(b is not None for b in bounds):
            result = ir.union(bounds)
    elif node.kind == "diff":
        result = _bound(node.operands[0], side)
    elif node.kind == "seq":
        edge = node.operands[0] if side == "domain" else node.operands[-1]
        result = _bound(edge, side)
    elif node.kind == "inverse":
        other = "range" if side == "domain" else "domain"
        result = _bound(node.operands[0], other)
    elif node.kind == "plus":
        result = _bound(node.operands[0], side)
    # opt/star/compl/rec/fencerel: no bound (opt and star include id on
    # the whole universe).
    _BOUND_MEMO[key] = result
    return result


def _bound_kinds(node: ir.Node, side: str) -> Optional[FrozenSet[str]]:
    bound = _bound(node, side)
    return set_kinds(bound) if bound is not None else None


def rels_disjoint(a: ir.Node, b: ir.Node) -> Optional[str]:
    """A reason why relation nodes ``a`` and ``b`` share no pair."""
    attrs_a, attrs_b = rel_attrs(a), rel_attrs(b)
    if ("int" in attrs_a and "ext" in attrs_b) or (
        "ext" in attrs_a and "int" in attrs_b
    ):
        return "one side is same-thread (int), the other different-thread (ext)"
    if ("id" in attrs_a and "irr" in attrs_b) or (
        "irr" in attrs_a and "id" in attrs_b
    ):
        return "one side lies in the identity, the other is irreflexive"
    for side in ("domain", "range"):
        ba, bb = _bound(a, side), _bound(b, side)
        if ba is not None and bb is not None:
            reason = sets_disjoint(ba, bb)
            if reason is not None:
                return f"their {side}s are disjoint ({reason})"
    return None


# -- emptiness ----------------------------------------------------------------

_EMPTY_MEMO: Dict[Tuple[ir.Node, FrozenSet[int]], Optional[str]] = {}


def prove_empty(node: ir.Node,
                _assumed: FrozenSet[int] = frozenset()) -> Optional[str]:
    """A reason why ``node`` denotes the empty relation/set in *every*
    candidate execution, or None when emptiness cannot be proven."""
    key = (node, _assumed)
    if key in _EMPTY_MEMO:
        return _EMPTY_MEMO[key]
    _EMPTY_MEMO[key] = None  # cycle guard: unproven while in progress
    result = _prove_empty(node, _assumed)
    _EMPTY_MEMO[key] = result
    return result


def _prove_empty(node: ir.Node, assumed: FrozenSet[int]) -> Optional[str]:
    if node.kind == "empty":
        return "it is the empty " + (
            "set" if node.sort == ir.SET else "relation"
        )
    if node.kind == "union":
        reasons = [prove_empty(op, assumed) for op in node.operands]
        if all(reasons):
            return f"every alternative is empty ({reasons[0]})"
        return None
    if node.kind == "inter":
        for op in node.operands:
            reason = prove_empty(op, assumed)
            if reason is not None:
                return reason
        disjoint = sets_disjoint if node.sort == ir.SET else rels_disjoint
        ops = node.operands
        for i in range(len(ops)):
            for j in range(i + 1, len(ops)):
                reason = disjoint(ops[i], ops[j])
                if reason is not None:
                    return (
                        f"'{_short(ops[i])}' and '{_short(ops[j])}' are "
                        f"disjoint: {reason}"
                    )
        return None
    if node.kind == "seq":
        for op in node.operands:
            reason = prove_empty(op, assumed)
            if reason is not None:
                return reason
        for left, right in zip(node.operands, node.operands[1:]):
            rng = _bound(left, "range")
            dom = _bound(right, "domain")
            if rng is not None and dom is not None:
                reason = sets_disjoint(rng, dom)
                if reason is not None:
                    return (
                        f"'{_short(left)}' never reaches '{_short(right)}': "
                        f"{reason}"
                    )
        return None
    if node.kind == "diff":
        lhs, rhs = node.operands
        reason = prove_empty(lhs, assumed)
        if reason is not None:
            return reason
        if subsumes(rhs, lhs):
            return "the left side is contained in the subtracted side"
        return None
    if node.kind == "cartesian":
        for op in node.operands:
            reason = prove_empty(op, assumed)
            if reason is not None:
                return reason
        return None
    if node.kind in ("setid", "plus", "inverse", "domain", "range",
                     "fencerel"):
        return prove_empty(node.operands[0], assumed)
    if node.kind == "rec":
        if node.group_id in assumed:
            return "recursive reference (assumed empty for the fixpoint)"
        group = ir.group_of(node)
        inner = assumed | {node.group_id}
        reasons = [prove_empty(body, inner) for body in group.bodies]
        if all(reasons):
            return (
                "the least fixpoint of definitions that stay empty when "
                f"the group is empty ({reasons[0]})"
            )
        return None
    # opt/star contain the identity; compl of an empty universe never
    # happens; base relations may be inhabited.
    return None


# -- subsumption --------------------------------------------------------------

_SUB_MEMO: Dict[Tuple[ir.Node, ir.Node], bool] = {}


def subsumes(sup: ir.Node, sub: ir.Node) -> bool:
    """True when ``sub ⊆ sup`` holds in every candidate execution.
    Incomplete by design (False means "could not prove")."""
    if sup is sub:
        return True
    key = (sup, sub)
    if key in _SUB_MEMO:
        return _SUB_MEMO[key]
    _SUB_MEMO[key] = False  # cycle guard; sound (under-approximates)
    result = _subsumes(sup, sub)
    _SUB_MEMO[key] = result
    return result


def _subsumes(sup: ir.Node, sub: ir.Node) -> bool:
    if prove_empty(sub) is not None:
        return True
    # Structural decompositions of the sub side.
    if sub.kind == "union":
        return all(subsumes(sup, op) for op in sub.operands)
    if sub.kind == "diff" and subsumes(sup, sub.operands[0]):
        return True
    if sub.kind == "inter" and any(
        subsumes(sup, op) for op in sub.operands
    ):
        return True
    if sub.kind == "seq":
        # [S] ; r ; [T] ⊆ r: dropping restrictions only grows a sequence.
        stripped = [op for op in sub.operands if op.kind != "setid"]
        if stripped and len(stripped) < len(sub.operands):
            if subsumes(sup, ir.seq(stripped)):
                return True
    # Structural decompositions of the sup side.
    if sup.kind == "union" and any(
        subsumes(op, sub) for op in sup.operands
    ):
        return True
    if sup.kind == "inter":
        return all(subsumes(op, sub) for op in sup.operands)
    if sup.kind == "diff":
        keep, minus = sup.operands
        if subsumes(keep, sub) and rels_disjoint(sub, minus) is not None:
            return True
    if sup.kind == "base":
        attrs = rel_attrs(sub) if sub.sort == ir.REL else frozenset()
        if sup.name in ("int", "ext", "id") and sup.name in attrs:
            return True
        if sub.sort == ir.SET:
            if sup.name == "_":
                return True
            if sub.kind == "base" and sup.name in facts.SET_CONTAIN.get(
                sub.name, frozenset()
            ):
                return True
    if sup.kind == "opt":
        inner = sup.operands[0]
        if "id" in rel_attrs(sub):
            return True
        if sub.kind == "opt" and subsumes(sup, sub.operands[0]):
            return True
        if subsumes(inner, sub):
            return True
    if sup.kind == "star":
        inner = sup.operands[0]
        if "id" in rel_attrs(sub):
            return True
        if sub.kind in ("star", "plus", "opt") and subsumes(
            sup, sub.operands[0]
        ):
            # y ⊆ x*  ⇒  y* ⊆ (x*)* = x*.
            return True
        if sub.kind == "seq" and all(
            subsumes(sup, op) for op in sub.operands
        ):
            return True  # x* is closed under composition
        if subsumes(inner, sub):
            return True
    if sup.kind == "plus":
        inner = sup.operands[0]
        if sub.kind == "plus" and subsumes(sup, sub.operands[0]):
            # y ⊆ x+  ⇒  y+ ⊆ (x+)+ = x+.
            return True
        if sub.kind == "seq" and all(
            subsumes(sup, op) for op in sub.operands
        ):
            return True  # x+ is closed under composition
        if subsumes(inner, sub):
            return True
    if sup.kind == "seq" and sub.kind == "seq" and len(sup.operands) == len(
        sub.operands
    ):
        if all(
            subsumes(a, b) for a, b in zip(sup.operands, sub.operands)
        ):
            return True
    if sup.kind == "cartesian" and sub.sort == ir.REL:
        dom = _bound(sub, "domain")
        rng = _bound(sub, "range")
        if (
            dom is not None
            and rng is not None
            and subsumes(sup.operands[0], dom)
            and subsumes(sup.operands[1], rng)
        ):
            return True
    if sup.kind == "setid" and sub.kind == "setid":
        return subsumes(sup.operands[0], sub.operands[0])
    if sup.kind == "inverse" and sub.kind == "inverse":
        return subsumes(sup.operands[0], sub.operands[0])
    if sub.kind == "inverse":
        if sup.kind == "base" and sup.name in ir.SYMMETRIC_BASES:
            # sup symmetric: y ⊆ sup  ⇒  y^-1 ⊆ sup^-1 = sup.
            if subsumes(sup, sub.operands[0]):
                return True
    return False


# -- findings -----------------------------------------------------------------

_SUPPRESS_RE = re.compile(
    r"\(\*\s*lint:\s*allow\s+([A-Z]+\d+(?:\s*,\s*[A-Z]+\d+)*)\s*\*\)"
)


def parse_suppressions(text: str) -> FrozenSet[str]:
    """Codes suppressed by ``(* lint: allow CAT011 *)`` comments (several
    codes may be comma-separated); file-wide, like herd's own flags."""
    codes: Set[str] = set()
    for match in _SUPPRESS_RE.finditer(text):
        codes.update(c.strip() for c in match.group(1).split(","))
    return frozenset(codes)


def _short(node: ir.Node, limit: int = 60) -> str:
    text = node.pstr
    if len(text) > limit:
        return text[: limit - 3] + "..."
    return text


def analyze_compiled(model: CompiledModel,
                     source: Optional[str] = None) -> List[Finding]:
    """Run the semantic check analyses over a compiled model."""
    source = source or model.name
    findings: List[Finding] = []
    enforcing = []  # earlier checks usable as premises
    for check in model.checks:
        if check.negated:
            continue
        reason = prove_empty(check.root)
        if reason is not None:
            findings.append(Finding.of(
                source,
                "dead-check",
                f"check '{check.label}' is trivially satisfied: "
                f"'{_short(check.root)}' is provably empty — {reason}",
            ))
        elif not check.flag:
            implied = _implied_by(check, enforcing)
            if implied is not None:
                category, message = implied
                findings.append(Finding.of(source, category, message))
        if not check.flag:
            enforcing.append(check)
    findings.extend(_unreachable_bindings(model, source))
    return findings


def _implied_by(check, earlier) -> Optional[Tuple[str, str]]:
    """(category, message) when ``check`` is implied by an earlier
    enforcing check, else None."""
    for prior in earlier:
        if prior.kind == "empty" and subsumes(prior.root, check.root):
            return (
                "redundant-check",
                f"check '{check.label}' is subsumed by '{prior.label}': "
                f"'{_short(check.root)}' is contained in the already-empty "
                f"'{_short(prior.root)}'",
            )
        if (
            check.kind == "irreflexive"
            and prior.kind == "irreflexive"
            and subsumes(prior.root, check.root)
        ):
            return (
                "redundant-check",
                f"check '{check.label}' is subsumed by '{prior.label}': "
                "a subrelation of an irreflexive relation is irreflexive",
            )
        if check.kind in ("irreflexive", "acyclic") and prior.kind == "acyclic":
            if subsumes(ir.plus(prior.root), check.root):
                if check.kind == "acyclic":
                    return (
                        "implied-acyclicity",
                        f"check '{check.label}' is implied by "
                        f"'{prior.label}': every cycle of "
                        f"'{_short(check.root)}' maps into a cycle of the "
                        f"already-acyclic '{_short(prior.root)}'",
                    )
                return (
                    "redundant-check",
                    f"check '{check.label}' is subsumed by '{prior.label}': "
                    f"a reflexive pair of '{_short(check.root)}' would be "
                    f"a cycle of the already-acyclic '{_short(prior.root)}'",
                )
    return None


#: ``acyclic(po-loc | com)``: SC PER LOCATION, with ``fr = rf^-1 ; co``.
_SC_PER_LOCATION = ir.union([
    ir.inter([ir.base("po", ir.REL), ir.base("loc", ir.REL)]),
    ir.base("rf", ir.REL),
    ir.base("co", ir.REL),
    ir.seq([ir.inverse(ir.base("rf", ir.REL)), ir.base("co", ir.REL)]),
])


def implies_sc_per_location(model: CompiledModel) -> bool:
    """True when an enforcing check of ``model`` implies
    ``acyclic(po-loc | com)`` (the CAT014 test of :func:`_implied_by`)."""
    target = CompiledCheck(
        "acyclic", _SC_PER_LOCATION, "sc-per-location", False, False, -1
    )
    enforcing = [c for c in model.checks if not (c.negated or c.flag)]
    return _implied_by(target, enforcing) is not None


def _unreachable_bindings(model: CompiledModel,
                          source: str) -> List[Finding]:
    """CAT013: bindings referenced only by definitions that never feed a
    check (CAT004 already covers bindings referenced by nothing)."""
    statements = model.statements
    edges: Dict[str, Set[str]] = {}
    order: List[str] = []
    roots: Set[str] = set()
    for statement in statements:
        if isinstance(statement, C.Let):
            for binding in statement.bindings:
                free: Set[str] = set()
                _free_identifiers(binding.expr, free)
                free -= set(binding.params)
                if binding.name not in edges:
                    order.append(binding.name)
                edges[binding.name] = free
        elif isinstance(statement, C.Check):
            _free_identifiers(statement.expr, roots)
    reachable: Set[str] = set()
    frontier = [name for name in roots if name in edges]
    while frontier:
        name = frontier.pop()
        if name in reachable:
            continue
        reachable.add(name)
        frontier.extend(n for n in edges[name] if n in edges)
    referenced: Set[str] = set(roots)
    for free in edges.values():
        referenced |= free
    findings = []
    for name in order:
        if name in reachable:
            continue
        if name not in referenced:
            continue  # CAT004's territory (never referenced at all)
        if name in edges.get(name, ()) and not any(
            name in edges[other] for other in edges if other != name
        ) and name not in roots:
            continue  # only referenced by itself (let rec r = ... r ...)
        findings.append(Finding.of(
            source,
            "unreachable-binding",
            f"'let {name}' is referenced, but only by definitions that "
            "never feed any check — it cannot influence a verdict",
        ))
    return findings


def _model_of(cat_file: C.CatFile, source: Optional[str]) -> CatModel:
    """The shared :func:`~repro.cat.eval.load_model` instance when
    ``source`` is the path of a bundled model that parses to ``cat_file``
    (so its IR is compiled once per process), else a new model."""
    if source is not None:
        path = Path(source)
        if (path.suffix == ".cat" and path.is_file()
                and path.parent.resolve() == MODELS_DIR.resolve()):
            shared = load_model(path.stem)
            if shared.cat_file == cat_file:
                return shared
    return CatModel(cat_file, name=source)


def analyze_cat_file(cat_file: C.CatFile, source: Optional[str] = None,
                     suppress: Sequence[str] = ()) -> List[Finding]:
    """Compile ``cat_file`` and run the semantic analyses; a model that
    does not compile (surface errors — unbound names, sort clashes,
    missing includes — which the CAT001–CAT009 lint already reports)
    yields no semantic findings."""
    compiled = _model_of(cat_file, source).compiled
    if compiled is None:
        return []
    findings = analyze_compiled(compiled, source=source or cat_file.name)
    if suppress:
        blocked = frozenset(suppress)
        findings = [f for f in findings if f.code not in blocked]
    return findings
