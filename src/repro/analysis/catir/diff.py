"""Structural and algebraic comparison of compiled cat models.

Because the IR is hash-consed process-wide, two models compiled in the
same process share nodes for structurally identical definitions — so
"the same relation" is literal pointer equality, across models, after
normalization.  That makes the diff sharper than text comparison in both
directions: definitions that *look* different but normalize identically
are reported as shared, and a definition whose *name* differs but whose
node is the same as another model's is reported as renamed-but-equal
(IMM-style model correspondence, arXiv:1807.07892, at the cheap
structural level).

The ``repro-lint --diff-models A B`` CLI prints :meth:`ModelDiff.describe`;
``repro-lint --models`` prints :func:`models_report` plus the semantic
lint findings for every bundled model.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.analysis.catir import ir
from repro.analysis.catir.compile import (
    CompiledCheck,
    CompiledModel,
    compile_model,
)

#: Truncation width for pretty-printed nodes in reports.
_WIDTH = 60


def _short(node: ir.Node, limit: int = _WIDTH) -> str:
    text = node.pstr
    if len(text) > limit:
        return text[: limit - 3] + "..."
    return text


class ModelDiff:
    """The comparison of two compiled models."""

    def __init__(self, left: CompiledModel, right: CompiledModel):
        self.left = left
        self.right = right
        ldefs, rdefs = left.definitions, right.definitions
        #: Names defined in both models with the *same* node.
        self.shared: List[str] = [
            name for name, node in ldefs.items()
            if name in rdefs and rdefs[name] is node
        ]
        #: (name, left node, right node) for same-name different-value.
        self.changed: List[Tuple[str, ir.Node, ir.Node]] = [
            (name, node, rdefs[name])
            for name, node in ldefs.items()
            if name in rdefs and rdefs[name] is not node
        ]
        self.only_left: List[str] = [n for n in ldefs if n not in rdefs]
        self.only_right: List[str] = [n for n in rdefs if n not in ldefs]
        #: (left name, right name): differently-named but identical nodes,
        #: where the pair is not already explained by a shared name.
        self.renamed: List[Tuple[str, str]] = self._renamed(ldefs, rdefs)
        (
            self.shared_checks,
            self.changed_checks,
            self.only_left_checks,
            self.only_right_checks,
        ) = self._diff_checks(left.checks, right.checks)

    @staticmethod
    def _renamed(
        ldefs: Dict[str, ir.Node], rdefs: Dict[str, ir.Node]
    ) -> List[Tuple[str, str]]:
        by_left_node: Dict[ir.Node, str] = {}
        for name, node in ldefs.items():
            # First definition wins: earliest name is the canonical one.
            by_left_node.setdefault(node, name)
        pairs: List[Tuple[str, str]] = []
        for rname, rnode in rdefs.items():
            lname = by_left_node.get(rnode)
            if lname is None or lname == rname:
                continue
            if rname in ldefs and ldefs[rname] is rnode:
                continue  # already reported as shared
            if (
                lname in rdefs
                and rdefs[lname] is rnode
                and rname in ldefs
                and ldefs[rname] is rnode
            ):
                continue  # the same alias pair exists in both models
            pairs.append((lname, rname))
        return pairs

    @staticmethod
    def _diff_checks(
        lchecks: Tuple[CompiledCheck, ...],
        rchecks: Tuple[CompiledCheck, ...],
    ):
        lmap = {c.label: c for c in lchecks}
        rmap = {c.label: c for c in rchecks}
        shared: List[str] = []
        changed: List[Tuple[CompiledCheck, CompiledCheck]] = []
        for label, lcheck in lmap.items():
            rcheck = rmap.get(label)
            if rcheck is None:
                continue
            if (
                lcheck.root is rcheck.root
                and lcheck.kind == rcheck.kind
                and lcheck.negated == rcheck.negated
                and lcheck.flag == rcheck.flag
            ):
                shared.append(label)
            else:
                changed.append((lcheck, rcheck))
        only_left = [c for c in lchecks if c.label not in rmap]
        only_right = [c for c in rchecks if c.label not in lmap]
        return shared, changed, only_left, only_right

    # -- rendering -------------------------------------------------------

    def describe(self) -> str:
        """A deterministic, human-readable report (ASCII, stable order:
        definition/check order of the models themselves)."""
        ln, rn = self.left.name, self.right.name
        out: List[str] = [f"model diff: {ln} vs {rn}", ""]
        out.append("definitions")
        out.append(_listing(f"  shared ({len(self.shared)})", self.shared))
        out.append(f"  changed ({len(self.changed)}):")
        for name, lnode, rnode in self.changed:
            out.append(f"    {name}:")
            out.append(f"      {ln}: {_short(lnode)}")
            out.append(f"      {rn}: {_short(rnode)}")
        out.append(_listing(
            f"  only in {ln} ({len(self.only_left)})", self.only_left
        ))
        out.append(_listing(
            f"  only in {rn} ({len(self.only_right)})", self.only_right
        ))
        if self.renamed:
            out.append(f"  renamed but equal ({len(self.renamed)}):")
            for lname, rname in self.renamed:
                out.append(f"    {ln} '{lname}' = {rn} '{rname}'")
        out.append("")
        out.append("checks")
        out.append(_listing(
            f"  identical ({len(self.shared_checks)})", self.shared_checks
        ))
        out.append(f"  changed ({len(self.changed_checks)}):")
        for lcheck, rcheck in self.changed_checks:
            out.append(f"    {lcheck.label}:")
            out.append(
                f"      {ln}: {lcheck.kind} {_short(lcheck.root)}"
            )
            out.append(
                f"      {rn}: {rcheck.kind} {_short(rcheck.root)}"
            )
        out.append(_listing(
            f"  only in {ln} ({len(self.only_left_checks)})",
            [f"{c.kind} {c.label}" for c in self.only_left_checks],
        ))
        out.append(_listing(
            f"  only in {rn} ({len(self.only_right_checks)})",
            [f"{c.kind} {c.label}" for c in self.only_right_checks],
        ))
        return "\n".join(out) + "\n"

    @property
    def identical(self) -> bool:
        return not (
            self.changed
            or self.only_left
            or self.only_right
            or self.changed_checks
            or self.only_left_checks
            or self.only_right_checks
        )


def _listing(header: str, names: List[str]) -> str:
    if not names:
        return f"{header}: -"
    return f"{header}: " + ", ".join(names)


def diff_models(left: str, right: str) -> ModelDiff:
    """Diff two bundled models by name, over the IR each shared
    :class:`~repro.cat.eval.CatModel` owns."""
    return ModelDiff(compile_model(left), compile_model(right))


def bundled_model_names() -> List[str]:
    from repro.cat.eval import MODELS_DIR

    return sorted(p.stem for p in MODELS_DIR.glob("*.cat"))


def models_report() -> str:
    """One summary line per bundled model: size of its compiled form and
    how much of it is shared (node-identical definitions) with each other
    bundled model."""
    names = bundled_model_names()
    compiled = {name: compile_model(name) for name in names}
    out: List[str] = ["bundled cat models (compiled to the relational IR)", ""]
    for name in names:
        model = compiled[name]
        out.append(
            f"{name}: {len(model.definitions)} definitions, "
            f"{len(model.functions)} functions, "
            f"{len(model.checks)} checks"
        )
        overlaps = []
        for other in names:
            if other == name:
                continue
            other_defs = compiled[other].definitions
            count = sum(
                1 for dname, dnode in model.definitions.items()
                if other_defs.get(dname) is dnode
            )
            if count:
                overlaps.append(f"{other} ({count})")
        if overlaps:
            out.append("  shared definitions with: " + ", ".join(overlaps))
    return "\n".join(out) + "\n"
