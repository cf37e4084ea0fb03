"""Systematic test families (Section 5's "systematic variations").

The paper validates the model with "systematic variations of several
tests with all combinations of fences or dependencies".  This module
generates those families: a *family* fixes a communication skeleton
(MP, SB, LB, WRC, R, 2+2W) and sweeps every combination of program-order
edges compatible with it.

It also defines the *strength order* on edges (a plain program-order edge
is weaker than a wmb is weaker than an mb is weaker than a grace period,
...), which yields the family-level sanity property checked by
``benchmarks/test_families.py``: **strengthening edges can only flip a
verdict from Allow to Forbid, never back** — the model is monotone in its
synchronisation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

from repro.diy.generator import CycleError, generate
from repro.litmus.ast import Program

#: Program-order edge choices per endpoint-kind signature.
RR_EDGES = ["PodRR", "RmbdRR", "DpAddrdR", "DpAddrRbDepdR", "AcqdR",
            "MbdRR", "SyncdRR"]
RW_EDGES = ["PodRW", "DpDatadW", "DpCtrldW", "AcqdW", "ReldW", "MbdRW",
            "SyncdRW"]
WR_EDGES = ["PodWR", "MbdWR", "SyncdWR"]
WW_EDGES = ["PodWW", "WmbdWW", "ReldW", "MbdWW", "SyncdWW"]

#: edge -> the strictly weaker edges of the same signature.  The order is
#: reflexive-transitively closed by ``weaker_or_equal``.
_WEAKER: Dict[str, Tuple[str, ...]] = {
    # RR: everything is stronger than plain po; rb-dep strengthens the
    # bare address dependency; mb subsumes rmb/acquire; a grace period
    # subsumes mb (strong-fence = mb | gp).
    "RmbdRR": ("PodRR",),
    "DpAddrdR": ("PodRR",),
    "DpAddrRbDepdR": ("DpAddrdR", "PodRR"),
    "AcqdR": ("PodRR",),
    "MbdRR": ("RmbdRR", "AcqdR", "PodRR"),
    "SyncdRR": ("MbdRR", "RmbdRR", "AcqdR", "PodRR"),
    # RW.
    "DpDatadW": ("PodRW",),
    "DpCtrldW": ("PodRW",),
    "AcqdW": ("PodRW",),
    "MbdRW": ("DpDatadW", "DpCtrldW", "AcqdW", "PodRW"),
    "SyncdRW": ("MbdRW", "DpDatadW", "DpCtrldW", "AcqdW", "PodRW"),
    # WR.
    "MbdWR": ("PodWR",),
    "SyncdWR": ("MbdWR", "PodWR"),
    # WW.
    "WmbdWW": ("PodWW",),
    "MbdWW": ("WmbdWW", "PodWW"),
    "SyncdWW": ("MbdWW", "WmbdWW", "PodWW"),
}
# ReldW is both an RW and a WW choice; a release-annotated write is
# stronger than plain po on either signature.
_WEAKER["ReldW"] = ("PodRW", "PodWW")
_WEAKER["MbdRW"] = _WEAKER["MbdRW"] + ("ReldW",)
_WEAKER["SyncdRW"] = _WEAKER["SyncdRW"] + ("ReldW",)
_WEAKER["MbdWW"] = _WEAKER["MbdWW"] + ("ReldW",)
_WEAKER["SyncdWW"] = _WEAKER["SyncdWW"] + ("ReldW",)


def weaker_or_equal(weak: str, strong: str) -> bool:
    """True iff ``weak`` is the same edge as ``strong`` or strictly weaker
    (reflexive-transitive closure of the strength table)."""
    if weak == strong:
        return True
    seen = set()
    frontier = [strong]
    while frontier:
        edge = frontier.pop()
        for weaker in _WEAKER.get(edge, ()):
            if weaker == weak:
                return True
            if weaker not in seen:
                seen.add(weaker)
                frontier.append(weaker)
    return False


@dataclass(frozen=True)
class FamilyMember:
    """One variation: the program plus the program-order edges chosen."""

    program: Program
    po_edges: Tuple[str, ...]


#: family name -> (communication skeleton with None slots, slot choices).
FAMILIES: Dict[str, Tuple[Tuple[object, ...], Tuple[List[str], ...]]] = {
    # MP: Rfe then a read-side edge; Fre then a write-side edge.
    "MP": (("Rfe", None, "Fre", None), (RR_EDGES, WW_EDGES)),
    # SB: two write-to-read sides.
    "SB": (("Fre", None, "Fre", None), (WR_EDGES, WR_EDGES)),
    # LB: two read-to-write sides.
    "LB": (("Rfe", None, "Rfe", None), (RW_EDGES, RW_EDGES)),
    # R: coherence against from-read.
    "R": (("Coe", None, "Fre", None), (WR_EDGES, WW_EDGES)),
    # 2+2W: two coherence edges.
    "2+2W": (("Coe", None, "Coe", None), (WW_EDGES, WW_EDGES)),
    # WRC: three threads; writer, forwarder (read-to-write), reader.
    "WRC": (("Rfe", None, "Rfe", None, "Fre"), (RW_EDGES, RR_EDGES)),
}


def family(name: str) -> Iterator[FamilyMember]:
    """Every realisable variation of the named family."""
    try:
        skeleton, slot_choices = FAMILIES[name]
    except KeyError:
        raise KeyError(
            f"unknown family {name!r}; known: {sorted(FAMILIES)}"
        ) from None
    slots = [i for i, edge in enumerate(skeleton) if edge is None]
    for combo in itertools.product(*slot_choices):
        edges = list(skeleton)
        for slot, choice in zip(slots, combo):
            edges[slot] = choice
        try:
            program = generate(
                [str(e) for e in edges],
                name=f"{name}+" + "+".join(combo),
            )
        except CycleError:
            continue
        yield FamilyMember(program, tuple(combo))


def check_monotonicity(
    verdicts: Dict[Tuple[str, ...], str]
) -> List[Tuple[Tuple[str, ...], Tuple[str, ...]]]:
    """Find monotonicity violations in a family's verdict map.

    Returns pairs (weaker variation, stronger variation) where the weaker
    one is Forbid but the stronger one is Allow — the model would be
    incoherent if any existed.
    """
    violations = []
    for weak_edges, weak_verdict in verdicts.items():
        if weak_verdict != "Forbid":
            continue
        for strong_edges, strong_verdict in verdicts.items():
            if strong_verdict != "Allow":
                continue
            if len(weak_edges) != len(strong_edges):
                continue
            if all(
                weaker_or_equal(w, s)
                for w, s in zip(weak_edges, strong_edges)
            ):
                violations.append((weak_edges, strong_edges))
    return violations
