"""Unit tests for the symbolic prover's internals.

The end-to-end contract (soundness, coverage, drift) lives in
``test_static_verdicts.py``; this module pins the *mechanisms* — the
axiom-to-order-table lowering, the condition footprint, the
unsat-condition shortcut, and the scaling property the prover exists
for: a fence-chain family whose candidate space doubles per thread is
decided with zero candidates enumerated.
"""

from __future__ import annotations

import pytest

from repro.analysis.symbolic import decide
from repro.analysis.symbolic.footprint import (
    guaranteed_edges,
    resolve_footprint,
)
from repro.analysis.symbolic.skeleton import extract_skeleton
from repro.analysis.symbolic.tables import order_table, ordered_shapes
from repro.cat import load_model
from repro.herd import run_litmus
from repro.kernel import config as kconfig
from repro.litmus import library
from repro.litmus.parser import parse_litmus
from repro.obs import core as obs


def _chain(threads, middle_fence="smp_mb"):
    """An ISA2-style message chain: P0 raises flag x1 after storing x0,
    each middle thread forwards the flag under ``middle_fence``, the
    last thread reads back x0.  With ``smp_mb`` the outcome is forbidden
    under LKMM; with ``smp_rmb`` (which does not order R->W) allowed."""
    n = threads
    lines = [
        f"C chain-{middle_fence}-{n}",
        "{ " + " ".join(f"x{i}=0;" for i in range(n)) + " }",
        "P0(int *x0, int *x1)\n{\n    WRITE_ONCE(*x0, 1);\n"
        "    smp_wmb();\n    WRITE_ONCE(*x1, 1);\n}",
    ]
    for i in range(1, n - 1):
        lines.append(
            f"P{i}(int *x{i}, int *x{i + 1})\n{{\n"
            f"    int r0 = READ_ONCE(*x{i});\n    {middle_fence}();\n"
            f"    WRITE_ONCE(*x{i + 1}, 1);\n}}"
        )
    lines.append(
        f"P{n - 1}(int *x{n - 1}, int *x0)\n{{\n"
        f"    int r0 = READ_ONCE(*x{n - 1});\n    smp_rmb();\n"
        f"    int r1 = READ_ONCE(*x0);\n}}"
    )
    cond = " /\\ ".join(f"{i}:r0=1" for i in range(1, n))
    lines.append(f"exists ({cond} /\\ {n - 1}:r1=0)")
    return parse_litmus("\n".join(lines))


# ---------------------------------------------------------------------------
# Order tables


def test_order_table_lkmm_fences_order_po():
    table = order_table(load_model("lkmm"))
    # A full barrier orders every access pair; the lightweight fences
    # order their documented subsets; bare program order orders nothing.
    for shape in ("MbdRR", "MbdRW", "MbdWR", "MbdWW"):
        assert table[shape], shape
    assert table["WmbdWW"]
    assert table["RmbdRR"]
    assert table["PodWR"] == ()
    assert table["PodWW"] == ()


def test_order_table_tso_relaxes_only_store_load():
    table = order_table(load_model("tso"))
    # The store buffer: W->R is the one program-order TSO relaxes.
    assert table["PodWR"] == ()
    for shape in ("PodRR", "PodRW", "PodWW", "DpAddrdR"):
        assert table[shape], shape
    # Communication edges are ordered outright.
    for shape in ("Rfe", "Fre", "Coe"):
        assert table[shape], shape


def test_order_table_sc_orders_every_posed_shape():
    table = order_table(load_model("sc"))
    # SC orders every program-order and communication shape; the only
    # permissible empty rows are shapes the lowering cannot even pose
    # (no fixed endpoint kinds).
    for name, axioms in table.items():
        if name.startswith(("Pod", "Mbd", "Dp")) or name in (
            "Rfe",
            "Fre",
            "Coe",
        ):
            assert axioms == ("sequential-consistency",), name


def test_ordered_shapes_sorted_and_nonempty():
    shapes = ordered_shapes(load_model("lkmm"))
    assert shapes == tuple(sorted(shapes))
    assert "MbdWR" in shapes


# ---------------------------------------------------------------------------
# Condition footprint


def test_footprint_pins_mp_edges():
    program = library.get("MP+wmb+rmb")
    skeleton = extract_skeleton(program)
    footprint = resolve_footprint(skeleton, program.condition.body)
    # r0=1 pins the rf edge from P0's flag store; r1=0 pins reading the
    # initial value, i.e. an fr edge to P0's data store.
    assert sorted(value for _, value in footprint.read_pins.values()) == [0, 1]
    edges = guaranteed_edges(skeleton, footprint)
    assert edges.rf == frozenset({((0, 2), (1, 0))})
    assert edges.fr == frozenset({((1, 2), (0, 0))})
    assert edges.co == frozenset()


def test_unsatisfiable_condition_is_forbid():
    program = parse_litmus(
        """
C MP+impossible
{ x=0; y=0; }
P0(int *x, int *y)
{
    WRITE_ONCE(*x, 1);
    smp_wmb();
    WRITE_ONCE(*y, 1);
}
P1(int *x, int *y)
{
    int r0 = READ_ONCE(*y);
    smp_rmb();
    int r1 = READ_ONCE(*x);
}
exists (1:r0=7)
"""
    )
    decision = decide(load_model("lkmm"), program)
    assert decision is not None
    assert decision.verdict == "Forbid"
    assert decision.reason == "unsat-condition"


# ---------------------------------------------------------------------------
# The scaling property: chains


@pytest.mark.parametrize("threads", [3, 4, 5, 6])
def test_forbidden_chain_is_proved_without_enumeration(threads):
    program = _chain(threads, middle_fence="smp_mb")
    model = load_model("lkmm")
    with obs.collect() as collector:
        decision = decide(model, program)
    assert decision is not None
    assert decision.verdict == "Forbid"
    assert decision.reason == "critical-cycle"
    assert collector.counters.get("enumerate.candidates", 0) == 0
    # The proof never contradicts the oracle's full enumeration.
    with kconfig.use_oracle():
        result = run_litmus(model, program)
    assert result.verdict == "Forbid"


def test_allowed_chain_witness_matches_kernel():
    # smp_rmb does not order read->write, so the chain becomes allowed —
    # and the static Allow is a kernel-confirmed witness, not a guess.
    program = _chain(4, middle_fence="smp_rmb")
    model = load_model("lkmm")
    decision = decide(model, program)
    assert decision is not None
    assert decision.verdict == "Allow"
    assert decision.reason == "witness-confirmed"
    with kconfig.use_oracle():
        result = run_litmus(model, program)
    assert result.verdict == "Allow"
