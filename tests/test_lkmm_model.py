"""Tests for the native LK model: relations of Figure 8, axioms of
Figure 3, RCU axiom of Figure 12, and the paper's verdicts."""

import pytest

from repro.executions import candidate_executions
from repro.herd import run_litmus
from repro.litmus import dsl, library
from repro.lkmm import LinuxKernelModel
from repro.lkmm.model import LkmmRelations


def find_execution(program, predicate):
    for x in candidate_executions(program):
        if predicate(x):
            return x
    raise AssertionError("no matching execution")


def witness_execution(name):
    """The execution matching the test's exists clause (any rf/co)."""
    program = library.get(name)
    return find_execution(
        program, lambda x: program.condition.evaluate(x.final_state)
    )


class TestAuxiliaryRelations:
    def test_fencerel_mb(self):
        x = witness_execution("SB+mbs")
        rel = LkmmRelations(x)
        # Each thread: one (W, R) pair separated by smp_mb.
        pairs = [(a.kind, b.kind) for a, b in rel.mb.pairs]
        assert pairs.count(("W", "R")) == 2

    def test_rmb_restricted_to_reads(self):
        x = witness_execution("MP+wmb+rmb")
        rel = LkmmRelations(x)
        assert all(a.is_read and b.is_read for a, b in rel.rmb.pairs)
        assert len(rel.rmb) == 1

    def test_wmb_restricted_to_writes(self):
        x = witness_execution("MP+wmb+rmb")
        rel = LkmmRelations(x)
        assert all(a.is_write and b.is_write for a, b in rel.wmb.pairs)
        assert len(rel.wmb) == 1

    def test_acq_po_and_po_rel(self):
        x = witness_execution("MP+po-rel+acq")
        rel = LkmmRelations(x)
        assert len(rel.acq_po) == 1  # acquire -> following read
        assert any(b.has_tag("release") for _, b in rel.po_rel.pairs)

    def test_rfi_rel_acq(self):
        x = witness_execution("MP+po-rel+rfi-acq")
        rel = LkmmRelations(x)
        assert len(rel.rfi_rel_acq) == 1
        ((w, r),) = rel.rfi_rel_acq.pairs
        assert w.has_tag("release") and r.has_tag("acquire")
        assert w.tid == r.tid


class TestPpo:
    def test_ctrl_dependency_in_ppo(self):
        x = witness_execution("LB+ctrl+mb")
        rel = LkmmRelations(x)
        read = next(e for e in x.events if e.is_read and e.tid == 0)
        write = next(e for e in x.events if e.is_write and e.tid == 0 and not e.is_init)
        assert (read, write) in rel.rwdep
        assert (read, write) in rel.ppo

    def test_plain_po_not_in_ppo(self):
        x = witness_execution("MP")
        rel = LkmmRelations(x)
        reads = sorted(
            (e for e in x.events if e.is_read), key=lambda e: e.po_index
        )
        assert (reads[0], reads[1]) not in rel.ppo

    def test_addr_dep_alone_not_in_ppo(self):
        # Read-read address dependencies need rb-dep (Alpha).
        x = witness_execution("MP+wmb+addr")
        rel = LkmmRelations(x)
        assert rel.x.addr  # the dependency exists
        for pair in rel.x.addr.pairs:
            assert pair not in rel.ppo.pairs

    def test_addr_dep_with_rbdep_in_ppo(self):
        x = witness_execution("MP+wmb+addr-rbdep")
        rel = LkmmRelations(x)
        assert rel.strong_rrdep
        for pair in rel.strong_rrdep.pairs:
            assert pair in rel.ppo.pairs

    def test_rrdep_prefix_extends_ppo(self):
        # Figure 9: (c, e) in ppo via rrdep* ; acq-po.
        x = witness_execution("MP+wmb+addr-acq")
        rel = LkmmRelations(x)
        pointer_read = next(
            e for e in x.events if e.is_read and e.loc == "p"
        )
        x_read = next(e for e in x.events if e.is_read and e.loc == "x")
        assert (pointer_read, x_read) in rel.ppo


class TestPropAndCumulativity:
    def test_a_cumulativity_of_release(self):
        # Figure 5: (a, c) in cumul-fence via rfe? ; po-rel.
        x = witness_execution("WRC+po-rel+rmb")
        rel = LkmmRelations(x)
        a = next(e for e in x.events if e.is_write and e.tid == 0 and not e.is_init)
        c = next(e for e in x.events if e.is_write and e.tid == 1 and not e.is_init)
        assert (a, c) in rel.cumul_fence

    def test_prop_includes_overwrite_then_fence(self):
        # Figure 2: (d, b) in prop.
        x = witness_execution("MP+wmb+rmb")
        rel = LkmmRelations(x)
        d = next(e for e in x.events if e.is_read and e.loc == "x")
        b = next(e for e in x.events if e.is_write and e.loc == "y" and not e.is_init)
        assert (d, b) in rel.prop

    def test_prop_contains_identity(self):
        x = witness_execution("MP")
        rel = LkmmRelations(x)
        some = next(iter(x.events))
        assert (some, some) in rel.prop


class TestAxioms:
    def test_scpv_forbids_coherence_violations(self, lkmm):
        for name in ("CoRR", "CoWW", "CoWR", "CoRW"):
            assert run_litmus(lkmm, library.get(name)).verdict == "Forbid"

    def test_at_forbids_intervening_write(self, lkmm):
        assert run_litmus(lkmm, library.get("At-inc")).verdict == "Forbid"
        result = lkmm.check(witness_execution("At-inc"))
        assert any(v.axiom == "At" for v in result.violations)

    def test_hb_violation_names_axiom(self, lkmm):
        result = lkmm.check(witness_execution("MP+wmb+rmb"))
        assert not result.allowed
        assert any(v.axiom == "Hb" for v in result.violations)

    def test_pb_violation_on_sb_mbs(self, lkmm):
        result = lkmm.check(witness_execution("SB+mbs"))
        assert any(v.axiom == "Pb" for v in result.violations)

    def test_rcu_violation_on_rcu_mp(self, lkmm):
        result = lkmm.check(witness_execution("RCU-MP"))
        assert any(v.axiom == "Rcu" for v in result.violations)

    def test_core_model_misses_rcu(self):
        core = LinuxKernelModel(with_rcu=False)
        x = witness_execution("RCU-MP")
        assert core.check(x).allowed  # without Figure 12, RCU-MP slips by


class TestPaperVerdicts:
    """The Model column of Table 5 and the figures, end to end."""

    @pytest.mark.parametrize("name", library.TABLE5)
    def test_table5_model_column(self, lkmm, name):
        expected = library.PAPER_VERDICTS[name]["LK"]
        assert run_litmus(lkmm, library.get(name)).verdict == expected

    @pytest.mark.parametrize(
        "name,expected", sorted(library.EXTRA_VERDICTS.items())
    )
    def test_extra_corpus(self, lkmm, name, expected):
        program = library.get(name)
        assert run_litmus(lkmm, program).verdict == expected


class TestCrit:
    def test_nested_locks_match_outermost(self):
        x = witness_execution("RCU-MP+nested")
        rel = LkmmRelations(x)
        assert len(rel.crit) == 1
        ((lock, unlock),) = rel.crit.pairs
        # The outermost pair: first lock, last unlock.
        locks = [e for e in x.events if e.has_tag("rcu-lock")]
        unlocks = [e for e in x.events if e.has_tag("rcu-unlock")]
        assert lock == min(locks, key=lambda e: e.po_index)
        assert unlock == max(unlocks, key=lambda e: e.po_index)

    def test_gp_relation(self):
        x = witness_execution("RCU-MP")
        rel = LkmmRelations(x)
        sync = next(e for e in x.events if e.has_tag("sync-rcu"))
        before = next(
            e for e in x.events if e.is_write and e.tid == sync.tid
            and e.po_index < sync.po_index
        )
        after = next(
            e for e in x.events if e.is_write and e.tid == sync.tid
            and e.po_index > sync.po_index
        )
        assert (before, sync) in rel.gp
        assert (before, after) in rel.gp
