"""Tests for the dataflow framework and the path-sensitive checkers."""

import pytest

from repro.analysis.flow import (
    ConstantPropagation,
    Liveness,
    ReachingDefinitions,
    RegionAnalysis,
    UNINIT,
    VARIES,
    backward,
    check_dependencies,
    check_locks,
    check_rcu,
    environment,
    fold_expr,
    forward,
    lint_program_flow,
    live_registers,
)
from repro.litmus.ast import BinOp, LocalAssign, Reg
from repro.litmus.parser import parse_litmus


def program(text):
    return parse_litmus(text)


def categories(findings):
    return [f.category for f in findings]


def findings_for(text, category=None):
    found = lint_program_flow(program(text))
    if category is None:
        return found
    return [f for f in found if f.category == category]


# ---------------------------------------------------------------------------
# The structural walk and the concrete analyses
# ---------------------------------------------------------------------------


DIAMOND = (
    "C t\n{ x=0; y=0; }\n"
    "P0(int *x, int *y) {\n"
    "  int r0 = READ_ONCE(*x);\n"
    "  int r1 = 0;\n"
    "  if (r0) { r1 = 1; }\n"
    "  WRITE_ONCE(*y, r1);\n"
    "}\n"
    "P1(int *x) { WRITE_ONCE(*x, 1); }\n"
    "exists (0:r0=1)\n"
)


DEAD_ARM = (
    "C t\n{ x=0; }\n"
    "P0(int *x) {\n"
    "  int r0 = READ_ONCE(*x);\n"
    "  int r1 = 0;\n"
    "  if (0) {\n"
    "    r1 = 1;\n"
    "    if (r0) { WRITE_ONCE(*x, r1); }\n"
    "    r1 = 2;\n"
    "  }\n"
    "  WRITE_ONCE(*x, r1);\n"
    "}\n"
    "exists (0:r0=1)\n"
)


class TestAnalyses:
    def test_reaching_definitions_merge_at_join(self):
        body = program(DIAMOND).threads[0].body
        _, exit_value = forward(ReachingDefinitions(body), body)
        r1_sites = {site for reg, site in exit_value if reg == "r1"}
        assert len(r1_sites) == 2  # both assignments reach the final store
        assert UNINIT not in r1_sites

    def test_liveness_respects_exit_live(self):
        body = program(DIAMOND).threads[0].body
        _, live_at_entry = backward(Liveness(exit_live={"r0"}), body)
        # Nothing is live before the first instruction: r0 is defined here.
        assert "r0" not in live_at_entry

    def test_constant_propagation_joins_to_varies(self):
        body = program(DIAMOND).threads[0].body
        exit_env = dict(forward(ConstantPropagation(), body)[1])
        assert exit_env["r1"] == VARIES  # 0 on one path, 1 on the other

    def test_region_analysis_tracks_paths_separately(self):
        prog = program(
            "C t\n{ x=0; }\n"
            "P0(int *x) {\n"
            "  int r0 = READ_ONCE(*x);\n"
            "  if (r0) { rcu_read_lock(); }\n"
            "  rcu_read_unlock();\n"
            "}\n"
            "exists (0:r0=1)\n"
        )
        states, exit_states = forward(RegionAnalysis(), prog.threads[0].body)
        depths = {d for d, _ in exit_states}
        assert depths == {0}  # both paths recover, but ...
        # ... the unlock itself sees both depth-0 and depth-1 states:
        states_at_unlock = [
            value for ins, value in states
            if getattr(ins, "tag", None) == "rcu-unlock"
        ]
        assert {d for d, _ in states_at_unlock[0]} == {0, 1}

    def test_fold_expr_identities(self):
        r = Reg("r0")
        assert fold_expr(BinOp("^", r, r)) == 0
        assert fold_expr(BinOp("-", r, r)) == 0
        assert fold_expr(BinOp("==", r, r)) == 1
        assert fold_expr(BinOp("*", r, BinOp("^", r, r))) == 0
        assert fold_expr(r) is None
        assert fold_expr(r, {"r0": 7}) == 7

    def test_environment_drops_varies(self):
        assert environment([("a", 3), ("b", VARIES)]) == {"a": 3}

    def test_live_registers_in_program_order(self):
        body = program(DIAMOND).threads[0].body
        states = live_registers(body)
        assert [ins.lineno for ins, _ in states] == [4, 5, 6, 6, 7]
        live = dict((ins.lineno, regs) for ins, regs in states)
        assert live[4] == {"r0"}  # read by the branch
        assert live[7] == frozenset()  # nothing is read after the store

    def test_dead_arm_is_walked_from_bottom(self):
        # Nothing reaches the `if (0)` arm, so each of its straight-line
        # runs starts with nothing live: both assignments there are dead,
        # although a later (or nested) read names r1.
        states = live_registers(program(DEAD_ARM).threads[0].body)
        dead = [
            ins.lineno for ins, live in states
            if isinstance(ins, LocalAssign) and ins.reg not in live
        ]
        assert dead == [7, 9]
        found = findings_for(DEAD_ARM, "dead-store")
        assert [f.line for f in found] == [7, 9]


# ---------------------------------------------------------------------------
# RCU checker — including the acceptance example
# ---------------------------------------------------------------------------


class TestRcuChecker:
    def test_conditionally_opened_section_flagged(self):
        # The acceptance example: lock under `if`, unlock unconditional.
        findings = findings_for(
            "C t\n{ x=0; }\n"
            "P0(int *x) {\n"
            "  int r0 = READ_ONCE(*x);\n"
            "  if (r0) { rcu_read_lock(); }\n"
            "  rcu_read_unlock();\n"
            "}\n"
            "P1(int *x) { WRITE_ONCE(*x, 1); }\n"
            "exists (0:r0=1)\n",
            "rcu-unbalanced",
        )
        assert len(findings) == 1
        assert "some path" in findings[0].message
        assert findings[0].is_error
        assert findings[0].line == 6  # the rcu_read_unlock() line

    def test_unlock_without_lock_on_every_path(self):
        findings = findings_for(
            "C t\n{ x=0; }\n"
            "P0(int *x) { rcu_read_unlock(); int r0 = READ_ONCE(*x); }\n"
            "P1(int *x) { WRITE_ONCE(*x, 1); }\n"
            "exists (0:r0=1)\n",
            "rcu-unbalanced",
        )
        assert len(findings) == 1
        assert "every path" in findings[0].message

    def test_section_left_open_at_exit(self):
        findings = findings_for(
            "C t\n{ x=0; }\n"
            "P0(int *x) { rcu_read_lock(); int r0 = READ_ONCE(*x); }\n"
            "P1(int *x) { WRITE_ONCE(*x, 1); }\n"
            "exists (0:r0=1)\n",
            "rcu-unbalanced",
        )
        assert len(findings) == 1
        assert "thread exit" in findings[0].message

    def test_sync_rcu_inside_read_side_section(self):
        findings = findings_for(
            "C t\n{ x=0; }\n"
            "P0(int *x) {\n"
            "  rcu_read_lock();\n"
            "  synchronize_rcu();\n"
            "  int r0 = READ_ONCE(*x);\n"
            "  rcu_read_unlock();\n"
            "}\n"
            "P1(int *x) { WRITE_ONCE(*x, 1); }\n"
            "exists (0:r0=1)\n",
            "rcu-sync-in-critical-section",
        )
        assert len(findings) == 1
        assert "deadlock" in findings[0].message

    def test_over_nesting(self):
        body = "rcu_read_lock(); " * 3 + "int r0 = READ_ONCE(*x); " + (
            "rcu_read_unlock(); " * 3
        )
        findings = findings_for(
            "C t\n{ x=0; }\n"
            f"P0(int *x) {{ {body} }}\n"
            "P1(int *x) { WRITE_ONCE(*x, 1); }\n"
            "exists (0:r0=1)\n",
            "rcu-over-nesting",
        )
        assert len(findings) == 1
        assert not findings[0].is_error

    def test_balanced_nesting_is_clean(self):
        from repro.litmus import library

        assert check_rcu(library.get("RCU-MP+nested")) == []
        assert check_rcu(library.get("RCU-MP")) == []


# ---------------------------------------------------------------------------
# Lock checker
# ---------------------------------------------------------------------------


class TestLockChecker:
    def test_double_lock_self_deadlock(self):
        findings = findings_for(
            "C t\n{ l=0; x=0; }\n"
            "P0(int *l, int *x) {\n"
            "  spin_lock(l);\n"
            "  spin_lock(l);\n"
            "  WRITE_ONCE(*x, 1);\n"
            "  spin_unlock(l);\n"
            "}\n"
            "P1(int *x) { int r0 = READ_ONCE(*x); }\n"
            "exists (1:r0=1)\n",
            "double-lock",
        )
        assert len(findings) == 1
        assert findings[0].is_error
        assert findings[0].line == 5  # the second spin_lock(l)

    def test_conditional_double_lock_is_some_path(self):
        findings = findings_for(
            "C t\n{ l=0; x=0; }\n"
            "P0(int *l, int *x) {\n"
            "  int r0 = READ_ONCE(*x);\n"
            "  if (r0) { spin_lock(l); }\n"
            "  spin_lock(l);\n"
            "  spin_unlock(l);\n"
            "}\n"
            "P1(int *x) { WRITE_ONCE(*x, 1); }\n"
            "exists (0:r0=1)\n",
            "double-lock",
        )
        assert len(findings) == 1
        assert "some path" in findings[0].message

    def test_unlock_without_lock_warns(self):
        findings = findings_for(
            "C t\n{ l=1; x=0; }\n"
            "P0(int *l, int *x) { WRITE_ONCE(*x, 1); spin_unlock(l); }\n"
            "P1(int *l, int *x) { spin_lock(l); int r0 = READ_ONCE(*x); }\n"
            "exists (1:r0=1)\n",
        )
        assert "unlock-without-lock" in categories(findings)
        assert "lock-held-at-exit" in categories(findings)
        assert not any(f.is_error for f in findings)

    def test_balanced_locking_is_clean(self):
        from repro.litmus import library

        assert check_locks(library.get("lock-mutex")) == []
        assert check_locks(library.get("SB+unlock-lock")) == []


# ---------------------------------------------------------------------------
# Fragile dependencies — including the acceptance example
# ---------------------------------------------------------------------------


class TestDependencyChecker:
    def test_xor_address_dependency_flagged(self):
        # The acceptance example: `y + (r0 ^ r0)` is an address dependency
        # a compiler folds to `y`.
        findings = findings_for(
            "C t\n{ x=0; y=0; }\n"
            "P0(int *x, int *y) {\n"
            "  int r0 = READ_ONCE(*x);\n"
            "  int r1 = READ_ONCE(*(y + (r0 ^ r0)));\n"
            "}\n"
            "P1(int *x, int *y) { WRITE_ONCE(*y, 1); smp_wmb(); "
            "WRITE_ONCE(*x, 1); }\n"
            "exists (0:r0=1 /\\ 0:r1=0)\n",
            "fragile-dependency",
        )
        assert len(findings) == 1
        assert "address dependency" in findings[0].message
        assert findings[0].line == 5  # the dependent READ_ONCE

    def test_data_dependency_minus_self(self):
        findings = findings_for(
            "C t\n{ x=0; y=0; }\n"
            "P0(int *x, int *y) {\n"
            "  int r0 = READ_ONCE(*x);\n"
            "  WRITE_ONCE(*y, r0 - r0);\n"
            "}\n"
            "P1(int *x) { WRITE_ONCE(*x, 1); }\n"
            "exists (0:r0=1)\n",
            "fragile-dependency",
        )
        assert len(findings) == 1
        assert "data dependency" in findings[0].message

    def test_folds_through_local_constants(self):
        # `r1 = r0 & 0` then using r1 is just as fragile as inlining it.
        findings = findings_for(
            "C t\n{ x=0; y=0; }\n"
            "P0(int *x, int *y) {\n"
            "  int r0 = READ_ONCE(*x);\n"
            "  int r1 = r0 & 0;\n"
            "  WRITE_ONCE(*y, r1);\n"
            "}\n"
            "P1(int *x) { WRITE_ONCE(*x, 1); }\n"
            "exists (0:r0=1)\n",
            "fragile-dependency",
        )
        assert len(findings) == 1

    def test_constant_control_dependency(self):
        findings = findings_for(
            "C t\n{ x=0; y=0; }\n"
            "P0(int *x, int *y) {\n"
            "  int r0 = READ_ONCE(*x);\n"
            "  if (r0 == r0) { WRITE_ONCE(*y, 1); }\n"
            "}\n"
            "P1(int *x) { WRITE_ONCE(*x, 1); }\n"
            "exists (0:r0=1)\n",
            "constant-condition",
        )
        assert len(findings) == 1
        assert "control dependency" in findings[0].message

    def test_real_dependencies_are_clean(self):
        from repro.litmus import library

        assert check_dependencies(library.get("LB+datas")) == []
        assert check_dependencies(library.get("LB+ctrl")) == []

    def test_plain_constants_not_flagged(self):
        findings = findings_for(
            "C t\n{ x=0; }\n"
            "P0(int *x) { WRITE_ONCE(*x, 1); }\n"
            "P1(int *x) { int r0 = READ_ONCE(*x); }\n"
            "exists (1:r0=1)\n",
        )
        assert "fragile-dependency" not in categories(findings)


# ---------------------------------------------------------------------------
# Dataflow lint: uninit reads, dead stores
# ---------------------------------------------------------------------------


class TestDataflowLint:
    def test_register_assigned_on_one_path_only(self):
        findings = findings_for(
            "C t\n{ x=0; y=0; }\n"
            "P0(int *x, int *y) {\n"
            "  int r0 = READ_ONCE(*x);\n"
            "  int r1;\n"
            "  if (r0) { r1 = 1; }\n"
            "  WRITE_ONCE(*y, r1);\n"
            "}\n"
            "P1(int *x) { WRITE_ONCE(*x, 1); }\n"
            "exists (0:r0=1)\n",
            "uninit-register-read",
        )
        assert len(findings) == 1
        assert "some path" in findings[0].message

    def test_both_arms_assign_is_clean(self):
        findings = findings_for(
            "C t\n{ x=0; y=0; }\n"
            "P0(int *x, int *y) {\n"
            "  int r0 = READ_ONCE(*x);\n"
            "  int r1;\n"
            "  if (r0) { r1 = 1; } else { r1 = 2; }\n"
            "  WRITE_ONCE(*y, r1);\n"
            "}\n"
            "P1(int *x) { WRITE_ONCE(*x, 1); }\n"
            "exists (0:r0=1)\n",
            "uninit-register-read",
        )
        assert findings == []

    def test_uninitialized_location_keeps_line(self):
        findings = findings_for(
            "C t\n{ }\n"
            "P0(int *x) { int r0 = READ_ONCE(*x); }\n"
            "exists (0:r0=0)\n",
            "uninitialized-read",
        )
        assert len(findings) == 1
        assert findings[0].line == 3

    def test_lint_program_flow_on_whole_library_has_no_errors(self):
        from repro.litmus import library

        for name in library.all_names():
            errors = [
                f for f in lint_program_flow(library.get(name)) if f.is_error
            ]
            assert errors == [], name


# ---------------------------------------------------------------------------
# Line numbers from the parser
# ---------------------------------------------------------------------------


class TestLineNumbers:
    def test_instructions_carry_lines(self):
        prog = program(
            "C t\n"            # line 1
            "{ x=0; }\n"       # line 2
            "P0(int *x) {\n"   # line 3
            "  WRITE_ONCE(*x, 1);\n"   # line 4
            "  int r0 = READ_ONCE(*x);\n"  # line 5
            "}\n"
            "exists (0:r0=1)\n"
        )
        body = prog.threads[0].body
        assert body[0].lineno == 4
        assert body[1].lineno == 5

    def test_if_body_lines(self):
        prog = program(
            "C t\n{ x=0; }\n"
            "P0(int *x) {\n"            # 3
            "  int r0 = READ_ONCE(*x);\n"  # 4
            "  if (r0) {\n"             # 5
            "    WRITE_ONCE(*x, 2);\n"  # 6
            "  }\n"
            "}\n"
            "exists (0:r0=1)\n"
        )
        branch = prog.threads[0].body[1]
        assert branch.lineno == 5
        assert branch.then[0].lineno == 6

    def test_dsl_programs_have_no_lines(self):
        from repro.litmus import library

        prog = program(library.SOURCES["MP"])
        # Parsed programs have lines; equality with DSL-built programs is
        # unaffected because lineno does not participate in comparison.
        assert prog.threads[0].body[0].lineno is not None
        assert prog == library.get("MP")
