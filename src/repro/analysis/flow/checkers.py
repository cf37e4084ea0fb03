"""Path-sensitive checkers over the flow analyses.

Four checkers, all reporting through the shared
:class:`~repro.analysis.findings.Finding` machinery and registered with
``repro-lint`` via :data:`CHECKERS` /
:func:`repro.analysis.litmuslint.lint_program`:

* :func:`check_rcu` — RCU read-side discipline: an ``rcu_read_unlock()``
  reachable at nesting depth 0 (unbalanced on some path), a read-side
  section still open at thread exit, a grace-period wait
  (``synchronize_rcu()``) reachable inside a read-side section (the
  self-deadlock the paper's Section 6 axioms make formal), and
  over-nested sections;
* :func:`check_locks` — spinlock discipline over the paper's Section 7
  ``Rmw``/``CmpXchg`` encoding: double-lock self-deadlock,
  unlock-without-lock (legitimate for cross-thread hand-offs, hence a
  warning), lock held at thread exit;
* :func:`check_dependencies` — *fragile* syntactic dependencies: an
  address/data/control dependency whose expression a compiler may legally
  evaluate to a constant (``r ^ r``, ``r - r``, ``r * 0``, ``r & 0``,
  reflexive comparisons — also through constant-propagated locals), so
  the ordering the LKMM derives from it does not survive compilation
  (cf. "Bridging the Gap between Programming Languages and Hardware Weak
  Memory Models");
* :func:`check_dataflow` — the precise replacements for the old
  single-pass heuristics: uninitialised shared-location reads, register
  reads that may precede any assignment on some path, and dead local
  stores (by liveness).

Each checker reads one walk per analysis over a thread's structured body
(:func:`~repro.analysis.flow.analyses.forward` and
:func:`~repro.analysis.flow.analyses.live_registers`, solved once and
shared through :class:`_ThreadFlow`) and the instruction facts of
:mod:`repro.litmus.ast`.  Findings come out in program order, each
``If`` before its arms.

Soundness note: litmus thread bodies are loop-free with finitely many
paths, so the region analysis tracks the *exact* set of (rcu-depth,
held-locks) states per point — "on some path" findings name a real path,
and clean output means no path misbehaves.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.events import Pointer, RCU_LOCK, RCU_UNLOCK, SYNC_RCU
from repro.litmus.ast import (
    CmpXchg,
    Expr,
    Fence,
    If,
    Instruction,
    Load,
    LocalAssign,
    Program,
    Rmw,
    Store,
    accesses,
    expr_registers,
    preorder,
    registers_read,
)
from repro.litmus.outcomes import RegValue, condition_atoms
from repro.analysis.findings import Finding
from repro.analysis.flow.analyses import (
    ConstantPropagation,
    ReachingDefinitions,
    RegionAnalysis,
    UNINIT,
    environment,
    fold_expr,
    forward,
    live_registers,
    lock_acquire_is_blocking,
    lock_acquire_location,
    lock_release_location,
    program_lock_locations,
    static_location,
)

#: Deeper nesting than this is reported as ``rcu-over-nesting``.  Nesting
#: is legal (RCU-MP+nested in the library nests to depth 2, the axioms of
#: Section 6 match outermost brackets), but depth beyond this in a litmus
#: test almost always means a missing unlock rather than intent.
MAX_RCU_NESTING = 2


class _ThreadFlow:
    """All analyses for one thread, each solved on first use and shared
    between checkers.  Forward results are ``(states, exit value)``
    pairs (see :func:`~repro.analysis.flow.analyses.forward`)."""

    def __init__(self, tid: int, body: Sequence[Instruction],
                 lock_locations: FrozenSet[str], condition_regs: FrozenSet[str]):
        self.tid = tid
        self.body = body
        self.lock_locations = lock_locations
        self.condition_regs = condition_regs

    @cached_property
    def region(self):
        return forward(RegionAnalysis(self.lock_locations), self.body)

    @cached_property
    def reaching(self):
        return forward(ReachingDefinitions(self.body), self.body)

    @cached_property
    def constants(self):
        return forward(ConstantPropagation(), self.body)

    @cached_property
    def liveness(self):
        return live_registers(self.body, self.condition_regs)


def _condition_registers_by_thread(program: Program) -> Dict[int, Set[str]]:
    by_tid: Dict[int, Set[str]] = {}
    for atom in condition_atoms(program.condition):
        if isinstance(atom, RegValue):
            by_tid.setdefault(atom.tid, set()).add(atom.reg)
    return by_tid


def _thread_flows(program: Program) -> List[_ThreadFlow]:
    locks = program_lock_locations(program)
    condition_regs = _condition_registers_by_thread(program)
    return [
        _ThreadFlow(tid, thread.body, locks, frozenset(condition_regs.get(tid, ())))
        for tid, thread in enumerate(program.threads)
    ]


def lint_program_flow(program: Program) -> List[Finding]:
    """Run every path-sensitive checker over one program."""
    flows = _thread_flows(program)
    findings: List[Finding] = []
    for checker in CHECKERS:
        findings.extend(checker(program, flows))
    return findings


# ---------------------------------------------------------------------------
# RCU discipline
# ---------------------------------------------------------------------------


def _path_qualifier(bad: int, total: int) -> str:
    return "every path" if bad == total else "some path"


def check_rcu(program: Program, flows: Optional[List[_ThreadFlow]] = None) -> List[Finding]:
    flows = flows if flows is not None else _thread_flows(program)
    findings: List[Finding] = []
    for flow in flows:
        region, exit_states = flow.region
        for ins, states in region:
            if not isinstance(ins, Fence) or not states:
                continue
            depths = sorted(d for d, _ in states)
            if ins.tag == RCU_UNLOCK and 0 in depths:
                unmatched = sum(1 for d in depths if d == 0)
                findings.append(Finding.of(
                    program.name,
                    "rcu-unbalanced",
                    f"P{flow.tid}: rcu_read_unlock() without a matching "
                    f"rcu_read_lock() on {_path_qualifier(unmatched, len(depths))}",
                    line=ins.lineno,
                ))
            elif ins.tag == RCU_LOCK and depths[-1] + 1 > MAX_RCU_NESTING:
                findings.append(Finding.of(
                    program.name,
                    "rcu-over-nesting",
                    f"P{flow.tid}: rcu_read_lock() nests read-side "
                    f"sections to depth {depths[-1] + 1} "
                    f"(> {MAX_RCU_NESTING}) — missing an unlock?",
                    line=ins.lineno,
                ))
            elif ins.tag == SYNC_RCU and depths[-1] > 0:
                inside = sum(1 for d in depths if d > 0)
                findings.append(Finding.of(
                    program.name,
                    "rcu-sync-in-critical-section",
                    f"P{flow.tid}: synchronize_rcu() is reachable inside "
                    f"an RCU read-side section on "
                    f"{_path_qualifier(inside, len(depths))} — the grace "
                    "period can never end (self-deadlock)",
                    line=ins.lineno,
                ))
        open_depths = sorted(d for d, _ in exit_states if d > 0)
        if open_depths:
            findings.append(Finding.of(
                program.name,
                "rcu-unbalanced",
                f"P{flow.tid}: an RCU read-side section (depth "
                f"{open_depths[-1]}) is still open at thread exit on "
                f"{_path_qualifier(len(open_depths), len(exit_states))}",
            ))
    return findings


# ---------------------------------------------------------------------------
# Lock discipline
# ---------------------------------------------------------------------------


def check_locks(program: Program, flows: Optional[List[_ThreadFlow]] = None) -> List[Finding]:
    flows = flows if flows is not None else _thread_flows(program)
    findings: List[Finding] = []
    for flow in flows:
        if not flow.lock_locations:
            continue
        region, exit_states = flow.region
        for ins, states in region:
            if not states:
                continue
            acquired = lock_acquire_location(ins)
            if acquired is not None and lock_acquire_is_blocking(ins):
                holding = sum(1 for _, held in states if acquired in held)
                if holding:
                    findings.append(Finding.of(
                        program.name,
                        "double-lock",
                        f"P{flow.tid}: spin_lock({acquired!r}) while "
                        f"already holding it on "
                        f"{_path_qualifier(holding, len(states))} — "
                        "self-deadlock",
                        line=ins.lineno,
                    ))
            released = lock_release_location(ins, flow.lock_locations)
            if released is not None:
                free = sum(1 for _, held in states if released not in held)
                if free:
                    findings.append(Finding.of(
                        program.name,
                        "unlock-without-lock",
                        f"P{flow.tid}: spin_unlock({released!r}) without "
                        f"holding the lock on "
                        f"{_path_qualifier(free, len(states))} (legitimate "
                        "only as a cross-thread lock hand-off)",
                        line=ins.lineno,
                    ))
        still_held: Set[str] = set()
        for _, held in exit_states:
            still_held |= held
        for lock in sorted(still_held):
            holding = sum(1 for _, held in exit_states if lock in held)
            findings.append(Finding.of(
                program.name,
                "lock-held-at-exit",
                f"P{flow.tid}: lock {lock!r} is still held at thread exit "
                f"on {_path_qualifier(holding, len(exit_states))}",
            ))
    return findings


# ---------------------------------------------------------------------------
# Fragile dependencies
# ---------------------------------------------------------------------------


def _tainted_registers(body: Sequence[Instruction]) -> FrozenSet[str]:
    """Registers that may (transitively) carry a read's value — the ones
    whose use in an address/data/control expression creates a dependency
    edge in the model (:mod:`repro.executions.thread_sem`)."""
    tainted: Set[str] = set()
    changed = True
    while changed:
        changed = False
        for ins in preorder(body):
            if isinstance(ins, (Load, Rmw, CmpXchg)):
                if ins.reg not in tainted:
                    tainted.add(ins.reg)
                    changed = True
            elif isinstance(ins, LocalAssign):
                if ins.reg not in tainted and expr_registers(ins.expr) & tainted:
                    tainted.add(ins.reg)
                    changed = True
    return frozenset(tainted)


def _describe_constant(value) -> str:
    if isinstance(value, Pointer):
        return f"&{value.loc}"
    return repr(value)


def check_dependencies(
    program: Program, flows: Optional[List[_ThreadFlow]] = None
) -> List[Finding]:
    flows = flows if flows is not None else _thread_flows(program)
    findings: List[Finding] = []
    for flow in flows:
        tainted = _tainted_registers(flow.body)
        for ins, state in flow.constants[0]:
            env = environment(state or ())
            for kind, expr in _dependency_expressions(ins):
                regs = expr_registers(expr)
                if isinstance(ins, (Rmw, CmpXchg)):
                    regs = regs - {ins.reg}  # the RMW's own read, not a dep
                if not regs & tainted:
                    if kind == "control" and fold_expr(expr, env) is not None:
                        value = fold_expr(expr, env)
                        findings.append(Finding.of(
                            program.name,
                            "constant-condition",
                            f"P{flow.tid}: branch condition {expr!r} is "
                            f"always {_describe_constant(value)} — one arm "
                            "is dead code",
                            line=ins.lineno,
                        ))
                    continue
                value = fold_expr(expr, env)
                if value is None:
                    continue
                if kind == "control":
                    findings.append(Finding.of(
                        program.name,
                        "constant-condition",
                        f"P{flow.tid}: control dependency through "
                        f"{expr!r} is fragile — the condition always "
                        f"evaluates to {_describe_constant(value)}, so a "
                        "compiler may drop the branch and the ordering "
                        "with it",
                        line=ins.lineno,
                    ))
                else:
                    findings.append(Finding.of(
                        program.name,
                        "fragile-dependency",
                        f"P{flow.tid}: {kind} dependency through {expr!r} "
                        f"is fragile — it always evaluates to "
                        f"{_describe_constant(value)}, and a compiler may "
                        "constant-fold the dependency away (the test's "
                        "verdict would not survive compilation)",
                        line=ins.lineno,
                    ))
    return findings


def _dependency_expressions(ins: Instruction) -> List[Tuple[str, Expr]]:
    """The (kind, expression) pairs of an instruction that give rise to
    dependency edges: ``address``/``data``/``control``."""
    if isinstance(ins, Load):
        return [("address", ins.addr)]
    if isinstance(ins, Store):
        return [("address", ins.addr), ("data", ins.value)]
    if isinstance(ins, Rmw):
        return [("address", ins.addr), ("data", ins.new_value)]
    if isinstance(ins, CmpXchg):
        return [
            ("address", ins.addr),
            ("data", ins.expected),
            ("data", ins.new_value),
        ]
    if isinstance(ins, If):
        return [("control", ins.cond)]
    return []


# ---------------------------------------------------------------------------
# Precise uninit / dead-store lint (replaces the old heuristics)
# ---------------------------------------------------------------------------


def check_dataflow(
    program: Program, flows: Optional[List[_ThreadFlow]] = None
) -> List[Finding]:
    flows = flows if flows is not None else _thread_flows(program)
    findings: List[Finding] = []
    findings.extend(_check_uninit_locations(program, flows))
    for flow in flows:
        findings.extend(_check_uninit_registers(program, flow))
        findings.extend(_check_dead_stores(program, flow))
    return findings


def _check_uninit_locations(
    program: Program, flows: List[_ThreadFlow]
) -> List[Finding]:
    """A location that is read but never written by any thread and not
    initialised: herd silently defaults it to 0, so the test "works"
    while testing nothing."""
    reads: Dict[str, Optional[int]] = {}
    written: Set[str] = set()
    for flow in flows:
        for ins in preorder(flow.body):
            for is_write, addr, _ in accesses(ins):
                loc = static_location(addr)
                if loc is None:
                    if is_write:
                        return []  # a store through a pointer may hit anything
                    continue
                if is_write:
                    written.add(loc)
                elif loc not in reads:
                    reads[loc] = ins.lineno
    findings = []
    for loc in sorted(set(reads) - written - set(program.init)):
        findings.append(Finding.of(
            program.name,
            "uninitialized-read",
            f"location {loc!r} is read but never written and not "
            "initialised (herd defaults it to 0 — is that intended?)",
            line=reads[loc],
        ))
    return findings


def _check_uninit_registers(program: Program, flow: _ThreadFlow) -> List[Finding]:
    reaching, exit_state = flow.reaching
    findings = []
    reported: Set[Tuple[str, Optional[int]]] = set()
    for ins, state in reaching:
        for reg in sorted(registers_read(ins)):
            if (reg, UNINIT) not in state:
                continue
            definite = not any(
                pair[0] == reg and pair[1] != UNINIT for pair in state
            )
            key = (reg, ins.lineno)
            if key in reported:
                continue
            reported.add(key)
            qualifier = "" if definite else " on some path"
            findings.append(Finding.of(
                program.name,
                "uninit-register-read",
                f"P{flow.tid}: register {reg!r} may be read before "
                f"assignment{qualifier}",
                line=ins.lineno,
            ))
    for reg in sorted(flow.condition_regs):
        if (reg, UNINIT) not in exit_state:
            continue
        if not any(pair[0] == reg and pair[1] != UNINIT for pair in exit_state):
            continue  # never assigned at all: condition-unknown-register
        findings.append(Finding.of(
            program.name,
            "uninit-register-read",
            f"condition reads {flow.tid}:{reg}, which may be unassigned "
            "at the end of some path",
        ))
    return findings


def _check_dead_stores(program: Program, flow: _ThreadFlow) -> List[Finding]:
    findings = []
    for ins, live_after in flow.liveness:
        # Loads and RMWs are exempt: their *event* matters even when the
        # fetched value is ignored (e.g. SB+xchgs discards it).
        if isinstance(ins, LocalAssign) and ins.reg not in live_after:
            findings.append(Finding.of(
                program.name,
                "dead-store",
                f"P{flow.tid}: the value assigned to register "
                f"{ins.reg!r} here is never used",
                line=ins.lineno,
            ))
    return findings


#: The checker registry ``repro-lint`` runs (besides the syntactic lint).
CHECKERS = (check_rcu, check_locks, check_dependencies, check_dataflow)
