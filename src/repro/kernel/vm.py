"""The relational bytecode VM: batched cross-candidate check execution.

:func:`repro.analysis.catir.plan.lower_plan` lowers each compiled cat
model once into a :class:`VMProgram` — a flat array of instructions over
numbered registers — and this module executes it per candidate.
Registers hold *raw* bitset values (a relation is a list of ``n`` Python
ints, row ``i`` the successor bitmask of event ``i``; an event set is a
single mask), so the per-candidate hot loop runs word-parallel integer
arithmetic with no :class:`~repro.relations.Relation` wrappers, no
per-node memo dictionaries and no dynamic dispatch beyond one opcode
test.

The program is split into two instruction streams:

* the **prelude** computes every trace-invariant node (one whose IR
  ``varying`` flag is clear: it cannot reach ``rf``/``co``).  It runs once per
  :class:`~repro.kernel.skeleton.TraceSkeleton` and its register file is
  shared *by reference* across all rf×co sibling candidates — sound
  because no opcode ever mutates an operand row list, so sharing is
  indistinguishable from recomputation;
* the **main** stream loads ``rf``/``co`` (zero-copy from the enumerator's
  bitset relations) and computes the witness-dependent nodes into a copy
  of the prelude register file.

The prelude reads its base values (``po``, the tag masks, ``loc``,
``int``/``ext``, ...) from the skeleton too, so every model that checks
the skeleton's candidates builds each of them once.

The main stream runs in **stages**, one per non-invariant check,
planned once per program (:func:`plan_stages`): a check's stage is the
part of its slice, the instructions its register needs, that no earlier
stage ran.  Non-flag checks come first, cheapest slice first.
:func:`run_checks` with ``first=True`` (what ``CatModel.allows`` asks)
stops at the first violation, so a candidate that fails ``coherence``
runs that check's few instructions only; ``first=False`` runs every
stage and reports all violations in declaration order.

``let rec`` groups become one :data:`FIXPOINT` meta-instruction whose
per-binding body segments re-run each Gauss–Seidel sweep (bodies in group
order, a shared node recomputed once per sweep in the segment that first
needs it) until no binding changes: the same least fixpoint the statement
walker computes.

Verdicts funnel through :func:`repro.cat.eval.check_axiom` exactly like
the statement walker: the final raw value is wrapped back into a
:class:`Relation`/:class:`EventSet` only when a check needs a witness
(the all-clear fast paths answer on the raw rows).

This is the production evaluator; the walker is the oracle
(``REPRO_ORACLE=1``) and the fallback for a model the IR compiler
rejects.  Base relations are read as their bitset rows
(:attr:`repro.relations.Relation.rows`), zero-copy.

Per-opcode execution counts are published as ``vm.op.<NAME>`` counters
when an observability collector is installed (``repro-herd --bench``),
with ``vm.early_exit`` (candidates rejected before their last stage) and
``vm.stages_skipped``.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.events import FENCE, READ, WRITE
from repro.guard import core as _guard
from repro.kernel.bitrel import _bits, find_cycle_rows, index_for
from repro.model import AxiomViolation
from repro.obs import core as _obs
from repro.relations import EventSet, Relation

# -- opcodes --------------------------------------------------------------

LOAD_BASE = 0  # dest <- base value named names[a] (env, or rf/co)
EMPTY_REL = 1  # dest <- all-zero rows
EMPTY_SET = 2  # dest <- 0
UNION_REL = 3  # dest <- a | b, row-wise
UNION_SET = 4  # dest <- a | b
INTER_REL = 5  # dest <- a & b, row-wise
INTER_SET = 6  # dest <- a & b
DIFF_REL = 7  # dest <- a & ~b, row-wise
DIFF_SET = 8  # dest <- a & ~b
COMPL_REL = 9  # dest <- full & ~a, row-wise
COMPL_SET = 10  # dest <- full & ~a
SEQ = 11  # dest <- a ; b (composition)
CARTESIAN = 12  # dest <- a * b (set masks -> rows)
INVERSE = 13  # dest <- a^-1 (transpose)
OPT = 14  # dest <- a? (a | id)
PLUS = 15  # dest <- a+ (bitset Floyd-Warshall)
STAR = 16  # dest <- a* (a+ | id)
SETID = 17  # dest <- [a] (set mask -> diagonal rows)
DOMAIN = 18  # dest <- domain(a) (rows -> mask)
RANGE = 19  # dest <- range(a) (rows -> mask)
FENCEREL = 20  # dest <- (a restricted-range b) ; (a restricted-domain b)
FIXPOINT = 21  # a = ((segment instrs, body reg, rec reg), ...)

OPNAMES = {
    LOAD_BASE: "LOAD_BASE",
    EMPTY_REL: "EMPTY_REL",
    EMPTY_SET: "EMPTY_SET",
    UNION_REL: "UNION_REL",
    UNION_SET: "UNION_SET",
    INTER_REL: "INTER_REL",
    INTER_SET: "INTER_SET",
    DIFF_REL: "DIFF_REL",
    DIFF_SET: "DIFF_SET",
    COMPL_REL: "COMPL_REL",
    COMPL_SET: "COMPL_SET",
    SEQ: "SEQ",
    CARTESIAN: "CARTESIAN",
    INVERSE: "INVERSE",
    OPT: "OPT",
    PLUS: "PLUS",
    STAR: "STAR",
    SETID: "SETID",
    DOMAIN: "DOMAIN",
    RANGE: "RANGE",
    FENCEREL: "FENCEREL",
    FIXPOINT: "FIXPOINT",
}


class VMCheck:
    """One lowered check: where its value lives and how to judge it."""

    __slots__ = ("kind", "label", "negated", "flag", "reg", "is_set",
                 "invariant")

    def __init__(self, kind, label, negated, flag, reg, is_set, invariant):
        self.kind = kind
        self.label = label
        self.negated = negated
        self.flag = flag
        self.reg = reg
        self.is_set = is_set
        #: rf/co-independent: judged once per skeleton, in the prelude.
        self.invariant = invariant


class VMProgram:
    """One lowered model: two instruction streams plus the checks."""

    __slots__ = ("token", "name", "names", "prelude", "main", "checks",
                 "n_regs", "_stages")

    def __init__(self, token, name, names, prelude, main, checks, n_regs):
        #: Process-unique token (the prelude-cache key).
        self.token = token
        self.name = name
        #: Base identifiers referenced by LOAD_BASE, by operand index.
        self.names: Tuple[str, ...] = names
        self.prelude: Tuple[tuple, ...] = prelude
        self.main: Tuple[tuple, ...] = main
        self.checks: Tuple[VMCheck, ...] = checks
        self.n_regs = n_regs
        self._stages = None

    def stages(self) -> Tuple[tuple, tuple]:
        """``(verdict, flagged)``: the main stream cut into one stage per
        non-invariant check, planned on first use (see :func:`plan_stages`)."""
        if self._stages is None:
            self._stages = plan_stages(self)
        return self._stages

    def describe(self) -> str:  # pragma: no cover - debugging aid
        lines = [f"vm program {self.name}: {self.n_regs} registers"]
        for title, stream in (("prelude", self.prelude), ("main", self.main)):
            lines.append(f"{title}:")
            for instr in stream:
                lines.append(f"  {OPNAMES[instr[0]]} {instr[1:]}")
        return "\n".join(lines)


# -- base values ----------------------------------------------------------

_REL_ATTRS = {"po": "po", "addr": "addr", "data": "data", "ctrl": "ctrl",
              "rmw": "rmw", "rf": "rf", "co": "co"}


def base_value(name: str, execution, index):
    """The raw value (rows or mask) of one builtin base identifier.

    Only the bases a model actually references are computed — unlike the
    walker's eager environment, which builds every tag set per
    skeleton whether or not the model mentions it.
    """
    attr = _REL_ATTRS.get(name)
    if attr is not None:
        return getattr(execution, attr).rows
    events = index.events
    n = index.n
    if name == "_":
        return index.full_row
    if name in ("R", "W", "F"):
        kind = {"R": READ, "W": WRITE, "F": FENCE}[name]
        mask = 0
        for i, event in enumerate(events):
            if event.kind == kind:
                mask |= 1 << i
        return mask
    if name == "M":
        mask = 0
        for i, event in enumerate(events):
            if event.kind == READ or event.kind == WRITE:
                mask |= 1 << i
        return mask
    if name == "IW":
        mask = 0
        for i, event in enumerate(events):
            if event.is_init:
                mask |= 1 << i
        return mask
    if name == "id":
        return [1 << i for i in range(n)]
    if name == "loc":
        groups: Dict[str, int] = {}
        for i, event in enumerate(events):
            if event.loc is not None:
                groups[event.loc] = groups.get(event.loc, 0) | (1 << i)
        return [
            groups[event.loc] if event.loc is not None else 0
            for event in events
        ]
    if name in ("int", "ext"):
        by_tid: Dict[int, int] = {}
        for i, event in enumerate(events):
            by_tid[event.tid] = by_tid.get(event.tid, 0) | (1 << i)
        if name == "int":
            return [by_tid[event.tid] for event in events]
        full = index.full_row
        return [full & ~by_tid[event.tid] for event in events]
    if name == "crit":
        from repro.executions.derived import crit_relation

        return crit_relation(execution).rows
    from repro.cat.eval import TAG_SETS

    tag = TAG_SETS.get(name)
    if tag is not None:
        mask = 0
        for i, event in enumerate(events):
            if event.has_tag(tag):
                mask |= 1 << i
        return mask
    raise KeyError(name)


# -- the executor ----------------------------------------------------------


def _execute(instrs, regs, execution, names, index, env) -> None:
    n = index.n
    full = index.full_row
    counts = {} if _obs.ENABLED else None
    for instr in instrs:
        op = instr[0]
        if counts is not None:
            counts[op] = counts.get(op, 0) + 1
        if op == SEQ:
            a = regs[instr[2]]
            b = regs[instr[3]]
            out = []
            append = out.append
            for row in a:
                acc = 0
                while row:
                    low = row & -row
                    acc |= b[low.bit_length() - 1]
                    row ^= low
                append(acc)
            regs[instr[1]] = out
        elif op == UNION_REL:
            regs[instr[1]] = [
                x | y for x, y in zip(regs[instr[2]], regs[instr[3]])
            ]
        elif op == INTER_REL:
            regs[instr[1]] = [
                x & y for x, y in zip(regs[instr[2]], regs[instr[3]])
            ]
        elif op == DIFF_REL:
            regs[instr[1]] = [
                x & ~y for x, y in zip(regs[instr[2]], regs[instr[3]])
            ]
        elif op == SETID:
            mask = regs[instr[2]]
            out = [0] * n
            while mask:
                low = mask & -mask
                out[low.bit_length() - 1] = low
                mask ^= low
            regs[instr[1]] = out
        elif op == UNION_SET:
            regs[instr[1]] = regs[instr[2]] | regs[instr[3]]
        elif op == INTER_SET:
            regs[instr[1]] = regs[instr[2]] & regs[instr[3]]
        elif op == DIFF_SET:
            regs[instr[1]] = regs[instr[2]] & ~regs[instr[3]]
        elif op == LOAD_BASE:
            name = names[instr[2]]
            if env is not None and name in env:
                regs[instr[1]] = env[name]
            else:
                relation = execution.rf if name == "rf" else execution.co
                regs[instr[1]] = relation.rows
        elif op == CARTESIAN:
            a = regs[instr[2]]
            b = regs[instr[3]]
            regs[instr[1]] = [b if a >> i & 1 else 0 for i in range(n)]
        elif op == INVERSE:
            out = [0] * n
            bit = 1
            for row in regs[instr[2]]:
                while row:
                    low = row & -row
                    out[low.bit_length() - 1] |= bit
                    row ^= low
                bit <<= 1
            regs[instr[1]] = out
        elif op == OPT:
            regs[instr[1]] = [
                row | (1 << i) for i, row in enumerate(regs[instr[2]])
            ]
        elif op == PLUS or op == STAR:
            # Bitset Floyd-Warshall, same sweep order as closure_rows.
            rows = list(regs[instr[2]])
            for k in range(n):
                if not rows[k]:
                    continue
                bit = 1 << k
                row_k = rows[k]
                for i in range(n):
                    if rows[i] & bit:
                        rows[i] |= row_k
                        if i == k:
                            row_k = rows[k]
            if op == STAR:
                rows = [row | (1 << i) for i, row in enumerate(rows)]
            regs[instr[1]] = rows
        elif op == DOMAIN:
            mask = 0
            for i, row in enumerate(regs[instr[2]]):
                if row:
                    mask |= 1 << i
            regs[instr[1]] = mask
        elif op == RANGE:
            mask = 0
            for row in regs[instr[2]]:
                mask |= row
            regs[instr[1]] = mask
        elif op == FENCEREL:
            po = regs[instr[2]]
            fences = regs[instr[3]]
            out = []
            append = out.append
            for row in po:
                mid = row & fences
                acc = 0
                while mid:
                    low = mid & -mid
                    acc |= po[low.bit_length() - 1]
                    mid ^= low
                append(acc)
            regs[instr[1]] = out
        elif op == COMPL_REL:
            regs[instr[1]] = [full & ~row for row in regs[instr[2]]]
        elif op == COMPL_SET:
            regs[instr[1]] = full & ~regs[instr[2]]
        elif op == EMPTY_REL:
            regs[instr[1]] = [0] * n
        elif op == EMPTY_SET:
            regs[instr[1]] = 0
        elif op == FIXPOINT:
            segments = instr[2]
            zero = [0] * n
            for _seg, _body, rec_reg in segments:
                regs[rec_reg] = zero
            changed = True
            while changed:
                changed = False
                for seg, body_reg, rec_reg in segments:
                    if seg:
                        _execute(seg, regs, execution, names, index, env)
                    new = regs[body_reg]
                    if new != regs[rec_reg]:
                        regs[rec_reg] = new
                        changed = True
        else:  # pragma: no cover - lowering only emits known opcodes
            raise AssertionError(f"unknown opcode {op}")
    if counts:
        for op, hits in counts.items():
            _obs.count(f"vm.op.{OPNAMES[op]}", hits)


# -- judging checks --------------------------------------------------------


def _judge(check: VMCheck, raw, index, universe):
    """Verdict for one check over a raw register value.

    The common all-clear cases are answered on the raw rows, and a failed
    ``acyclic`` check turns its DFS cycle into the violation witness
    directly (position-for-position what :func:`check_axiom` would
    extract from the same rows).  Everything else — negated checks,
    ``empty``/``irreflexive`` violations — is wrapped back into the
    relation layer and funnelled through :func:`check_axiom`, so those
    witnesses are constructed by exactly the same code as the walker's.
    """
    kind = check.kind
    if not check.negated:
        if kind == "empty":
            if (raw == 0) if check.is_set else not any(raw):
                return None
        elif kind == "acyclic":
            if not check.is_set:
                positions = find_cycle_rows(raw)
                if positions is None:
                    return None
                # The cycle DFS already ran; building the witness directly
                # avoids a second DFS through check_axiom.  Same rows, same
                # deterministic DFS, so the cycle is the one check_axiom
                # would extract.
                events = index.events
                return AxiomViolation(
                    check.label,
                    "acyclic",
                    tuple(events[i] for i in positions),
                )
        elif kind == "irreflexive":
            if not check.is_set:
                for i, row in enumerate(raw):
                    if row >> i & 1:
                        break
                else:
                    return None
    from repro.cat.eval import check_axiom

    if check.is_set:
        events = index.events
        value = EventSet((events[i] for i in _bits(raw)), universe)
    else:
        value = Relation.from_rows(index, raw, universe)
    return check_axiom(kind, check.label, check.negated, value)


# -- stages ----------------------------------------------------------------

#: Opcodes that read no register, and those that read only operand ``a``.
_NO_OPERANDS = frozenset({LOAD_BASE, EMPTY_REL, EMPTY_SET})
_ONE_OPERAND = frozenset({
    COMPL_REL, COMPL_SET, INVERSE, OPT, PLUS, STAR, SETID, DOMAIN, RANGE,
})


def _effects(instr) -> Tuple[set, set]:
    """``(written, read)`` registers of one instruction.  A FIXPOINT is one
    unit: it writes its rec registers and every register of its segments,
    and reads what its segments read from outside."""
    op = instr[0]
    if op == FIXPOINT:
        written: set = set()
        read: set = set()
        for segment, body_reg, rec_reg in instr[2]:
            written.add(rec_reg)
            read.add(body_reg)
            for inner in segment:
                inner_written, inner_read = _effects(inner)
                written |= inner_written
                read |= inner_read
        return written, read - written
    if op in _NO_OPERANDS:
        return {instr[1]}, set()
    if op in _ONE_OPERAND:
        return {instr[1]}, {instr[2]}
    return {instr[1]}, {instr[2], instr[3]}


def _assert_chains(effects) -> None:
    """The soundness precondition of running stages out of stream order.

    Every register of the main stream has one writer, except an n-ary
    chain (``UNION_REL r,a,b`` then ``UNION_REL r,r,c``).  A chain's links
    must be contiguous, each link after the first must read the register,
    and an intermediate value may be read by the next link only.  Then a
    slice holds either every link of a chain or none, and no instruction
    can observe a register value other than the one stream order gives it.
    """
    writers: Dict[int, List[int]] = {}
    for position, (written, _read) in enumerate(effects):
        for reg in written:
            writers.setdefault(reg, []).append(position)
    for reg, positions in writers.items():
        if len(positions) == 1:
            continue
        first, last = positions[0], positions[-1]
        if last - first + 1 != len(positions):
            raise AssertionError(f"register {reg}: chain links not contiguous")
        for position, (_written, read) in enumerate(effects):
            if reg not in read:
                if first < position <= last:
                    raise AssertionError(
                        f"register {reg}: link {position} does not extend it"
                    )
            elif position <= first:
                raise AssertionError(
                    f"register {reg}: read at {position} before its chain"
                )


def plan_stages(program: VMProgram) -> Tuple[tuple, tuple]:
    """Cut the main stream into stages, one per non-invariant check.

    A check's slice is the main-stream instructions its register needs.
    Non-flag checks are ordered by slice size (ties in declaration
    order), flag checks follow in the same way, and each stage holds only
    the slice's instructions that no earlier stage ran, in stream order.
    Returns ``(verdict, flagged)``, tuples of ``(instrs, position,
    check)`` with ``position`` the check's index in ``program.checks``;
    ``verdict`` is the order :func:`run_checks` decides in with
    ``first=True``.
    """
    effects = [_effects(instr) for instr in program.main]
    _assert_chains(effects)
    ranked = []
    for position, check in enumerate(program.checks):
        if check.invariant:
            continue
        needed = {check.reg}
        members = []
        for at in range(len(effects) - 1, -1, -1):
            written, read = effects[at]
            if written & needed:
                members.append(at)
                needed -= written
                needed |= read
        ranked.append((check.flag, len(members), position, members))
    ranked.sort(key=lambda entry: entry[:3])
    ran: set = set()
    verdict: List[tuple] = []
    flagged: List[tuple] = []
    for flag, _size, position, members in ranked:
        fresh = sorted(set(members) - ran)
        ran.update(fresh)
        stage = (
            tuple(program.main[at] for at in fresh),
            position,
            program.checks[position],
        )
        (flagged if flag else verdict).append(stage)
    return tuple(verdict), tuple(flagged)


# -- driving one candidate ---------------------------------------------------


def _verdict(check: VMCheck, regs, index, universe, model_name):
    """:func:`_judge` one check, timed as ``cat.check.<model>.<label>``."""
    if _obs.ENABLED:
        with _obs.span(f"cat.check.{model_name}.{check.label}"):
            return _judge(check, regs[check.reg], index, universe)
    return _judge(check, regs[check.reg], index, universe)


def _build_prelude(program: VMProgram, execution, index, model_name, bases):
    """Run the invariant stream once; judge the invariant checks.

    ``bases`` memoises base values by name: the skeleton's ``vm_state``,
    so every program checking the skeleton's candidates shares them.
    Returns the register file, the invariant verdicts by check position
    and the first non-flag invariant violation (or None).
    """
    if _obs.ENABLED:
        _obs.count("vm.prelude_builds")
    env = {}
    for name in program.names:
        if name not in ("rf", "co"):
            value = bases.get(name)
            if value is None:
                value = bases[name] = base_value(name, execution, index)
            env[name] = value
    regs: List = [None] * program.n_regs
    _execute(program.prelude, regs, execution, program.names, index, env)
    invariant_violations = {}
    blocking = None
    for position, check in enumerate(program.checks):
        if check.invariant:
            violation = _verdict(
                check, regs, index, execution.universe, model_name
            )
            invariant_violations[position] = violation
            if blocking is None and not check.flag:
                blocking = violation
    return regs, invariant_violations, blocking


def run_checks(
    program: VMProgram, execution, model_name: str, first: bool = False
) -> Tuple[List, List]:
    """Execute the program for one candidate, stage by stage.

    With ``first=False`` every stage runs and the result is ``(violations,
    flags)`` in declaration order, exactly as the statement walker would
    produce them.  With ``first=True`` the run stops at the first non-flag
    violation, an invariant one from the prelude before any stage, and
    returns ``([violation], [])``, or ``([], [])`` when the candidate is
    allowed; flag checks are not judged.
    """
    if _guard.ACTIVE:
        _guard._current.tick()  # budget safepoint: one per-candidate VM run
    index = index_for(execution.universe)
    skeleton = execution._shared
    if skeleton is None:
        state = _build_prelude(program, execution, index, model_name, {})
    else:
        cache = skeleton.vm_state
        state = cache.get(program.token)
        if state is None:
            state = cache[program.token] = _build_prelude(
                program, execution, index, model_name, cache
            )
        elif _obs.ENABLED:
            _obs.count("vm.prelude_hits")
    base_regs, invariant_violations, blocking = state
    verdict_stages, flagged_stages = program.stages()
    universe = execution.universe
    names = program.names
    if first:
        violations: List = []
        run = 0
        if blocking is not None:
            violations.append(blocking)
        else:
            regs = base_regs.copy()
            for instrs, _position, check in verdict_stages:
                run += 1
                if instrs:
                    _execute(instrs, regs, execution, names, index, None)
                violation = _verdict(check, regs, index, universe, model_name)
                if violation is not None:
                    violations.append(violation)
                    break
        if _obs.ENABLED:
            _obs.count("vm.runs")
            skipped = len(verdict_stages) - run
            if skipped:
                _obs.count("vm.early_exit")
                _obs.count("vm.stages_skipped", skipped)
        return violations, []
    found = dict(invariant_violations)
    regs = base_regs.copy()
    for instrs, position, check in verdict_stages + flagged_stages:
        if instrs:
            _execute(instrs, regs, execution, names, index, None)
        found[position] = _verdict(check, regs, index, universe, model_name)
    violations = []
    flags: List = []
    for position, check in enumerate(program.checks):
        violation = found[position]
        if violation is not None:
            (flags if check.flag else violations).append(violation)
    if _obs.ENABLED:
        _obs.count("vm.runs")
    return violations, flags
