"""The litmus linter's full output, frozen across commits.

``tests/data/lint_golden.json`` keeps only sorted ``code:category``
pairs.  ``tests/data/lint_findings_golden.json`` pins everything a user
reads: for every input, the exact ``Finding.describe()`` lines that
:func:`~repro.analysis.litmuslint.lint_program` returns, in emission
order (message, line number and path counts included).  The inputs are

* ``inputs`` — every library test, every ``examples/litmus/*.litmus``
  file and every golden-corpus row;
* ``mutants`` — seeded AST mutants of those programs, built to reach
  every checker: RCU markers and spinlock calls added or removed,
  statements wrapped in ``if (1)``/``if (0)``/``if (r ^ r)``/``if (r)``,
  ``If``s nested inside dead arms, address and data operands replaced
  by ``r ^ r``, dead local assignments added, a register's only
  assignment dropped, a load or store moved to a fresh location or made
  plain (and a few of these at once).

After an intentional change to a checker, regenerate and review the
diff::

    PYTHONPATH=src python -m tests.test_lint_findings_golden
    git diff tests/data/lint_findings_golden.json
"""

from __future__ import annotations

import dataclasses
import json
import random
from pathlib import Path

import pytest

from repro.events import PLAIN, RCU_LOCK, RCU_UNLOCK, RELEASE, SYNC_RCU, Pointer
from repro.litmus import dsl, library
from repro.litmus.ast import (
    BinOp,
    CmpXchg,
    Const,
    Fence,
    If,
    Load,
    LocalAssign,
    Reg,
    Rmw,
    Store,
    Thread,
)
from repro.litmus.parser import parse_litmus
from repro.analysis.litmuslint import lint_program

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).parent / "data"
SNAPSHOT_PATH = DATA / "lint_findings_golden.json"
GOLDEN_CORPUS = DATA / "golden_corpus.jsonl"

MUTATION_SEED = 2018
MUTANTS_PER_KIND = 100
MUTATION_KINDS = (
    "add-rcu", "drop-rcu", "add-lock", "drop-lock", "wrap-if", "nest-dead",
    "zero-operand", "dead-assign", "drop-def", "fresh-location",
    "plain-access", "compound",
)
#: Line numbers given to inserted instructions, far past any source line.
FIRST_NEW_LINE = 1000


def input_programs():
    """(key, program) for every litmus program the repository ships."""
    programs = [(f"library/{name}", library.get(name)) for name in library.all_names()]
    for path in sorted((ROOT / "examples" / "litmus").glob("*.litmus")):
        programs.append((str(path.relative_to(ROOT)), parse_litmus(path.read_text())))
    for line in GOLDEN_CORPUS.read_text().splitlines():
        if line:
            row = json.loads(line)
            programs.append((f"corpus/{row['name']}", parse_litmus(row["litmus"])))
    return programs


def outcome(program):
    """What the linter makes of ``program``: its findings, described."""
    try:
        return [finding.describe() for finding in lint_program(program)]
    except Exception as error:  # pinned as well: a checker crash is output too
        return [f"{type(error).__name__}: {error}"]


# ---------------------------------------------------------------------------
# AST mutation
# ---------------------------------------------------------------------------


def _arm_paths(body, prefix=()):
    """Every instruction list of a body: the body itself and both arms of
    every ``If``, as paths of ``(index, arm)`` steps."""
    yield prefix
    for index, ins in enumerate(body):
        if isinstance(ins, If):
            yield from _arm_paths(ins.then, prefix + ((index, "then"),))
            yield from _arm_paths(ins.orelse, prefix + ((index, "orelse"),))


def _get(body, path):
    for index, arm in path:
        body = getattr(body[index], arm)
    return body


def _put(body, path, new):
    """``body`` with the instruction list at ``path`` replaced by ``new``."""
    if not path:
        return tuple(new)
    (index, arm), rest = path[0], path[1:]
    branch = body[index]
    inner = _put(getattr(branch, arm), rest, new)
    return body[:index] + (dataclasses.replace(branch, **{arm: inner}),) + body[index + 1:]


def _all(body):
    for ins in body:
        yield ins
        if isinstance(ins, If):
            yield from _all(ins.then)
            yield from _all(ins.orelse)


class _Mutator:
    def __init__(self, rng, program):
        self.rng = rng
        self.program = program
        self.threads = [thread.body for thread in program.threads]
        self.next_line = FIRST_NEW_LINE

    def line(self):
        self.next_line += 1
        return self.next_line

    def result(self):
        threads = tuple(Thread(body) for body in self.threads)
        return dataclasses.replace(self.program, threads=threads)

    def registers(self, tid):
        regs = set()
        for ins in _all(self.threads[tid]):
            if isinstance(ins, (Load, Rmw, CmpXchg, LocalAssign)):
                regs.add(ins.reg)
        return sorted(regs) or ["r0"]

    def locations(self):
        return self.program.locations() or ["x"]

    def pick_list(self):
        """A random (thread, path) of an instruction list."""
        tid = self.rng.randrange(len(self.threads))
        paths = list(_arm_paths(self.threads[tid]))
        return tid, paths[self.rng.randrange(len(paths))]

    def insert(self, make):
        tid, path = self.pick_list()
        body = _get(self.threads[tid], path)
        at = self.rng.randrange(len(body) + 1)
        new = make(tid)
        self.threads[tid] = _put(
            self.threads[tid], path, body[:at] + (new,) + body[at:]
        )

    def rewrite(self, wanted, change):
        """Replace one random instruction satisfying ``wanted(tid, ins)``
        by the instructions ``change(tid, ins)`` returns (none to drop
        it); False when the program has no such instruction."""
        spots = []
        for tid, thread in enumerate(self.threads):
            for path in _arm_paths(thread):
                for at, ins in enumerate(_get(thread, path)):
                    if wanted(tid, ins):
                        spots.append((tid, path, at))
        if not spots:
            return False
        tid, path, at = spots[self.rng.randrange(len(spots))]
        body = _get(self.threads[tid], path)
        new = change(tid, body[at])
        self.threads[tid] = _put(
            self.threads[tid], path, body[:at] + new + body[at + 1:]
        )
        return True

    def remove(self, wanted):
        return self.rewrite(wanted, lambda tid, ins: ())

    def condition(self, tid):
        reg = Reg(self.rng.choice(self.registers(tid)))
        return self.rng.choice(
            [Const(1), Const(0), BinOp("^", reg, reg), reg]
        )

    def zero(self, tid):
        reg = Reg(self.rng.choice(self.registers(tid)))
        return BinOp("^", reg, reg)

    # -- the mutation kinds ----------------------------------------------

    def add_rcu(self):
        tag = self.rng.choice([RCU_LOCK, RCU_UNLOCK, SYNC_RCU])
        for _ in range(self.rng.choice([1, 1, 3])):
            self.insert(lambda tid: Fence(tag, lineno=self.line()))

    def drop_rcu(self):
        if not self.remove(
            lambda tid, ins: isinstance(ins, Fence)
            and ins.tag in (RCU_LOCK, RCU_UNLOCK, SYNC_RCU)
        ):
            self.add_rcu()

    def add_lock(self):
        lock = self.rng.choice(["l", "l", self.rng.choice(self.locations())])
        for _ in range(self.rng.choice([1, 2])):
            call = self.rng.choice([dsl.spin_lock, dsl.spin_unlock])
            self.insert(lambda tid: dataclasses.replace(
                call(lock), lineno=self.line()
            ))

    def drop_lock(self):
        if not self.remove(
            lambda tid, ins: (isinstance(ins, Rmw) and ins.require_read_value == 0)
            or (isinstance(ins, Store) and ins.tag == RELEASE
                and ins.value == Const(0))
        ):
            self.add_lock()

    def wrap_if(self, dead_nest=False):
        tid, path = self.pick_list()
        body = _get(self.threads[tid], path)
        start = self.rng.randrange(len(body) + 1)
        stop = self.rng.randrange(start, len(body) + 1)
        inner = body[start:stop]
        if dead_nest:
            nested = If(self.condition(tid), inner[:1], (), lineno=self.line())
            dead = (
                LocalAssign("r9", Const(1), lineno=self.line()),
                nested,
                LocalAssign("r9", Const(2), lineno=self.line()),
            ) + inner[1:]
            if self.rng.random() < 0.5:
                branch = If(Const(0), dead, (), lineno=self.line())
            else:
                branch = If(Const(1), (), dead, lineno=self.line())
        else:
            cond = self.condition(tid)
            if self.rng.random() < 0.7:
                branch = If(cond, inner, (), lineno=self.line())
            else:
                branch = If(cond, (), inner, lineno=self.line())
        self.threads[tid] = _put(
            self.threads[tid], path, body[:start] + (branch,) + body[stop:]
        )

    def nest_dead(self):
        self.wrap_if(dead_nest=True)

    def zero_operand(self):
        def change(tid, ins):
            fields = ["addr"]
            if isinstance(ins, Store):
                fields.append("value")
            elif isinstance(ins, Rmw):
                fields.append("new_value")
            elif isinstance(ins, CmpXchg):
                fields += ["expected", "new_value"]
            name = self.rng.choice(fields)
            value = self.zero(tid)
            if name == "addr" and self.rng.random() < 0.5:
                value = BinOp("+", ins.addr, value)  # keeps the pointer
            return (dataclasses.replace(ins, **{name: value}),)

        if not self.rewrite(
            lambda tid, ins: isinstance(ins, (Load, Store, Rmw, CmpXchg)), change
        ):
            self.dead_assign()

    def retarget(self, **fields):
        """Change ``fields`` of one random load or store."""
        if not self.rewrite(
            lambda tid, ins: isinstance(ins, (Load, Store)),
            lambda tid, ins: (dataclasses.replace(ins, **fields),),
        ):
            self.dead_assign()

    def fresh_location(self):
        self.retarget(addr=Const(Pointer("u")))

    def plain_access(self):
        self.retarget(tag=PLAIN)

    def dead_assign(self):
        def make(tid):
            reg = self.rng.choice(self.registers(tid) + ["r8", "r9"])
            expr = self.rng.choice([Const(self.rng.randrange(3)), Reg(reg)])
            return LocalAssign(reg, expr, lineno=self.line())

        self.insert(make)

    def drop_def(self):
        counts = {}
        for tid, thread in enumerate(self.threads):
            for ins in _all(thread):
                if isinstance(ins, (Load, Rmw, CmpXchg, LocalAssign)):
                    counts[tid, ins.reg] = counts.get((tid, ins.reg), 0) + 1
        if not self.remove(
            lambda tid, ins: isinstance(ins, (Load, Rmw, CmpXchg, LocalAssign))
            and counts[tid, ins.reg] == 1
        ):
            self.dead_assign()

    def compound(self):
        simple = [kind for kind in MUTATION_KINDS if kind != "compound"]
        for _ in range(self.rng.randrange(2, 4)):
            self.apply(self.rng.choice(simple))

    def apply(self, kind):
        getattr(self, kind.replace("-", "_"))()


def mutants(programs):
    """(key, mutated program) for the seeded mutants of ``programs``."""
    rng = random.Random(MUTATION_SEED)
    out = []
    for kind in MUTATION_KINDS:
        for _ in range(MUTANTS_PER_KIND):
            key, program = programs[rng.randrange(len(programs))]
            mutator = _Mutator(rng, program)
            mutator.apply(kind)
            out.append((f"{len(out):04d} {kind} {key}", mutator.result()))
    return out


def snapshot():
    programs = input_programs()
    return {
        "inputs": {key: outcome(program) for key, program in programs},
        "mutants": {key: outcome(program) for key, program in mutants(programs)},
    }


@pytest.fixture(scope="module")
def frozen():
    return json.loads(SNAPSHOT_PATH.read_text())


@pytest.fixture(scope="module")
def current():
    return snapshot()


def _drifted(expected, actual):
    return sorted(
        key for key in set(expected) | set(actual)
        if expected.get(key) != actual.get(key)
    )


def test_inputs_match_snapshot(frozen, current):
    assert _drifted(frozen["inputs"], current["inputs"]) == []


def test_mutants_match_snapshot(frozen, current):
    assert _drifted(frozen["mutants"], current["mutants"]) == []


def test_mutants_reach_every_flow_checker(frozen):
    """The frozen sample exercises every path-sensitive finding, with both
    path qualifiers and the dead-arm cases, not only clean programs."""
    lines = [line for found in frozen["mutants"].values() for line in found]
    assert len(frozen["mutants"]) >= 1000
    for category in (
        "rcu-unbalanced", "rcu-sync-in-critical-section", "rcu-over-nesting",
        "double-lock", "unlock-without-lock", "lock-held-at-exit",
        "fragile-dependency", "constant-condition", "uninit-register-read",
        "dead-store", "uninitialized-read", "dangling-fence",
        "condition-unknown-register", "plain-race",
    ):
        assert any(f" {category}: " in line for line in lines), category
    for phrase in ("every path", "some path", "on some path"):
        assert any(phrase in line for line in lines), phrase
    assert not any(line.split(":", 1)[0].endswith("Error") for line in lines)


if __name__ == "__main__":
    SNAPSHOT_PATH.write_text(json.dumps(snapshot(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {SNAPSHOT_PATH}")
