"""The operational simulator's schedule stream, frozen across commits.

``tests/data/opsim_golden.json`` pins two digest tables, one entry per
litmus test:

* ``histograms`` — the ``run_klitmus`` final-state histograms of every
  Table 5 test on the four Table 5 machines at 200 runs, seed 0;
* ``traces`` — 20 traced runs of every library test, and of the
  ``cmpxchg`` programs below (the library has none), on each of the six
  architectures under ``random.Random(7)`` (one fresh stream per
  (test, architecture)): final state, events, rf, co order and rmw pairs.
  A test that does not compile or simulate on an architecture records
  the exception's class name instead.

The determinism tests in ``test_opsim.py`` compare a version with
itself; these compare it with the recorded one, so a simulator change
that alters which actions it offers the scheduler, or their order,
fails here with the tests named.  A final test holds the simulator's
other contract: an untraced run is the traced run minus the recording.

After an intentional change to the simulator's behaviour, regenerate
and review the diff::

    PYTHONPATH=src python -m tests.test_opsim_golden
    git diff tests/data/opsim_golden.json
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.hardware import (
    ARCHITECTURES,
    CompileError,
    OperationalSimulator,
    SimulationError,
    compile_program,
    run_klitmus,
)
from repro.hardware.archspec import TABLE5_ARCHS
from repro.litmus import dsl, library

SNAPSHOT_PATH = Path(__file__).parent / "data" / "opsim_golden.json"

HISTOGRAM_RUNS = 200
HISTOGRAM_SEED = 0
TRACED_RUNS = 20
TRACED_SEED = 7


#: ``cmpxchg`` programs.  In the first both threads try to claim ``x``,
#: so one fails.  In the second the expected value comes from a
#: po-earlier load and the new value reads the destination register
#: (the value just read).
CMPXCHG_PROGRAMS = {
    program.name: program
    for program in (
        dsl.program(
            "CmpXchg-claim",
            dsl.thread(dsl.cmpxchg("r0", "x", 0, 1), dsl.read_once("r1", "y")),
            dsl.thread(dsl.write_once("y", 1), dsl.cmpxchg("r0", "x", 0, 2)),
        ),
        dsl.program(
            "CmpXchg-dep",
            dsl.thread(
                dsl.read_once("r0", "y"),
                dsl.cmpxchg("r1", "x", "r0", dsl.add("r1", 2), "xchg_relaxed"),
            ),
            dsl.thread(dsl.write_once("x", 1), dsl.smp_wmb(), dsl.write_once("y", 1)),
        ),
    )
}


def traced_programs():
    return [library.get(name) for name in library.all_names()] + list(
        CMPXCHG_PROGRAMS.values()
    )


def _simulator(program, arch):
    return OperationalSimulator(compile_program(program, arch, rcu="keep"), arch)


def _state_repr(state) -> str:
    return repr(
        (sorted(state.registers.items()), sorted(state.memory.items()))
    )


def _trace_repr(trace) -> str:
    events = [
        (
            e.event_id, e.tid, e.po_index, e.kind, e.tag, e.loc, e.value,
            sorted(e.addr_taints), sorted(e.data_taints), sorted(e.ctrl_taints),
        )
        for e in trace.events
    ]
    return repr(
        (events, sorted(trace.rf.items()), sorted(trace.co_order.items()),
         trace.rmw_pairs)
    )


def _digest(parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode())
        digest.update(b"\n")
    return digest.hexdigest()[:16]


def histogram_digests():
    table = {}
    for name in library.TABLE5:
        parts = []
        for arch in TABLE5_ARCHS:
            result = run_klitmus(
                library.get(name), arch, runs=HISTOGRAM_RUNS, seed=HISTOGRAM_SEED
            )
            cells = sorted(
                (_state_repr(state), count)
                for state, count in result.histogram.items()
            )
            parts.append(f"{arch}|{cells!r}")
        table[name] = _digest(parts)
    return table


def trace_digests():
    table = {}
    for program in traced_programs():
        parts = []
        for arch_name, arch in ARCHITECTURES.items():
            parts.append(arch_name)
            rng = random.Random(TRACED_SEED)
            try:
                simulator = _simulator(program, arch)
                for _ in range(TRACED_RUNS):
                    state, trace = simulator.run_once_traced(rng)
                    parts.append(_state_repr(state) + _trace_repr(trace))
            except (CompileError, SimulationError) as error:
                parts.append(type(error).__name__)
        table[program.name] = _digest(parts)
    return table


@pytest.fixture(scope="module")
def snapshot():
    return json.loads(SNAPSHOT_PATH.read_text())


def _drifted(expected, actual):
    return sorted(
        name for name in set(expected) | set(actual)
        if expected.get(name) != actual.get(name)
    )


def test_klitmus_histograms_match_snapshot(snapshot):
    assert _drifted(snapshot["histograms"], histogram_digests()) == []


def test_traced_runs_match_snapshot(snapshot):
    assert _drifted(snapshot["traces"], trace_digests()) == []


@pytest.mark.parametrize(
    # Includes the spin_lock tests (lock-mutex, MP+unlock-acq,
    # SB+unlock-lock: the one eligibility check that reads memory) and
    # the cmpxchg programs.
    "program", traced_programs(), ids=lambda program: program.name
)
def test_untraced_run_replays_traced_run(program):
    for arch in ARCHITECTURES.values():
        try:
            simulator = _simulator(program, arch)
        except CompileError:
            continue
        untraced = random.Random(TRACED_SEED)
        traced = random.Random(TRACED_SEED)
        for _ in range(TRACED_RUNS):
            state = simulator.run_once(untraced)
            assert state == simulator.run_once_traced(traced)[0], arch.name
        assert untraced.getstate() == traced.getstate(), arch.name


if __name__ == "__main__":
    SNAPSHOT_PATH.write_text(
        json.dumps(
            {"histograms": histogram_digests(), "traces": trace_digests()},
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {SNAPSHOT_PATH}")
