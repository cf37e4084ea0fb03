"""Fault-tolerant worker pools and deterministic fault injection.

The env-gated sweep at the bottom is the CI chaos lane: with
``REPRO_FAULT="crash:0.05,seed=8"`` exported, the golden verdict table
must come out byte-identical even while ~5% of worker tasks are being
killed mid-flight and recovered via retries.
"""

import json
import os
import signal
import time

import pytest

from repro import obs
from repro.cat.eval import load_model
from repro.guard import SweepJournal, faults, parse_fault_spec
from repro.herd import verdicts
from repro.kernel import parallel
from repro.litmus import library
from repro.litmus.parser import parse_litmus
from repro.tools import cli


SC = load_model("sc")


@pytest.fixture(autouse=True)
def _clean_pools_and_spec():
    """Each test starts with no pools and no fault override."""
    parallel.shutdown_pools()
    faults.set_spec(None)
    yield
    faults.set_spec(None)
    parallel.shutdown_pools()


def _double(value):
    return value * 2


def _boom(value):
    raise ValueError(f"task error on {value}")


# -- the REPRO_FAULT grammar ----------------------------------------------


def test_parse_fault_spec():
    spec = parse_fault_spec("crash:0.05,hang:0.01,slow:0.1,seed=8")
    assert spec.crash == 0.05
    assert spec.hang == 0.01
    assert spec.slow == 0.1
    assert spec.seed == 8
    assert parse_fault_spec(None) is None
    assert parse_fault_spec("   ") is None
    assert parse_fault_spec("seed=3").seed == 3


def test_parse_fault_spec_rejects_nonsense():
    with pytest.raises(ValueError):
        parse_fault_spec("crash:1.5")
    with pytest.raises(ValueError):
        parse_fault_spec("explode:0.5")


def test_injection_never_fires_in_parent():
    faults.set_spec(parse_fault_spec("crash:1.0"))
    assert not faults.in_worker()
    faults.maybe_inject("anything")  # would os._exit if armed here


def test_injection_is_deterministic():
    draws = {faults._unit(8, f"task:{i}:0") for i in range(32)}
    assert draws == {faults._unit(8, f"task:{i}:0") for i in range(32)}
    # The attempt number is part of the nonce: a task that crashed on
    # attempt 0 draws differently on attempt 1, so retries can succeed.
    assert faults._unit(8, "task:0:0") != faults._unit(8, "task:0:1")


# -- fault_tolerant_map ----------------------------------------------------


def test_fault_tolerant_map_plain():
    results = parallel.fault_tolerant_map(_double, list(range(8)), jobs=2)
    assert results == [value * 2 for value in range(8)]


def test_fault_tolerant_map_reraises_task_errors():
    with pytest.raises(ValueError, match="task error"):
        parallel.fault_tolerant_map(_boom, [1], jobs=2)


def test_fault_tolerant_map_on_result_ordering():
    seen = []
    results = parallel.fault_tolerant_map(
        _double, [1, 2, 3], jobs=2, on_result=lambda i, r: seen.append((i, r))
    )
    assert results == [2, 4, 6]
    assert sorted(seen) == [(0, 2), (1, 4), (2, 6)]


def test_crash_recovery_with_counters():
    """Injected worker crashes are retried to completion and counted."""
    faults.set_spec(parse_fault_spec("crash:0.4,seed=8"))
    payloads = list(range(10))
    with obs.collect() as collector:
        results = parallel.fault_tolerant_map(
            _double, payloads, jobs=2, max_attempts=10
        )
    assert results == [value * 2 for value in payloads]
    counters = collector.report().counters
    assert counters.get("guard.worker_deaths", 0) > 0
    assert counters.get("guard.retries", 0) > 0


def test_crash_collateral_never_exhausts_attempts():
    """A dead pool fails every task in flight, but only a task that
    failed alone is charged an attempt: a long batch survives a crash
    rate that kills a pool every few tasks."""
    faults.set_spec(parse_fault_spec("crash:0.15,seed=8"))
    payloads = list(range(40))
    with obs.collect() as collector:
        results = parallel.fault_tolerant_map(_double, payloads, jobs=2)
    assert results == [value * 2 for value in payloads]
    assert collector.report().counters.get("guard.worker_deaths", 0) > 3


def test_hang_recovery_with_deadline():
    """A hung worker trips the attempt deadline and the task is retried
    on a fresh pool."""
    faults.set_spec(parse_fault_spec("hang:0.3,seed=8"))
    with obs.collect() as collector:
        results = parallel.fault_tolerant_map(
            _double, list(range(6)), jobs=2, task_timeout=3.0
        )
    assert results == [value * 2 for value in range(6)]
    counters = collector.report().counters
    assert counters.get("guard.worker_hangs", 0) > 0
    assert counters.get("guard.retries", 0) > 0


def test_all_attempts_exhausted_raises():
    faults.set_spec(parse_fault_spec("crash:1.0,seed=8"))
    with pytest.raises(parallel.WorkerPoolError):
        parallel.fault_tolerant_map(_double, [1, 2], jobs=2, max_attempts=2)


def test_parallel_verdicts_survive_crashes():
    faults.set_spec(parse_fault_spec("crash:0.3,seed=8"))
    programs = [library.get(name) for name in ("SB", "MP+wmb+rmb", "LB", "R")]
    chaotic = verdicts([SC], programs, jobs=2)
    faults.set_spec(None)
    calm = verdicts([SC], programs)
    assert chaotic == calm


MP_PLAIN = """
C MP+plain
{ x=0; y=0; }
P0(int *x, int *y) {
  *x = 1;
  WRITE_ONCE(*y, 1);
}
P1(int *x, int *y) {
  int r0 = READ_ONCE(*y);
  int r1 = *x;
}
exists (1:r0=1 /\\ 1:r1=0)
"""


def test_race_reports_survive_crashes():
    """``repro-lint --races --jobs N`` submits through the fault-tolerant
    map: lost workers are retried and the reports equal a serial run's."""
    programs = [parse_litmus(MP_PLAIN)] + [
        library.get(name) for name in ("SB", "MP+wmb+rmb", "LB", "R", "WRC")
    ]
    faults.set_spec(parse_fault_spec("crash:0.3,seed=8"))
    with obs.collect() as collector:
        chaotic = cli._race_reports(programs, 2)
    faults.set_spec(None)
    calm = cli._race_reports(programs, 1)
    assert [report.describe() for report in chaotic] == [
        report.describe() for report in calm
    ]
    assert any(report.racy for report in calm)
    assert collector.report().counters.get("guard.retries", 0) > 0


# -- orphaned workers and Ctrl-C -------------------------------------------


def _pids_alive(pids):
    alive = []
    for pid in pids:
        try:
            os.kill(pid, 0)
        except (ProcessLookupError, PermissionError):
            continue
        alive.append(pid)
    return alive


def _wait_dead(pids, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if not _pids_alive(pids):
            return True
        time.sleep(0.05)
    return False


def test_shutdown_pools_kills_workers_and_is_idempotent():
    pool = parallel.persistent_pool(2)
    assert pool.map(_double, [21]) == [42]
    pids = pool.worker_pids()
    assert pids
    parallel.shutdown_pools()
    assert _wait_dead(pids), f"orphaned workers: {_pids_alive(pids)}"
    # Idempotent and re-entrant: safe from atexit, signal handlers, tests.
    parallel.shutdown_pools()
    parallel.shutdown_pools()


def test_keyboard_interrupt_terminates_pools():
    """Regression: Ctrl-C mid-sweep must not leave orphaned workers."""

    def interrupt(index, result):
        raise KeyboardInterrupt

    pool = parallel.persistent_pool(2)
    pool.map(_double, [1])  # executor spawns workers lazily
    pids = pool.worker_pids()
    assert pids
    with pytest.raises(KeyboardInterrupt):
        parallel.fault_tolerant_map(
            _double, list(range(4)), jobs=2, on_result=interrupt
        )
    assert _wait_dead(pids), f"orphaned workers: {_pids_alive(pids)}"
    assert not parallel._PERSISTENT_POOLS


def test_worker_pool_context_terminates():
    with parallel.WorkerPool(2) as pool:
        assert pool.map(_double, [1, 2, 3]) == [2, 4, 6]
        pids = pool.worker_pids()
        assert pids
    assert _wait_dead(pids), f"orphaned workers: {_pids_alive(pids)}"


def test_workers_ignore_sigint():
    """Workers must survive a stray SIGINT (the parent owns interruption,
    e.g. a terminal delivers Ctrl-C to the whole process group)."""
    pool = parallel.persistent_pool(2)
    pool.map(_double, [1])  # ensure workers are up
    for pid in pool.worker_pids():
        os.kill(pid, signal.SIGINT)
    time.sleep(0.2)
    assert pool.map(_double, [2, 3]) == [4, 6]


# -- the sweep journal -----------------------------------------------------


def test_journal_roundtrip_and_resume(tmp_path):
    path = tmp_path / "sweep.jsonl"
    journal = SweepJournal(path, ["SC"])
    programs = [library.get(name) for name in ("SB", "MP+wmb+rmb", "LB")]
    first = verdicts([SC], programs, journal=journal)
    assert len(journal) == len(programs)

    # A resumed sweep reads rows back instead of re-running the tests.
    resumed_journal = SweepJournal(path, ["SC"])
    with obs.collect() as collector:
        second = verdicts([SC], programs, journal=resumed_journal)
    assert second == first
    counters = collector.report().counters
    assert counters.get("guard.journal_skips") == len(programs)
    assert counters.get("herd.SC.candidates", 0) == 0


def test_journal_parallel_resume(tmp_path):
    path = tmp_path / "sweep.jsonl"
    programs = [library.get(name) for name in ("SB", "MP+wmb+rmb", "LB", "R")]
    first = verdicts([SC], programs, jobs=2, journal=SweepJournal(path, ["SC"]))
    resumed = SweepJournal(path, ["SC"])
    assert len(resumed) == len(programs)
    second = verdicts([SC], programs, jobs=2, journal=resumed)
    assert second == first


SB_EDITED = """
C SB
{ x=0; y=0; }
P0(int *x, int *y) {
  WRITE_ONCE(*x, 1);
  int r0 = READ_ONCE(*y);
}
P1(int *x, int *y) {
  WRITE_ONCE(*y, 1);
  int r0 = READ_ONCE(*x);
}
exists (0:r0=1 /\\ 1:r0=1)
"""


def test_journal_reruns_a_test_edited_under_its_name(tmp_path):
    """Rows carry the program digest: a test whose program changed since
    it was journaled is rerun, not replayed under its old verdict."""
    path = tmp_path / "sweep.jsonl"
    sb = library.get("SB")
    assert verdicts([SC], [sb], journal=SweepJournal(path, ["SC"])) == {
        "SB": {"SC": "Forbid"}
    }
    edited = parse_litmus(SB_EDITED)
    assert edited.name == sb.name
    with obs.collect() as collector:
        table = verdicts([SC], [edited], journal=SweepJournal(path, ["SC"]))
    assert table == {"SB": {"SC": "Allow"}}
    assert "guard.journal_skips" not in collector.report().counters
    # The rerun row replaces the stale one: the edit now replays.
    assert SweepJournal(path, ["SC"]).completed("SB") == {"SC": "Allow"}


def test_journal_tolerates_torn_lines_and_foreign_models(tmp_path):
    path = tmp_path / "sweep.jsonl"
    journal = SweepJournal(path, ["SC"])
    journal.record("SB", {"SC": "Allow"})
    with open(path, "a") as handle:
        handle.write(
            json.dumps(
                {"test": "LB", "models": ["LKMM"], "verdicts": {"LKMM": "Allow"}}
            )
            + "\n"
        )
        handle.write('{"test": "MP", "mod')  # torn mid-write
    reloaded = SweepJournal(path, ["SC"])
    assert reloaded.completed("SB") == {"SC": "Allow"}
    assert reloaded.completed("LB") is None  # different model mix
    assert reloaded.completed("MP") is None  # torn line skipped


# -- the CI chaos lane -----------------------------------------------------


@pytest.mark.skipif(
    not (faults.active_spec() and faults.active_spec().any()),
    reason="chaos lane: set REPRO_FAULT (e.g. crash:0.05,seed=8) to enable",
)
def test_golden_verdicts_survive_injected_faults():
    """The full golden table, computed on a crashing pool, must equal the
    checked-in goldens — recovery is invisible to results."""
    golden_path = os.path.join(
        os.path.dirname(__file__), "data", "verdicts_golden.json"
    )
    with open(golden_path) as handle:
        golden = json.load(handle)
    models = [load_model(name) for name in golden["models"]]
    programs = [library.get(name) for name in sorted(library.all_names())]
    with obs.collect() as collector:
        table = verdicts(models, programs, jobs=2)
    assert table == golden["verdicts"]
    counters = collector.report().counters
    # The lane is pointless if nothing was actually injected + recovered.
    assert counters.get("guard.retries", 0) > 0
