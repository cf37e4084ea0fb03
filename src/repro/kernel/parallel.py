"""Parallel litmus driving over fault-tolerant worker pools.

The parallel work is the many tests, so programs are distributed whole,
one per task: :func:`repro.herd.verdicts`, ``repro-herd --jobs``,
``repro-lint --races --jobs`` and :func:`repro.corpus.sweep.sweep_corpus`
each map a plain task function over their programs with
:func:`fault_tolerant_map`.  The parent's kernel configuration
(production or oracle) is replicated into each worker explicitly (an
initializer, not environment inheritance), so a ``use_oracle`` context
applies to parallel runs too.

**Fault tolerance** (:func:`fault_tolerant_map`, the single submission
path): pools are :class:`concurrent.futures.ProcessPoolExecutor` objects,
so a worker that dies mid-task (OOM kill, segfault, injected
``REPRO_FAULT`` crash) surfaces promptly as ``BrokenProcessPool`` instead
of hanging the sweep; a worker that *hangs* is caught by the per-task
deadline.  Either way the driver kills the poisoned pool, re-spawns a
fresh one, and retries only the lost tasks, one at a time, with
exponential backoff and deterministic jitter, until a task has failed
alone :data:`MAX_ATTEMPTS` times.  Completed
results are never recomputed.  Recovery activity is published as
``guard.worker_deaths`` / ``guard.worker_hangs`` / ``guard.retries``
observability counters.

**The pool is crossed in one place.**  Every task runs in the worker
under :func:`_faulted_call`, so task functions are plain functions of
their payload.  Two things cross with each task:

* the parent's ambient :class:`repro.guard.Budget`, by value: the worker
  re-arms it locally, so tasks self-limit cooperatively and ship
  partial results home.  A task runs under that budget or none: the
  initializer drops any guard a forked worker inherits.  Unless the
  caller gives ``task_timeout``, :func:`fault_tolerant_map` also derives
  a *hard* per-task deadline from its wall budget
  (:func:`task_deadline`) as a backstop against workers that cannot
  reach a safepoint;
* observability (:mod:`repro.obs`): when the parent has a collector
  installed, the worker runs the task under a local
  :func:`repro.obs.collect` block and ships the serialised
  :class:`~repro.obs.RunReport` home with the result.  The parent absorbs
  it before ``on_result`` sees the result, so counter totals are *exact*:
  a serial run and a merged parallel run of the same work produce
  identical enumeration/judgement counters (``tests/test_obs.py``).
  Worker spans arrive as aggregates; raw trace events stay parent-only.

**Signals**: workers ignore SIGINT (the parent owns interruption); a
``KeyboardInterrupt`` in the parent terminates every pool promptly —
no orphaned worker processes — and :func:`shutdown_pools` is idempotent
and safe to call from signal/atexit context.
"""

from __future__ import annotations

import atexit
import hashlib
import multiprocessing
import signal
import time
from collections import OrderedDict, deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.guard import core as _guard_core
from repro.guard import faults as _faults
from repro.kernel import config as _config
from repro.obs import core as _obs

#: Set in each worker by the pool initializer: the parent had a collector
#: installed, so tasks must collect locally and ship their report home.
_WORKER_OBSERVING = False

#: Retry policy: the attempts a task may fail alone in flight (first try
#: included) before the map gives up.
MAX_ATTEMPTS = 4
#: Base backoff before a retry; doubles per failure charged, plus jitter.
BACKOFF_BASE_S = 0.05
#: Grace multiplier/slack turning a cooperative wall budget into a hard
#: per-task deadline for hang detection.
DEADLINE_FACTOR = 2.0
DEADLINE_SLACK_S = 5.0


class WorkerPoolError(RuntimeError):
    """Raised when tasks still fail after every retry attempt."""


def _init_worker(
    oracle: bool,
    observing: bool,
    fault_spec: Optional[str],
) -> None:
    global _WORKER_OBSERVING
    # The parent owns interruption: on Ctrl-C it terminates pools
    # explicitly, so workers must not die mid-IPC with tracebacks.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    _config.set_oracle(oracle)
    _guard_core.disarm()
    _WORKER_OBSERVING = observing
    _faults.mark_worker_process(fault_spec)


def _pool_config() -> tuple:
    return (
        _config.oracle(),
        _obs.enabled(),
        _faults.raw_spec(),
    )


class WorkerPool:
    """A process pool with prompt, idempotent termination.

    Wraps :class:`ProcessPoolExecutor` (whose broken-pool detection the
    fault tolerance relies on) behind the small pool surface the rest of
    the package uses: ``submit``/``map``/``terminate``, and a
    context manager that *terminates* on exit like
    ``multiprocessing.Pool`` (an executor's default would block until
    every queued task drains).
    """

    def __init__(self, jobs: int):
        self.jobs = jobs
        self._dead = False
        self._started = False
        self._executor = ProcessPoolExecutor(
            max_workers=jobs,
            mp_context=multiprocessing.get_context(),
            initializer=_init_worker,
            initargs=_pool_config(),
        )

    def submit(self, fn: Callable, *args):
        if self._started:
            return self._executor.submit(fn, *args)
        # The first submit forks the workers.  A forked worker runs the
        # parent's SIGINT handler until its initializer ignores SIGINT, so
        # ignore it in the parent across the fork: a stray Ctrl-C then
        # cannot kill a worker that is still starting.
        self._started = True
        try:
            previous = signal.signal(signal.SIGINT, signal.SIG_IGN)
        except ValueError:  # not the main thread: signals stay as they are
            return self._executor.submit(fn, *args)
        try:
            return self._executor.submit(fn, *args)
        finally:
            signal.signal(signal.SIGINT, previous)

    def map(self, fn: Callable, tasks: Sequence) -> List:
        futures = [self.submit(fn, task) for task in tasks]
        return [future.result() for future in futures]

    def worker_pids(self) -> List[int]:
        processes = getattr(self._executor, "_processes", None) or {}
        return [proc.pid for proc in processes.values() if proc.pid]

    def terminate(self) -> None:
        """Kill workers and drop queued work; safe to call repeatedly."""
        if self._dead:
            return
        self._dead = True
        processes = list(
            (getattr(self._executor, "_processes", None) or {}).values()
        )
        try:
            self._executor.shutdown(wait=False, cancel_futures=True)
        except Exception:  # pragma: no cover - broken executor internals
            pass
        for proc in processes:
            try:
                proc.kill()
            except Exception:  # pragma: no cover - already gone
                pass
        for proc in processes:
            try:
                proc.join(timeout=5)
            except Exception:  # pragma: no cover
                pass

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.terminate()


#: Long-lived pools keyed by (jobs, kernel config): spawning workers and
#: re-compiling models in them dominates small parallel runs, so pools
#: persist across the programs of a sweep — a library sweep pays the
#: spawn and per-worker model/bytecode compile cost once, not once per
#: test.  Bounded LRU; a config change (different key) rotates the
#: stale pool out and terminates it.
_PERSISTENT_POOLS: "OrderedDict[tuple, WorkerPool]" = OrderedDict()
_PERSISTENT_POOL_LIMIT = 2


def persistent_pool(jobs: int) -> WorkerPool:
    """A shared pool for this (jobs, config) combination.

    Callers must *not* close or terminate it; :func:`shutdown_pools`
    (registered atexit, and available to tests) reclaims the processes,
    and :func:`discard_pool` retires one that crashed or hung.
    """
    key = (jobs,) + _pool_config()
    pool = _PERSISTENT_POOLS.get(key)
    if pool is not None:
        _PERSISTENT_POOLS.move_to_end(key)
        if _obs.ENABLED:
            _obs.count("parallel.pool_reuse")
        return pool
    if _obs.ENABLED:
        _obs.count("parallel.pool_spawn")
    pool = WorkerPool(jobs)
    _PERSISTENT_POOLS[key] = pool
    while len(_PERSISTENT_POOLS) > _PERSISTENT_POOL_LIMIT:
        _, stale = _PERSISTENT_POOLS.popitem(last=False)
        stale.terminate()
    return pool


def discard_pool(pool: WorkerPool) -> None:
    """Retire a poisoned persistent pool (broken or hung workers)."""
    for key, candidate in list(_PERSISTENT_POOLS.items()):
        if candidate is pool:
            del _PERSISTENT_POOLS[key]
    pool.terminate()


def shutdown_pools() -> None:
    """Terminate and reap every persistent pool.

    Idempotent and re-entrant: concurrent/repeated calls (atexit, a
    SIGINT handler, test teardown) each drain whatever pools remain and
    calling it with no pools left is a no-op.
    """
    while True:
        try:
            _, pool = _PERSISTENT_POOLS.popitem()
        except KeyError:
            return
        pool.terminate()


atexit.register(shutdown_pools)


# -- fault-tolerant submission --------------------------------------------


def _jitter(attempt: int, pending: int) -> float:
    """Deterministic jitter in [0, 1) — reproducible backoff schedules."""
    digest = hashlib.sha256(f"backoff|{attempt}|{pending}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


def _faulted_call(
    fn: Callable,
    payload,
    nonce: str,
    budget: Optional["_guard_core.Budget"],
) -> Tuple[Any, Optional[Dict]]:
    """Worker-side task wrapper: the one place a task crosses the pool.

    It is the fault-injection point, re-arms the parent's ``budget``
    locally (its own wall clock, candidate and memory counters), and,
    when the parent is observing, runs ``fn`` under a fresh collector.
    Returns ``(result, report)``: the serialised report, or ``None``.
    """
    _faults.maybe_inject(nonce)
    armed = nullcontext() if budget is None else _guard_core.guard(budget)
    if not _WORKER_OBSERVING:
        with armed:
            return fn(payload), None
    with _obs.collect() as collector, armed:
        result = fn(payload)
    return result, collector.report().to_dict()


def task_deadline(budget: Optional["_guard_core.Budget"]) -> Optional[float]:
    """A hard per-task deadline derived from a cooperative wall budget.

    Workers normally stop themselves at a safepoint well inside the
    budget; the hard deadline (``factor × wall + slack``) only fires for
    workers that cannot reach one — a hung syscall, an injected hang —
    and triggers pool replacement plus a retry.
    """
    if budget is None or budget.wall_seconds is None:
        return None
    return budget.wall_seconds * DEADLINE_FACTOR + DEADLINE_SLACK_S


def fault_tolerant_map(
    fn: Callable,
    payloads: Sequence,
    jobs: int,
    task_timeout: Optional[float] = None,
    max_attempts: Optional[int] = None,
    on_result: Optional[Callable[[int, Any], None]] = None,
    stop: Optional[Callable[[], bool]] = None,
) -> List:
    """Run ``fn`` over ``payloads`` on a worker pool, surviving crashes
    and hangs.

    ``fn`` is a plain function of one payload: :func:`_faulted_call`
    carries the ambient budget and the observability report across the
    pool, and each report is absorbed here before ``on_result`` sees the
    result.  Results are returned bare, in payload order, from a pool of
    at most ``len(payloads)`` workers.  ``on_result`` is invoked as
    ``on_result(index, result)`` in completion order — the
    checkpoint-journal hook.

    At most two tasks per worker are in flight, so a pool that dies (a
    worker crashed, or a task outlived ``task_timeout``, which runs from
    its submission and defaults to :func:`task_deadline` of the ambient
    budget) loses only those.  They are retried one at a time on a fresh
    pool, so a failure is charged only to a task that was alone in
    flight: the collateral of a crash never uses up a retry budget.
    Raises :class:`WorkerPoolError` when a task has failed alone
    ``max_attempts`` times, and re-raises any genuine task exception
    immediately (a deterministic bug is not retryable).

    ``stop`` is polled between completions and after each lost pool:
    when it returns true the map ends early — queued tasks are abandoned,
    the pool is retired (running tasks cannot be evicted individually),
    and the partial result list is returned with ``None`` in the
    unfinished slots.  Completed results (and their ``on_result``
    checkpoints) are always kept, which is what makes a budgeted,
    journal-backed corpus sweep resumable: the next run picks up exactly
    the abandoned tail.
    """
    if max_attempts is None:
        max_attempts = MAX_ATTEMPTS
    active = _guard_core.current()
    budget = active.budget if active is not None else None
    if task_timeout is None:
        task_timeout = task_deadline(budget)
    # The executor forks every worker at the first submit, so a pool
    # larger than the batch would only fork idle processes.
    jobs = max(1, min(jobs, len(payloads)))
    if _obs.ENABLED:
        _obs.gauge("parallel.jobs", jobs)
    results: List[Any] = [None] * len(payloads)
    queue = deque(range(len(payloads)))
    # Tasks in flight when a pool died, retried alone before the queue.
    suspects: Deque[int] = deque()
    # Per task: attempts made (each seeds its own fault-injection nonce)
    # and failures charged to it.
    attempts = [0] * len(payloads)
    charged = [0] * len(payloads)
    task_name = getattr(fn, "__name__", "task")
    # future -> (task index, deadline or None)
    in_flight: Dict[Any, Tuple[int, Optional[float]]] = {}

    def _stopped() -> bool:
        if stop is None or not stop():
            return False
        if _obs.ENABLED:
            _obs.count("guard.sweep_stops")
        return True

    def _collect(future) -> bool:
        """Land a finished task's result; False when its pool broke."""
        try:
            result, report = future.result()
        except BrokenProcessPool:
            return False
        index, _ = in_flight.pop(future)
        if report is not None:
            _obs.absorb(report)
        results[index] = result
        if on_result is not None:
            on_result(index, result)
        return True

    with _obs.span("parallel.map"):
        try:
            pool = None
            while queue or suspects or in_flight:
                if _stopped():
                    for future in in_flight:
                        future.cancel()
                    if in_flight:
                        discard_pool(pool)
                    return results
                if pool is None:
                    pool = persistent_pool(jobs)
                source = suspects or queue
                window = 1 if suspects else 2 * jobs
                lost = hung = False
                while source and len(in_flight) < window:
                    index = source[0]
                    # A fast crash can break the executor between two
                    # submits; submit() then raises synchronously.
                    try:
                        future = pool.submit(
                            _faulted_call,
                            fn,
                            payloads[index],
                            f"{task_name}:{index}:{attempts[index]}",
                            budget,
                        )
                    except BrokenProcessPool:
                        lost = True
                        break
                    source.popleft()
                    in_flight[future] = (
                        index,
                        None
                        if task_timeout is None
                        else time.monotonic() + task_timeout,
                    )
                if not lost:
                    # Tasks share one timeout, so the oldest in flight
                    # (the first entry) has the earliest deadline.
                    _, deadline = next(iter(in_flight.values()))
                    done, _ = wait(
                        in_flight,
                        timeout=(
                            None
                            if deadline is None
                            else max(0.0, deadline - time.monotonic())
                        ),
                        return_when=FIRST_COMPLETED,
                    )
                    # Nothing done by the deadline: a hung worker, which
                    # cannot be evicted individually.
                    lost = hung = not done
                    for future in done:
                        if not _collect(future):
                            lost = True
                    if not lost:
                        continue
                if _obs.ENABLED:
                    _obs.count(
                        "guard.worker_hangs" if hung else "guard.worker_deaths"
                    )
                # The pool is lost, and with it every task still in
                # flight; keep whatever finished before it went.
                for future in list(in_flight):
                    if future.done() and not future.cancelled():
                        _collect(future)
                discard_pool(pool)
                pool = None
                failed = sorted(index for index, _ in in_flight.values())
                in_flight.clear()
                for index in failed:
                    attempts[index] += 1
                if len(failed) == 1:
                    # Alone in flight: the failure is this task's own.
                    (index,) = failed
                    charged[index] += 1
                    if charged[index] >= max_attempts:
                        raise WorkerPoolError(
                            f"worker task {index} still failing after "
                            f"{max_attempts} attempts"
                        )
                suspects.extendleft(reversed(failed))
                if _obs.ENABLED:
                    _obs.count("guard.retries", len(failed))
                strikes = max((charged[index] for index in failed), default=1)
                delay = BACKOFF_BASE_S * (2 ** max(0, strikes - 1))
                time.sleep(delay * (1.0 + _jitter(strikes, len(failed))))
        except KeyboardInterrupt:
            # Terminate promptly rather than leaving orphaned workers
            # grinding through a sweep nobody wants any more.
            shutdown_pools()
            raise
    return results
