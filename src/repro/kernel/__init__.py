"""repro.kernel — the fast execution kernel.

A performance layer under the public ``Relation``/``EventSet``/
``run_litmus`` APIs, with no behavioural change:

* :mod:`repro.kernel.bitrel` — integer-indexed relations: events mapped to
  dense indices once per universe, relations held as adjacency bitset
  rows, operators as word-parallel integer arithmetic;
* :mod:`repro.kernel.skeleton` — per-trace incremental checking: the
  trace-invariant structure of candidate executions, computed once per
  trace combination and shared across all rf×co candidates;
* :mod:`repro.kernel.vm` — the relational bytecode VM: each compiled cat
  model is lowered once to a flat instruction array over numbered
  registers of raw bitset values; trace-invariant registers are computed
  once per skeleton and shared by reference across rf×co siblings;
* :mod:`repro.kernel.parallel` — distributes whole programs, one per
  task, over a ``multiprocessing`` worker pool, surfaced as ``--jobs N``
  on the CLIs and ``jobs=N`` on the ``verdicts``/``sweep_corpus`` APIs.
  Every task crosses the pool through one call, ``fault_tolerant_map``,
  which forwards the ambient budget and brings each worker's
  observability report home; pools persist across programs so spawn and
  model compile costs amortise over a library sweep;
* :mod:`repro.kernel.config` — the one switch, ``REPRO_ORACLE``: unset,
  the kernel runs production (all of the above plus condition-directed
  enumeration for verdict-only runs); set, it runs the oracle
  (frozenset relations, naive enumerate-then-filter, the
  statement-walking cat evaluator).  Both enumerate the same stream:
  only the SC-per-location candidates when every model of the run
  implies that axiom (:attr:`repro.model.Model.sc_per_location`), else
  all of them.

``tests/test_kernel_equiv.py`` asserts that production and the oracle
are observationally equivalent.
"""

from repro.kernel.config import oracle, set_oracle, use_oracle

__all__ = ["oracle", "set_oracle", "use_oracle"]
