"""Intraprocedural static analysis over litmus thread ASTs.

Two layers, bottom up:

* :mod:`repro.analysis.flow.analyses` — reaching definitions, liveness,
  constant propagation and the path-sensitive RCU/lock region analysis,
  each solved by one walk over a thread's structured, loop-free body
  (:func:`forward`, :func:`backward`);
* :mod:`repro.analysis.flow.checkers` — the ``repro-lint`` checkers built
  on top (RCU discipline, lock discipline, fragile dependencies, precise
  uninit/dead-store lint).
"""

from repro import _lazy

#: Imported on first use (PEP 562): thread segmentation, which needs only
#: :func:`live_registers`, does not load the checkers and the findings.
_EXPORTS = {
    name: (module, name)
    for module, names in (
        (
            "repro.analysis.flow.analyses",
            (
                "ConstantPropagation", "Liveness", "ReachingDefinitions",
                "RegionAnalysis", "RegionState", "UNINIT", "VARIES", "backward",
                "environment", "fold_expr", "forward", "live_registers",
                "program_lock_locations", "static_location",
            ),
        ),
        (
            "repro.analysis.flow.checkers",
            (
                "CHECKERS", "MAX_RCU_NESTING", "check_dataflow",
                "check_dependencies", "check_locks", "check_rcu",
                "lint_program_flow",
            ),
        ),
    )
    for name in names
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = _lazy(globals(), _EXPORTS)
