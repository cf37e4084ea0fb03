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

from repro.analysis.flow.analyses import (
    ConstantPropagation,
    Liveness,
    ReachingDefinitions,
    RegionAnalysis,
    RegionState,
    UNINIT,
    VARIES,
    backward,
    environment,
    fold_expr,
    forward,
    live_registers,
    program_lock_locations,
    static_location,
)
from repro.analysis.flow.checkers import (
    CHECKERS,
    MAX_RCU_NESTING,
    check_dataflow,
    check_dependencies,
    check_locks,
    check_rcu,
    lint_program_flow,
)

__all__ = [
    "ConstantPropagation",
    "Liveness",
    "ReachingDefinitions",
    "RegionAnalysis",
    "RegionState",
    "UNINIT",
    "VARIES",
    "backward",
    "environment",
    "fold_expr",
    "forward",
    "live_registers",
    "program_lock_locations",
    "static_location",
    "CHECKERS",
    "MAX_RCU_NESTING",
    "check_dataflow",
    "check_dependencies",
    "check_locks",
    "check_rcu",
    "lint_program_flow",
]
