"""Intraprocedural static analysis over litmus thread ASTs.

Layers, bottom up:

* :mod:`repro.analysis.flow.cfg` — lowering of structured thread bodies
  to acyclic control-flow graphs;
* :mod:`repro.analysis.flow.dataflow` — a generic forward/backward
  one-pass solver over small join-semilattices;
* :mod:`repro.analysis.flow.analyses` — reaching definitions, liveness,
  constant propagation, and the path-sensitive RCU/lock region analysis;
* :mod:`repro.analysis.flow.checkers` — the ``repro-lint`` checkers built
  on top (RCU discipline, lock discipline, fragile dependencies, precise
  uninit/dead-store lint).
"""

from repro.analysis.flow.cfg import BasicBlock, Cfg, Point, build_cfg
from repro.analysis.flow.dataflow import (
    BACKWARD,
    DataflowAnalysis,
    DataflowResult,
    FORWARD,
    solve,
)
from repro.analysis.flow.analyses import (
    ConstantPropagation,
    Liveness,
    ReachingDefinitions,
    RegionAnalysis,
    RegionState,
    UNINIT,
    VARIES,
    cfg_registers,
    environment,
    expr_registers,
    fold_expr,
    instruction_def,
    instruction_uses,
    possibly_uninit,
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
    "BasicBlock",
    "Cfg",
    "Point",
    "build_cfg",
    "BACKWARD",
    "FORWARD",
    "DataflowAnalysis",
    "DataflowResult",
    "solve",
    "ConstantPropagation",
    "Liveness",
    "ReachingDefinitions",
    "RegionAnalysis",
    "RegionState",
    "UNINIT",
    "VARIES",
    "cfg_registers",
    "environment",
    "expr_registers",
    "fold_expr",
    "instruction_def",
    "instruction_uses",
    "possibly_uninit",
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
