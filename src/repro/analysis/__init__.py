"""Static analysis over models, litmus tests, and executions.

The passes, all new correctness tooling on top of the paper's stack:

* :mod:`repro.analysis.races` — an execution-level data-race detector:
  conflicting plain accesses unordered by an LKMM-derived happens-before,
  in the spirit of the real LKMM's plain-access extension (the paper's
  model covers marked accesses only);
* :mod:`repro.analysis.catlint` — candidate-independent lint for cat
  models (undefined identifiers, unknown base sets, unused or shadowing
  ``let`` bindings, duplicate check names, set/relation sort inference,
  empty-by-construction intersections);
* :mod:`repro.analysis.litmuslint` — lint for litmus programs
  (conditions naming unknown registers or locations, syntactic
  plain-race heuristic, dangling fences);
* :mod:`repro.analysis.flow` — intraprocedural dataflow analyses
  (reaching definitions / liveness / constant propagation / region
  analysis, each solved by one walk over a structured thread body) and
  the path-sensitive checkers on top: RCU discipline, spinlock
  discipline, fragile compiler-breakable dependencies, precise
  uninitialised-read and dead-store detection.

Every pass reports :class:`~repro.analysis.findings.Finding` values with
stable codes and severities; the ``repro-lint`` command-line tool
(:mod:`repro.tools.cli`) drives them all and exits non-zero only on
error-severity findings.  ``repro-herd --check-races`` drives the race
detector interactively.
"""

from repro import _lazy

#: Imported on first use (PEP 562): a verdict that only needs the cat IR
#: compiler (:mod:`repro.analysis.catir`) does not load the linters and
#: the race detector.
_EXPORTS = {
    name: (module, name)
    for module, names in (
        (
            "repro.analysis.findings",
            (
                "CATEGORIES", "ERROR", "Finding", "INFO", "WARNING", "count_errors",
                "describe_findings", "findings_to_json", "findings_to_sarif",
            ),
        ),
        (
            "repro.analysis.catlint",
            ("lint_all_models", "lint_cat", "lint_cat_path", "lint_cat_source"),
        ),
        ("repro.analysis.litmuslint", ("lint_library", "lint_program")),
        (
            "repro.analysis.flow",
            (
                "check_dataflow", "check_dependencies", "check_locks", "check_rcu",
                "lint_program_flow",
            ),
        ),
        (
            "repro.analysis.races",
            (
                "RACE_FREE", "RACY", "RaceReport", "check_races", "classify_library",
                "race_order", "races_in",
            ),
        ),
    )
    for name in names
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = _lazy(globals(), _EXPORTS)
