"""Read-Copy-Update: the paper's Section 4 and Section 6.

* :mod:`repro.rcu.axiom` — the RCU axiom of Figure 12 (counting grace
  periods against critical sections along cycles);
* :mod:`repro.rcu.law` — the fundamental law ("read-side critical
  sections cannot span grace periods"), via precedes functions;
* :mod:`repro.rcu.theorems` — the mechanised check of Theorem 1 (the
  axiom and the law agree) over finite executions;
* :mod:`repro.rcu.implementation` — the userspace RCU implementation of
  Figure 15, its inlining transformation P -> P', and the empirical check
  of Theorem 2 (allowed executions of P' project to allowed executions
  of P).
"""

from repro import _lazy

#: Imported on first use (PEP 562): a verdict job that never checks the
#: RCU theorems does not pay for them.
_EXPORTS = {
    name: (module, name)
    for module, names in (
        ("repro.rcu.axiom", ("rcu_axiom_holds", "grace_periods", "critical_sections")),
        (
            "repro.rcu.law",
            ("PrecedesFunction", "RSCS", "fundamental_law_holds", "rcu_fence", "enlarged_pb"),
        ),
        (
            "repro.rcu.theorems",
            ("Theorem1Result", "check_theorem1", "check_theorem1_on_program"),
        ),
        (
            "repro.rcu.implementation",
            ("inline_rcu", "verify_implementation", "ImplementationReport"),
        ),
    )
    for name in names
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = _lazy(globals(), _EXPORTS)
