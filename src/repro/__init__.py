"""repro — an executable Linux-kernel memory model.

A from-scratch Python reproduction of *"Frightening Small Children and
Disconcerting Grown-ups: Concurrency in the Linux Kernel"* (Alglave,
Maranget, McKenney, Parri, Stern — ASPLOS 2018): the LK memory model in
the cat language with a herd-style simulator, the RCU formalisation
(fundamental law + axiom + theorem checkers), comparison models (C11 and
per-architecture hardware models), a klitmus-style operational hardware
simulator, a diy-style litmus-test generator, and a static-analysis suite
(:mod:`repro.analysis`: data-race detection plus cat/litmus linting).

Quickstart::

    from repro import litmus_library, LinuxKernelModel, run_litmus

    test = litmus_library.get("MP+wmb+rmb")
    result = run_litmus(LinuxKernelModel(), test)
    assert result.verdict == "Forbid"

See ``examples/quickstart.py`` for a tour.
"""

import importlib

__version__ = "1.0.0"

#: Each public name -> (the module that defines it, the attribute there;
#: ``None`` for the module itself).  Nothing is imported until a name is
#: first used (PEP 562), so ``import repro.herd`` pays for the verdict
#: path only, not for the analysis, diy, rcu and hardware packages.
_EXPORTS = {
    "analysis": ("repro.analysis", None),
    "litmus": ("repro.litmus", None),
    "obs": ("repro.obs", None),
    "RunReport": ("repro.obs", "RunReport"),
    "litmus_library": ("repro.litmus.library", None),
    "Event": ("repro.events", "Event"),
    "ONCE": ("repro.events", "ONCE"),
    "PLAIN": ("repro.events", "PLAIN"),
    "parse_litmus": ("repro.litmus.parser", "parse_litmus"),
    "candidate_executions": ("repro.executions", "candidate_executions"),
    "CandidateExecution": ("repro.executions", "CandidateExecution"),
    "LinuxKernelModel": ("repro.lkmm", "LinuxKernelModel"),
    "explain_forbidden": ("repro.lkmm", "explain_forbidden"),
    "CatModel": ("repro.cat", "CatModel"),
    "load_model": ("repro.cat", "load_model"),
    "run_litmus": ("repro.herd", "run_litmus"),
    "verdicts": ("repro.herd", "verdicts"),
    "RunResult": ("repro.herd", "RunResult"),
    "ALLOW": ("repro.herd", "ALLOW"),
    "FORBID": ("repro.herd", "FORBID"),
    "compile_program": ("repro.hardware", "compile_program"),
    "get_arch": ("repro.hardware", "get_arch"),
    "run_klitmus": ("repro.hardware", "run_klitmus"),
    "OperationalSimulator": ("repro.hardware", "OperationalSimulator"),
    "Model": ("repro.model", "Model"),
    "ModelResult": ("repro.model", "ModelResult"),
    "rcu": ("repro.rcu", None),
    "diy": ("repro.diy", None),
}

__all__ = list(_EXPORTS) + ["__version__"]


def _lazy(namespace: dict, exports: dict):
    """The PEP 562 ``__getattr__`` and ``__dir__`` of a package whose
    ``exports`` map each public name to (defining module, attribute or
    ``None`` for the module itself): a name is imported on first use,
    then kept in ``namespace``."""

    def __getattr__(name):
        try:
            module_name, attribute = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}"
            ) from None
        value = importlib.import_module(module_name)
        if attribute is not None:
            value = getattr(value, attribute)
        namespace[name] = value
        return value

    def __dir__():
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__


__getattr__, __dir__ = _lazy(globals(), _EXPORTS)
