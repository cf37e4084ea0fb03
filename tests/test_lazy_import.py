"""``import repro`` is lazy: a public name is imported on first use.

The package resolves its ``__all__`` names through a module
``__getattr__`` (PEP 562), so a cold verdict (``import repro.herd``)
pays for the verdict path only.  Each check runs in a fresh interpreter,
because this test process has imported everything already.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(__file__).resolve().parent.parent / "src")

#: Each public name: the module that defines it, and its attribute
#: there (``None`` for a module).
DEFINED_IN = {
    "analysis": ("repro.analysis", None),
    "litmus": ("repro.litmus", None),
    "obs": ("repro.obs", None),
    "RunReport": ("repro.obs.report", "RunReport"),
    "litmus_library": ("repro.litmus.library", None),
    "Event": ("repro.events", "Event"),
    "ONCE": ("repro.events", "ONCE"),
    "PLAIN": ("repro.events", "PLAIN"),
    "parse_litmus": ("repro.litmus.parser", "parse_litmus"),
    "candidate_executions": ("repro.executions.enumerate", "candidate_executions"),
    "CandidateExecution": ("repro.executions.candidate", "CandidateExecution"),
    "LinuxKernelModel": ("repro.lkmm.model", "LinuxKernelModel"),
    "explain_forbidden": ("repro.lkmm.explain", "explain_forbidden"),
    "CatModel": ("repro.cat.eval", "CatModel"),
    "load_model": ("repro.cat.eval", "load_model"),
    "run_litmus": ("repro.herd", "run_litmus"),
    "verdicts": ("repro.herd", "verdicts"),
    "RunResult": ("repro.herd", "RunResult"),
    "ALLOW": ("repro.herd", "ALLOW"),
    "FORBID": ("repro.herd", "FORBID"),
    "compile_program": ("repro.hardware.compile", "compile_program"),
    "get_arch": ("repro.hardware.archspec", "get_arch"),
    "run_klitmus": ("repro.hardware.klitmus", "run_klitmus"),
    "OperationalSimulator": ("repro.hardware.opsim", "OperationalSimulator"),
    "Model": ("repro.model", "Model"),
    "ModelResult": ("repro.model", "ModelResult"),
    "rcu": ("repro.rcu", None),
    "diy": ("repro.diy", None),
}


def _fresh(code: str):
    """Run ``code`` in a new interpreter; return what it prints as JSON."""
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(done.stdout)


_LOADED = "import json, sys; print(json.dumps(sorted(m for m in sys.modules if m.startswith('repro.'))))"


def test_import_repro_loads_no_subpackage():
    assert _fresh("import repro; " + _LOADED) == []


def test_import_repro_herd_skips_the_analysis_tools():
    loaded = _fresh("import repro.herd; " + _LOADED)
    assert "repro.herd" in loaded
    for package in ("repro.analysis", "repro.diy", "repro.rcu", "repro.hardware"):
        assert not any(m == package or m.startswith(package + ".") for m in loaded), package


def test_import_repro_herd_skips_hashlib():
    # Only digests, fault injection and pool retries hash; each imports
    # hashlib where it hashes, so a cold verdict does not pay for it.
    code = "import json, sys, repro.herd; print(json.dumps('hashlib' in sys.modules))"
    assert _fresh(code) is False


def test_every_public_name_is_the_defining_modules_object():
    assert sorted(DEFINED_IN) == sorted(set(repro.__all__) - {"__version__"})
    code = f"""
import importlib, json
checked = {{}}
for name, (module, attribute) in {DEFINED_IN!r}.items():
    namespace = {{}}
    exec(f"from repro import {{name}} as value", namespace)
    expected = importlib.import_module(module)
    if attribute is not None:
        expected = getattr(expected, attribute)
    checked[name] = namespace["value"] is expected
print(json.dumps(checked))
"""
    checked = _fresh(code)
    assert checked == {name: True for name in DEFINED_IN}


def test_unknown_names_are_attribute_errors():
    with pytest.raises(AttributeError):
        repro.no_such_name  # noqa: B018
    from repro import herd  # a submodule outside __all__ still imports

    assert herd.run_litmus is repro.run_litmus
    assert set(repro.__all__) <= set(dir(repro))
