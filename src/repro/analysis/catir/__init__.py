"""Semantic cat-model analysis over a relational IR.

The package compiles the cat AST (:mod:`repro.cat.ast`) to a normalized,
hash-consed relational IR and builds three things on top of it:

* :mod:`repro.analysis.catir.analyses` — algebraic emptiness and
  subsumption inference, powering the CAT011–CAT014 findings that
  ``repro-lint`` reports alongside the surface lint;
* :mod:`repro.analysis.catir.diff` — structural model-to-model
  comparison (``repro-lint --diff-models``);
* :mod:`repro.analysis.catir.plan` — the lowering to the bytecode VM
  (:mod:`repro.kernel.vm`) that :class:`repro.cat.eval.CatModel`
  executes in production (``REPRO_ORACLE=1`` selects the statement
  walker instead).

The compiled IR of a model lives on its :class:`repro.cat.eval.CatModel`
(:attr:`~repro.cat.eval.CatModel.compiled`), built once per model and
process on first use; the VM lowering, the SC-per-location test, the
symbolic prover, the model diff and the semantic lint all read that one
compile.

Module map: :mod:`~repro.analysis.catir.ir` (interned nodes and smart
constructors), :mod:`~repro.analysis.catir.facts` (ground truths about
the builtin environment — the single source the surface linter shares),
:mod:`~repro.analysis.catir.compile` (flattened statements → IR).
"""

from repro.analysis.catir import facts, ir  # noqa: F401
from repro.analysis.catir.compile import (  # noqa: F401
    CatIRError,
    CompiledCheck,
    CompiledModel,
    compile_model,
    compile_source,
)
