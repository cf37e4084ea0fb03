"""Evaluation of cat models over candidate executions.

Values in cat are event sets or binary relations; the evaluator is
dynamically typed and dispatches each operator on the operand kinds, as
herd does.  Recursive ``let rec`` groups are evaluated as simultaneous
least fixpoints starting from empty relations — the cat operators used in
recursive definitions are monotone, so iteration converges on finite
executions.

The builtin environment exposes:

* the base relations ``po``, ``rf``, ``co``, ``addr``, ``data``, ``ctrl``,
  ``rmw``, ``loc``, ``int``, ``ext``, ``id``;
* the event sets ``_``, ``R``, ``W``, ``F``, ``M``, ``IW``;
* one event set per annotation, capitalised (``Once``, ``Acquire``,
  ``Release``, ``Rmb``, ``Wmb``, ``Mb``, ``Rb-dep``, ``Rcu-lock``,
  ``Rcu-unlock``, ``Sync-rcu``, plus the architecture- and C11-level tags
  used by the comparison models);
* ``crit``, the outermost RCU lock/unlock matching (herd gets this from
  the bell layer; see :mod:`repro.executions.derived`);
* the builtin functions ``domain``, ``range``, and ``fencerel``.
"""

from __future__ import annotations

from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Union as TUnion

from repro.cat import ast as C
from repro.cat.parser import parse_cat
from repro.executions.candidate import CandidateExecution
from repro.executions.derived import crit_relation
from repro.guard import core as _guard
from repro.kernel import config as _config
from repro.kernel import vm as _vm
from repro.model import AxiomViolation, Model, ModelResult
from repro.obs import core as _obs
from repro.relations import EventSet, Relation

if TYPE_CHECKING:
    from repro.analysis.catir.compile import CompiledModel

#: Directory holding the shipped .cat model files.
MODELS_DIR = Path(__file__).parent / "models"


class CatError(Exception):
    """Raised for type or name errors during evaluation."""


Value = TUnion[Relation, EventSet, "CatFunction"]


class CatFunction:
    """A user-defined cat function (e.g. ``A-cumul``)."""

    def __init__(self, name, params, body, env):
        self.name = name
        self.params = params
        self.body = body
        self.env = env  # captured environment (lexical scoping)

    def __call__(self, evaluator: "_Evaluator", args: List[Value]) -> Value:
        if len(args) != len(self.params):
            raise CatError(
                f"{self.name} expects {len(self.params)} args, got {len(args)}"
            )
        inner = dict(self.env)
        inner.update(zip(self.params, args))
        return evaluator.eval(self.body, inner)


#: Annotation name (as it appears in cat files) -> event tag.
TAG_SETS: Dict[str, str] = {
    # Linux-kernel tags (Tables 3 and 4).
    "Once": "once",
    "Acquire": "acquire",
    "Release": "release",
    "Rmb": "rmb",
    "Wmb": "wmb",
    "Mb": "mb",
    "Rb-dep": "rb-dep",
    "Rcu-lock": "rcu-lock",
    "Rcu-unlock": "rcu-unlock",
    "Sync-rcu": "sync-rcu",
    "Plain": "plain",
    "Noop": "noop",
    # Architecture-level tags (repro.hardware.compile).
    "Sync": "sync",
    "Lwsync": "lwsync",
    "Isync": "isync",
    "Mfence": "mfence",
    "Dmb": "dmb",
    "Dmb-ld": "dmb-ld",
    "Dmb-st": "dmb-st",
    "Ldar": "ldar",
    "Stlr": "stlr",
    "Alpha-mb": "alpha-mb",
    "Alpha-wmb": "alpha-wmb",
    # C11 tags (the mapping of Section 5.2).
    "RLX": "rlx",
    "ACQ": "acq",
    "REL": "rel",
    "SC": "sc",
    "F-acq": "f-acq",
    "F-rel": "f-rel",
    "F-sc": "f-sc",
}


def builtin_environment(execution: CandidateExecution) -> Dict[str, Value]:
    """The initial cat environment for one execution."""
    env: Dict[str, Value] = {
        "po": execution.po,
        "rf": execution.rf,
        "co": execution.co,
        "addr": execution.addr,
        "data": execution.data,
        "ctrl": execution.ctrl,
        "rmw": execution.rmw,
        "loc": execution.loc,
        "int": execution.int_,
        "ext": execution.ext,
        "id": execution.identity,
        "_": execution.all_events,
        "R": execution.reads,
        "W": execution.writes,
        "F": execution.fences,
        "M": execution.accesses,
        "IW": execution.initial_writes,
        "crit": crit_relation(execution),
    }
    for name, tag in TAG_SETS.items():
        env[name] = execution.tagged(tag)
    return env


def _free_identifiers(expr: C.CatExpr, out: Set[str]) -> None:
    """Collect the identifiers (and applied function names) of ``expr``."""
    if isinstance(expr, C.Id):
        out.add(expr.name)
        return
    if isinstance(expr, C.App):
        out.add(expr.func)
        for arg in expr.args:
            _free_identifiers(arg, out)
        return
    for attr in ("lhs", "rhs", "operand"):
        child = getattr(expr, attr, None)
        if child is not None:
            _free_identifiers(child, out)


def _coerce_relation(value: Value, context: str) -> Relation:
    if isinstance(value, Relation):
        return value
    if isinstance(value, EventSet):
        # herd coerces sets to identity relations in relation position.
        return value.identity()
    raise CatError(
        f"{context}: expected a relation, got {type(value).__name__}"
    )


def check_axiom(
    kind: str, name: str, negated: bool, value: Value
) -> Optional[AxiomViolation]:
    """Verdict for one check over an already-evaluated value.

    Shared by the statement walker and the bytecode VM
    (:mod:`repro.kernel.vm`), so the two paths cannot diverge on witness
    construction or negation handling.  ``empty`` on an event set keeps
    set semantics (each stray event is its own ``(e, e)`` witness);
    ``acyclic``/``irreflexive`` coerce a set to its identity relation
    first, as herd does.
    """
    if kind == "empty":
        if isinstance(value, EventSet):
            holds = value.is_empty()
            witness = tuple((e, e) for e in value)
        else:
            relation = _coerce_relation(value, "empty")
            holds = relation.is_empty()
            witness = tuple(relation.pairs)
        if negated:
            holds = not holds
            witness = ()
        if holds:
            return None
        return AxiomViolation(name, "empty", witness)

    relation = _coerce_relation(value, kind)
    if kind == "acyclic":
        cycle = relation.find_cycle()
        holds = cycle is None
        witness = tuple(cycle or ())
    elif kind == "irreflexive":
        reflexive = [a for a, b in relation.pairs if a == b]
        holds = not reflexive
        witness = tuple(reflexive[:1] * 2)
    else:  # pragma: no cover
        raise CatError(f"unknown check kind {kind!r}")
    if negated:
        holds = not holds
        witness = ()
    if holds:
        return None
    return AxiomViolation(name, kind, witness)


class _Evaluator:
    """Evaluates cat expressions in an environment."""

    def __init__(self, execution: CandidateExecution):
        self.x = execution
        self.universe = execution.universe

    # -- helpers ---------------------------------------------------------

    def _as_relation(self, value: Value, context: str) -> Relation:
        if isinstance(value, Relation):
            return value
        if isinstance(value, EventSet):
            # herd coerces sets to identity relations in relation position.
            return value.identity()
        raise CatError(f"{context}: expected a relation, got {type(value).__name__}")

    def _as_set(self, value: Value, context: str) -> EventSet:
        if isinstance(value, EventSet):
            return value
        raise CatError(f"{context}: expected an event set, got {type(value).__name__}")

    # -- evaluation --------------------------------------------------------

    def eval(self, expr: C.CatExpr, env: Dict[str, Value]) -> Value:
        if isinstance(expr, C.Id):
            try:
                return env[expr.name]
            except KeyError:
                raise CatError(f"unbound identifier {expr.name!r}") from None
        if isinstance(expr, C.EmptyRel):
            return Relation((), self.universe)
        if isinstance(expr, C.Union):
            lhs = self.eval(expr.lhs, env)
            rhs = self.eval(expr.rhs, env)
            if isinstance(lhs, EventSet) and isinstance(rhs, EventSet):
                return lhs | rhs
            return self._as_relation(lhs, "|") | self._as_relation(rhs, "|")
        if isinstance(expr, C.Inter):
            lhs = self.eval(expr.lhs, env)
            rhs = self.eval(expr.rhs, env)
            if isinstance(lhs, EventSet) and isinstance(rhs, EventSet):
                return lhs & rhs
            return self._as_relation(lhs, "&") & self._as_relation(rhs, "&")
        if isinstance(expr, C.Diff):
            lhs = self.eval(expr.lhs, env)
            rhs = self.eval(expr.rhs, env)
            if isinstance(lhs, EventSet) and isinstance(rhs, EventSet):
                return lhs - rhs
            return self._as_relation(lhs, "\\") - self._as_relation(rhs, "\\")
        if isinstance(expr, C.Seq):
            lhs = self._as_relation(self.eval(expr.lhs, env), ";")
            rhs = self._as_relation(self.eval(expr.rhs, env), ";")
            return lhs.sequence(rhs)
        if isinstance(expr, C.Cartesian):
            lhs = self._as_set(self.eval(expr.lhs, env), "*")
            rhs = self._as_set(self.eval(expr.rhs, env), "*")
            return lhs.product(rhs)
        if isinstance(expr, C.Compl):
            value = self.eval(expr.operand, env)
            if isinstance(value, EventSet):
                return value.complement()
            return self._as_relation(value, "~").complement()
        if isinstance(expr, C.Inverse):
            return self._as_relation(self.eval(expr.operand, env), "^-1").inverse()
        if isinstance(expr, C.Opt):
            return self._as_relation(self.eval(expr.operand, env), "?").optional()
        if isinstance(expr, C.Plus):
            return self._as_relation(
                self.eval(expr.operand, env), "+"
            ).transitive_closure()
        if isinstance(expr, C.Star):
            return self._as_relation(
                self.eval(expr.operand, env), "*"
            ).reflexive_transitive_closure()
        if isinstance(expr, C.SetId):
            return self._as_set(self.eval(expr.operand, env), "[]").identity()
        if isinstance(expr, C.App):
            return self._apply(expr, env)
        raise CatError(f"unknown cat expression {expr!r}")

    def _apply(self, expr: C.App, env: Dict[str, Value]) -> Value:
        args = [self.eval(arg, env) for arg in expr.args]
        if expr.func == "domain":
            return self._as_relation(args[0], "domain").domain()
        if expr.func == "range":
            return self._as_relation(args[0], "range").range()
        if expr.func == "fencerel":
            # fencerel(S) = (po & (_ x S)) ; po — events separated by a
            # fence in S.
            fence_set = self._as_set(args[0], "fencerel")
            x = self.x
            before = x.po.restrict(range_=fence_set)
            after = x.po.restrict(domain=fence_set)
            return before.sequence(after)
        func = env.get(expr.func)
        if isinstance(func, CatFunction):
            return func(self, args)
        raise CatError(f"unknown function {expr.func!r}")


class CatModel(Model):
    """A consistency model defined by a cat file.

    On first use the statement list is flattened (includes expanded).
    The model owns its relational IR (:attr:`compiled`), compiled from
    that list once per model and process; every consumer reads that one
    compile: the VM lowering, :attr:`sc_per_location`, the symbolic
    prover and the model diff.  Production checks run the IR lowered to
    bytecode on the VM (:mod:`repro.kernel.vm`), which :meth:`allows`
    stops at the first violated check; :meth:`_walk` evaluates the
    statements per candidate, as the oracle and as the fallback.
    """

    def __init__(self, cat_file: C.CatFile, name: Optional[str] = None):
        self.cat_file = cat_file
        self.name = name or cat_file.name
        self._flat: Optional[List] = None

    def __getstate__(self):
        # The hash-consed IR and the program lowered from it (whose token
        # keys per-skeleton VM state) are per-process, so they must not
        # cross a pickle boundary (pool workers); each process compiles
        # its own on first use.
        state = self.__dict__.copy()
        state.pop("compiled", None)
        state.pop("_program", None)
        return state

    @classmethod
    def from_source(cls, source: str, name: Optional[str] = None) -> "CatModel":
        return cls(parse_cat(source), name=name)

    @classmethod
    def from_path(cls, path, name: Optional[str] = None) -> "CatModel":
        path = Path(path)
        cat_file = parse_cat(
            path.read_text(), default_name=path.stem, path=str(path)
        )
        return cls(cat_file, name=name)

    def _flattened(self) -> List:
        if self._flat is None:
            out: List = []

            def walk(cat_file: C.CatFile) -> None:
                for statement in cat_file.statements:
                    if isinstance(statement, C.Include):
                        walk(_load_cat_file(statement.path))
                    elif isinstance(statement, (C.Let, C.Check)):
                        out.append(statement)
                    else:  # pragma: no cover - parser produces only the above
                        raise CatError(f"unknown statement {statement!r}")

            walk(self.cat_file)
            self._flat = out
        return self._flat

    def check(self, execution: CandidateExecution) -> ModelResult:
        outcome = self._run_vm(execution, first=False)
        if outcome is None:
            return self._walk(execution)
        return self._result(*outcome)

    def allows(self, execution: CandidateExecution) -> bool:
        """The verdict alone: the VM stops at the first violated check, so
        ``cat.<model>.violation.<axiom>`` counts the deciding axiom only."""
        outcome = self._run_vm(execution, first=True)
        if outcome is None:
            return self._walk(execution).allowed
        return self._result(*outcome).allowed

    def _run_vm(self, execution: CandidateExecution, first: bool):
        """``(violations, flags)`` from the VM (see
        :func:`repro.kernel.vm.run_checks`), or None when the walker must
        judge: under the oracle, or for a model the IR compiler rejects
        (counted as ``cat.fallback.unlowerable``)."""
        if _guard.ACTIVE:
            _guard._current.tick()  # budget safepoint: one per-candidate model check
        if _config.oracle():
            return None
        program = self._vm_program()
        if program is not None:
            return _vm.run_checks(program, execution, self.name, first)
        if _obs.ENABLED:
            _obs.count("cat.fallback.unlowerable")
        return None

    def _walk(self, execution: CandidateExecution) -> ModelResult:
        """The statement walker: evaluate the cat text top to bottom.

        This is the oracle, and the production fallback for a model that
        does not lower to bytecode.
        """
        evaluator = _Evaluator(execution)
        env = builtin_environment(execution)
        violations: List[AxiomViolation] = []
        flags: List[AxiomViolation] = []
        for index, statement in enumerate(self._flattened()):
            if isinstance(statement, C.Let):
                self._bind(statement, evaluator, env)
            else:
                violation = self._check(statement, evaluator, env, index)
                if violation is not None:
                    (flags if statement.flag else violations).append(violation)
        return self._result(violations, flags)

    def _result(
        self, violations: List[AxiomViolation], flags: List[AxiomViolation]
    ) -> ModelResult:
        if _obs.ENABLED:
            _obs.count(f"cat.{self.name}.checks")
            for violation in violations:
                _obs.count(f"cat.{self.name}.violation.{violation.axiom}")
        result = ModelResult(allowed=not violations, violations=violations)
        result.flags = flags  # informational, does not affect the verdict
        return result

    @cached_property
    def compiled(self) -> Optional["CompiledModel"]:
        """The model's relational IR, compiled on first use, or None when
        the IR compiler rejects the model.  A compile failure is not an
        error here: the walker evaluates all value bindings eagerly, so
        its first ``check()`` raises the equivalent :class:`CatError` —
        falling back keeps the two paths observably identical."""
        from repro.analysis.catir.compile import compile_statements

        try:
            return compile_statements(self._flattened(), self.name)
        except CatError:
            return None

    def _vm_program(self):
        """:attr:`compiled` lowered to VM bytecode on first use, or None
        when the model does not compile or lower."""
        if "_program" not in self.__dict__:
            from repro.analysis.catir.plan import lower_plan

            try:
                self._program = self.compiled and lower_plan(self.compiled)
            except CatError:
                self._program = None
        return self._program

    @cached_property
    def sc_per_location(self) -> bool:
        """Derived from the compiled checks (False when the model does
        not compile): some enforcing check implies
        ``acyclic(po-loc | com)``."""
        from repro.analysis.catir.analyses import implies_sc_per_location

        return self.compiled is not None and implies_sc_per_location(
            self.compiled
        )

    def _bind(
        self, let: C.Let, evaluator: _Evaluator, env: Dict[str, Value]
    ) -> None:
        if let.recursive:
            group = "+".join(b.name for b in let.bindings)
            with _obs.span(f"cat.let.{self.name}.rec.{group}"):
                env.update(self._eval_rec(let, evaluator, env))
            return
        for binding in let.bindings:
            if binding.params:
                # Function bindings are cheap to create; their bodies
                # are (re-)evaluated per call site anyway.
                env[binding.name] = CatFunction(
                    binding.name, binding.params, binding.expr, env.copy()
                )
            else:
                with _obs.span(f"cat.let.{self.name}.{binding.name}"):
                    env[binding.name] = evaluator.eval(binding.expr, env)

    def _eval_rec(
        self, let: C.Let, evaluator: _Evaluator, env: Dict[str, Value]
    ) -> Dict[str, Value]:
        """``let rec``: simultaneous least fixpoint from empty relations."""
        env = dict(env)
        for binding in let.bindings:
            if binding.params:
                raise CatError("recursive cat functions are not supported")
            env[binding.name] = Relation((), evaluator.universe)
        while True:
            changed = False
            for binding in let.bindings:
                new = evaluator._as_relation(
                    evaluator.eval(binding.expr, env), f"let rec {binding.name}"
                )
                if new != evaluator._as_relation(
                    env[binding.name], binding.name
                ):
                    env[binding.name] = new
                    changed = True
            if not changed:
                return {b.name: env[b.name] for b in let.bindings}

    def _check(
        self,
        check: C.Check,
        evaluator: _Evaluator,
        env: Dict[str, Value],
        index: int,
    ) -> Optional[AxiomViolation]:
        name = check.name or f"{check.kind}-{index}"
        with _obs.span(f"cat.check.{self.name}.{name}"):
            return self._check_inner(check, evaluator, env, name)

    def _check_inner(
        self,
        check: C.Check,
        evaluator: _Evaluator,
        env: Dict[str, Value],
        name: str,
    ) -> Optional[AxiomViolation]:
        value = evaluator.eval(check.expr, env)
        return check_axiom(check.kind, name, check.negated, value)


#: Parse caches: the shipped .cat files never change within a process, and
#: repro-lint / the equivalence suites load the same models for every test.
_CAT_FILE_CACHE: Dict[str, C.CatFile] = {}
_MODEL_CACHE: Dict[str, CatModel] = {}


def _load_cat_file(name: str) -> C.CatFile:
    cached = _CAT_FILE_CACHE.get(name)
    if _obs.ENABLED:
        _obs.count(
            "cat.file_cache_hit" if cached is not None else "cat.file_cache_miss"
        )
    if cached is None:
        path = MODELS_DIR / name
        if not path.exists():
            raise CatError(
                f"included cat file {name!r} not found in {MODELS_DIR}"
            )
        cached = parse_cat(
            path.read_text(), default_name=path.stem, path=str(path)
        )
        _CAT_FILE_CACHE[name] = cached
    return cached


def load_model(name: str) -> CatModel:
    """Load a shipped model by name (e.g. ``lkmm``, ``c11``, ``tso``).

    Models are parsed once per process and the instance is shared, so
    each is compiled once too: :class:`CatModel` is immutable after its
    lazy flattening and compile, so callers may freely reuse it across
    runs and threads of enumeration.
    """
    cached = _MODEL_CACHE.get(name)
    if _obs.ENABLED:
        _obs.count(
            "cat.model_cache_hit" if cached is not None else "cat.model_cache_miss"
        )
    if cached is None:
        path = MODELS_DIR / f"{name}.cat"
        if not path.exists():
            available = sorted(p.stem for p in MODELS_DIR.glob("*.cat"))
            raise CatError(f"unknown model {name!r}; available: {available}")
        cached = CatModel.from_path(path)
        _MODEL_CACHE[name] = cached
    return cached
