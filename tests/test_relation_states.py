"""One relation representation per kernel configuration.

A production :class:`~repro.relations.Relation` is an event index plus
bitset rows; an oracle one holds frozenset pairs only.  There is no third,
tolerant state, so this suite pins what used to fall into it:

* in production, an event outside the universe raises ``KeyError``
  (construction, ``restrict`` and ``product``), and a binary operator over
  two unequal universes raises ``ValueError``; equal universes from
  different trace combinations still combine;
* the VM's base values equal the walker's builtin environment for every
  builtin name, in rows or mask form, so the VM needs no fallback;
* the oracle never builds rows: a library × LKMM run under
  :func:`~repro.kernel.config.use_oracle` indexes no universe.
"""

from __future__ import annotations

import pytest

from repro import relations
from repro.analysis.catir.facts import BUILTIN_RELATIONS, BUILTIN_SETS
from repro.cat import load_model
from repro.cat.eval import builtin_environment
from repro.events import Event, ONCE, READ, WRITE
from repro.executions import enumerate as enumeration
from repro.executions.enumerate import candidate_executions
from repro.hardware import compile_program, get_arch
from repro.herd import run_litmus
from repro.kernel import config as kconfig
from repro.kernel import vm
from repro.kernel.bitrel import index_for
from repro.litmus import library
from repro.lkmm import LinuxKernelModel
from repro.relations import EventSet, Relation


def _events(n, first_eid=0):
    return [
        Event(
            eid=first_eid + i,
            tid=i % 2,
            po_index=i // 2,
            kind=WRITE if i % 2 else READ,
            tag=ONCE,
            loc="x",
            value=i,
        )
        for i in range(n)
    ]


EVENTS = _events(4)
UNIVERSE = frozenset(EVENTS)
STRANGER = _events(1, first_eid=99)[0]
SMALLER = frozenset(EVENTS[:3])


@pytest.fixture
def production():
    with kconfig.use_oracle(False):
        yield


class TestNoTolerantState:
    def test_stranger_pair_raises(self, production):
        with pytest.raises(KeyError):
            Relation([(EVENTS[0], STRANGER)], UNIVERSE)

    def test_stranger_restrict_mask_raises(self, production):
        relation = Relation([(EVENTS[0], EVENTS[1])], UNIVERSE)
        strangers = EventSet([STRANGER], UNIVERSE)
        with pytest.raises(KeyError):
            relation.restrict(domain=strangers)
        with pytest.raises(KeyError):
            relation.restrict(range_=strangers)

    def test_stranger_product_mask_raises(self, production):
        inside = EventSet(EVENTS[:2], UNIVERSE)
        strangers = EventSet([STRANGER], UNIVERSE)
        with pytest.raises(KeyError):
            inside.product(strangers)
        with pytest.raises(KeyError):
            strangers.product(inside)

    @pytest.mark.parametrize(
        "op",
        [
            lambda r1, r2: r1 | r2,
            lambda r1, r2: r1.sequence(r2),
            lambda r1, r2: r1 & r2,
        ],
        ids=["union", "sequence", "intersection"],
    )
    def test_unequal_universes_raise(self, production, op):
        r1 = Relation([(EVENTS[0], EVENTS[1])], UNIVERSE)
        r2 = Relation([(EVENTS[1], EVENTS[2])], SMALLER)
        with pytest.raises(ValueError):
            op(r1, r2)
        with pytest.raises(ValueError):
            op(r2, r1)

    def test_equal_universes_of_other_combinations_combine(self, production):
        # Events compare by eid: a rebuilt universe is equal but not
        # identical, and gets its own index.
        twin = frozenset(_events(4))
        assert twin == UNIVERSE and index_for(twin) is not index_for(UNIVERSE)
        r1 = Relation([(EVENTS[0], EVENTS[1])], UNIVERSE)
        r2 = Relation([(EVENTS[1], EVENTS[2])], twin)
        assert (r1 | r2).pairs == {(EVENTS[0], EVENTS[1]), (EVENTS[1], EVENTS[2])}
        assert r1.sequence(r2).pairs == {(EVENTS[0], EVENTS[2])}


# -- VM base values == the walker's environment ------------------------------


def _raw(value, index):
    """A walker value in the VM's raw form, built from its pairs/events."""
    if isinstance(value, EventSet):
        return index.mask_of(value)
    rows = [0] * index.n
    for a, b in value.pairs:
        rows[index.pos[a]] |= 1 << index.pos[b]
    return rows


def _base_value_programs():
    power = get_arch("Power8")
    return {
        "MP+wmb+rmb": library.get("MP+wmb+rmb"),
        "RCU-MP": library.get("RCU-MP"),
        "WRC+wmb+acq@Power8": compile_program(
            library.get("WRC+wmb+acq"), power, rcu="error"
        ),
    }


@pytest.mark.parametrize("name", sorted(_base_value_programs()))
def test_base_values_equal_walker_environment(name):
    program = _base_value_programs()[name]
    names = sorted(BUILTIN_RELATIONS | BUILTIN_SETS)
    nonempty = set()
    with kconfig.use_oracle(False):
        executions = list(candidate_executions(program))
        assert executions
        for execution in executions:
            index = index_for(execution.universe)
            env = builtin_environment(execution)
            for base in names:
                raw = vm.base_value(base, execution, index)
                assert raw == _raw(env[base], index), (name, base)
                if any(raw) if isinstance(raw, list) else raw:
                    nonempty.add(base)
    # The three programs between them exercise what they were chosen for.
    if name == "RCU-MP":
        assert "crit" in nonempty
    if "Power8" in name:
        assert {"Lwsync", "Sync"} & nonempty


# -- the oracle builds no rows -------------------------------------------------


def test_oracle_builds_no_rows(monkeypatch):
    built = {"index_for": 0, "from_rows": 0}

    def counting(name, original):
        def wrapper(*args, **kwargs):
            built[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for module in (relations, vm, enumeration):
        monkeypatch.setattr(
            module, "index_for", counting("index_for", module.index_for)
        )
    monkeypatch.setattr(
        Relation,
        "from_rows",
        classmethod(counting("from_rows", Relation.from_rows.__func__)),
    )
    models = [load_model("lkmm"), LinuxKernelModel()]
    with kconfig.use_oracle():
        for program in library.all_tests():
            for model in models:
                run_litmus(model, program)
    assert built == {"index_for": 0, "from_rows": 0}
    # The counters do count: one production run indexes its universes.
    with kconfig.use_oracle(False):
        run_litmus(models[0], library.get("MP"))
    assert built["index_for"] > 0 and built["from_rows"] > 0
