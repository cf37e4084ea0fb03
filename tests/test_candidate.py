"""Tests for the CandidateExecution structure itself."""

import pytest

from repro.executions import candidate_executions
from repro.executions.candidate import CandidateExecution
from repro.kernel.config import use_oracle
from repro.litmus import library
from repro.rcu.implementation import inline_rcu


@pytest.fixture(scope="module")
def execution():
    return next(iter(candidate_executions(library.get("MP+wmb+rmb"))))


class TestEventSets:
    def test_partition_of_universe(self, execution):
        x = execution
        assert (x.reads | x.writes | x.fences).events == x.events
        assert (x.reads & x.writes).is_empty()
        assert x.accesses == (x.reads | x.writes)

    def test_initial_writes(self, execution):
        for event in execution.initial_writes:
            assert event.is_init and event.is_write

    def test_tagged(self, execution):
        assert len(execution.tagged("wmb")) == 1
        assert len(execution.tagged("rmb")) == 1
        assert execution.tagged("acquire").is_empty()

    def test_event_set_builder(self, execution):
        some = execution.event_set(list(execution.events)[:2])
        assert len(some) == 2
        assert some.universe == execution.universe


class TestBaseRelations:
    def test_identity(self, execution):
        assert len(execution.identity) == len(execution.events)
        assert all(a == b for a, b in execution.identity.pairs)

    def test_loc_relation_matches_locations(self, execution):
        for a, b in execution.loc.pairs:
            assert a.loc == b.loc is not None

    def test_int_includes_identity(self, execution):
        for event in execution.events:
            assert (event, event) in execution.int_

    def test_ext_is_irreflexive(self, execution):
        assert execution.ext.is_irreflexive()

    def test_dep_is_addr_union_data(self, execution):
        assert execution.dep == (execution.addr | execution.data)

    def test_com_components(self, execution):
        assert execution.com == (execution.rf | execution.co | execution.fr)
        assert execution.rfi | execution.rfe == execution.rf
        assert execution.coi | execution.coe == execution.co
        assert execution.fri | execution.fre == execution.fr


class TestDisplay:
    def test_describe_lists_threads_and_relations(self, execution):
        text = execution.describe()
        assert "T0" in text and "T1" in text
        assert "rf:" in text and "co:" in text and "fr:" in text

    def test_sorted_events_by_thread_then_po(self, execution):
        events = execution.sorted_events()
        keys = [(e.tid, e.po_index) for e in events]
        assert keys == sorted(keys)

    def test_repr(self, execution):
        assert "MP+wmb+rmb" in repr(execution)


class TestFinalState:
    def test_memory_reflects_co_max(self, execution):
        state = execution.final_state
        assert state.memory == {"x": 1, "y": 1}

    def test_registers_present(self, execution):
        assert (1, "r0") in execution.final_state.registers
        assert (1, "r1") in execution.final_state.registers


def base_relations(execution):
    """``int``, ``ext``, ``loc``, ``id`` and the identities of the event
    sets of a fresh copy of ``execution``, built in the current kernel
    configuration."""
    copy = CandidateExecution(
        execution.events,
        execution.po,
        execution.addr,
        execution.data,
        execution.ctrl,
        execution.rmw,
        execution.rf,
        execution.co,
    )
    sets = (copy.reads, copy.writes, copy.fences, copy.initial_writes)
    return [copy.int_, copy.ext, copy.loc, copy.identity] + [
        events.identity() for events in sets
    ]


@pytest.mark.parametrize("name", library.all_names() + ["RCU-MP@2"])
def test_base_relations_equal_the_oracle(name):
    """Production builds these relations from per-thread and per-location
    masks; the oracle keeps their pair definitions."""
    if name == "RCU-MP@2":
        # The SC-per-location stream (64 candidates of 28 trace
        # combinations): the full one holds some 305k.
        program = inline_rcu(library.get("RCU-MP"), loop_bound=2)
        executions = candidate_executions(program, require_sc_per_location=True)
    else:
        executions = candidate_executions(library.get(name))
    for execution in executions:
        with use_oracle(False):
            production = base_relations(execution)
        with use_oracle(True):
            oracle = base_relations(execution)
        assert all(relation.rows is not None for relation in production)
        assert production == oracle
