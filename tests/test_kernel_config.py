"""Regression tests for :mod:`repro.kernel.config` env handling.

The kernel has one switch, ``REPRO_ORACLE``.  The config re-reads the
environment on every query (with a last-raw-value parse cache) and layers
a process-local override on top.  These tests exercise exactly the
behaviours a regression would break:

* ``monkeypatch.setenv`` changes take effect immediately, same process;
* every falsy spelling (and an unset variable) means production;
* the override beats the env and restores cleanly, including when
  nested and when the body raises;
* the relation representation and the enumerator actually follow.
"""

from __future__ import annotations

import pytest

from repro.executions.enumerate import candidate_executions
from repro.kernel import config
from repro.litmus import library
from repro.herd import run_litmus
from repro.lkmm import LinuxKernelModel
from repro.relations import Relation


@pytest.fixture(autouse=True)
def clean_override():
    """Each test starts (and its neighbours end) with no override."""
    config.set_oracle(None)
    yield
    config.set_oracle(None)


def _first_candidate():
    return next(iter(candidate_executions(library.get("SB"))))


class TestEnvReRead:
    def test_oracle_env_change_is_seen_immediately(self, monkeypatch):
        monkeypatch.setenv("REPRO_ORACLE", "1")
        assert config.oracle()
        monkeypatch.setenv("REPRO_ORACLE", "0")
        assert not config.oracle()
        monkeypatch.delenv("REPRO_ORACLE")
        assert not config.oracle()  # the default is production

    def test_incremental_env_change_is_seen_immediately(self, monkeypatch):
        """The oracle enumerates naively: no shared trace skeleton."""
        monkeypatch.setenv("REPRO_ORACLE", "1")
        assert _first_candidate()._shared is None
        monkeypatch.delenv("REPRO_ORACLE")
        assert _first_candidate()._shared is not None

    def test_env_value_is_normalised(self, monkeypatch):
        monkeypatch.setenv("REPRO_ORACLE", "  TRUE ")
        assert config.oracle()
        monkeypatch.setenv("REPRO_ORACLE", " Off ")
        assert not config.oracle()

    @pytest.mark.parametrize("falsy", ["0", "false", "no", "off", ""])
    def test_incremental_falsy_spellings(self, monkeypatch, falsy):
        """A falsy spelling keeps production, incremental enumeration
        included."""
        monkeypatch.setenv("REPRO_ORACLE", falsy)
        assert not config.oracle()
        assert _first_candidate()._shared is not None

    def test_relations_follow_env_per_case(self, monkeypatch):
        """The configuration toggles per test case, in-process.

        The bitset representation indexes events; the frozenset reference
        stores plain pairs.  Build one Relation under each env setting and
        check the representation actually switched.
        """
        events = frozenset()
        monkeypatch.setenv("REPRO_ORACLE", "1")
        reference = Relation([], events)
        monkeypatch.setenv("REPRO_ORACLE", "0")
        bitset = Relation([], events)
        assert reference._rows is None and reference._pairs == frozenset()
        assert bitset._rows is not None

    def test_verdict_invariant_across_env_backends(self, monkeypatch):
        """Same verdict under both env-selected configurations, one
        process."""
        model = LinuxKernelModel()
        program = library.get("MP+wmb+rmb")
        monkeypatch.setenv("REPRO_ORACLE", "1")
        reference = run_litmus(model, program)
        monkeypatch.setenv("REPRO_ORACLE", "0")
        fast = run_litmus(model, program)
        assert reference.verdict == fast.verdict == "Forbid"
        assert reference.candidates == fast.candidates


class TestOverrides:
    def test_override_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_ORACLE", "1")
        config.set_oracle(False)
        assert not config.oracle()
        config.set_oracle(None)
        assert config.oracle()

    def test_use_oracle_restores(self, monkeypatch):
        monkeypatch.setenv("REPRO_ORACLE", "0")
        with config.use_oracle():
            assert config.oracle()
        assert not config.oracle()

    def test_use_oracle_restores_on_error(self):
        before = config.oracle()
        with pytest.raises(RuntimeError):
            with config.use_oracle(not before):
                raise RuntimeError()
        assert config.oracle() == before

    def test_nested_use_oracle(self):
        before = config.oracle()
        with config.use_oracle(True):
            with config.use_oracle(False):
                assert not config.oracle()
            assert config.oracle()
        assert config.oracle() == before
