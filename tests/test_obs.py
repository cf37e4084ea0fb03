"""Tests for :mod:`repro.obs` — the observability layer itself.

The two load-bearing properties (ISSUE 4):

* **counter exactness across the pool** — a serial run and a merged
  parallel run of the same programs produce identical
  enumeration/judgement counters (``enumerate.*``, ``herd.*``,
  ``lkmm.*``); cache-occupancy counters (``skeleton.*``, ``bitrel.*``)
  are explicitly excluded, as workers build private caches;
* **span balance** — spans always close, even when the instrumented code
  raises, so :func:`repro.obs.active_spans` is empty after any observed
  block, and the per-name counts equal the number of spans entered.

Plus the supporting algebra: :class:`~repro.obs.RunReport` merge is
associative, serialisation round-trips, and the disabled path is a
no-op.
"""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.analysis.races import check_races
from repro.corpus.golden import load_golden
from repro.corpus.sweep import sweep_corpus
from repro.herd import run_litmus, verdicts
from repro.kernel.parallel import fault_tolerant_map
from repro.litmus import library
from repro.lkmm import LinuxKernelModel
from repro.obs import RunReport
from repro.tools import cli

GOLDEN_CORPUS = Path(__file__).parent / "data" / "golden_corpus.jsonl"

#: Counter namespaces whose totals must be exact across the pool.
EXACT_PREFIXES = ("enumerate.", "herd.", "lkmm.", "cat.")
#: Cache counters depend on per-process cache state; never compared.
#: ``enumerate.location_fates`` counts entries of the SC-per-location
#: sweep's memo, one memo per enumeration call.  The
#: ``cat.*_cache_*`` counters count loads through the per-process
#: model and file caches, which each worker fills afresh.
CACHE_PREFIXES = (
    "skeleton.",
    "bitrel.",
    "enumerate.location_fates",
    "cat.model_cache_",
    "cat.file_cache_",
)


def exact_counters(report: RunReport):
    return {
        name: n
        for name, n in report.counters.items()
        if name.startswith(EXACT_PREFIXES)
        and not name.startswith(CACHE_PREFIXES)
    }


# -- disabled path ----------------------------------------------------------


class TestDisabled:
    def test_disabled_by_default(self):
        assert not obs.enabled()
        assert obs.current() is None

    def test_span_is_shared_noop(self):
        first = obs.span("anything")
        second = obs.span("else")
        assert first is second  # the shared no-op singleton
        with first:
            assert obs.active_spans() == ()

    def test_count_and_gauge_are_noops(self):
        obs.count("never.recorded", 7)
        obs.gauge("never.recorded", 1.0)
        with obs.collect() as collector:
            pass
        assert collector.counters == {}


# -- collection basics ------------------------------------------------------


class TestCollect:
    def test_counters_gauges_spans(self):
        with obs.collect() as collector:
            assert obs.enabled()
            obs.count("a", 2)
            obs.count("a")
            obs.gauge("g", 4)
            with obs.span("outer"):
                with obs.span("inner"):
                    assert obs.active_spans() == ("outer", "inner")
        assert not obs.enabled()
        report = collector.report()
        assert report.counters == {"a": 3}
        assert report.gauges == {"g": 4}
        assert report.spans["outer"]["count"] == 1
        assert report.spans["inner"]["count"] == 1
        assert report.spans["inner"]["total_s"] <= report.spans["outer"]["total_s"]

    def test_nested_collect_shadows_outer(self):
        with obs.collect() as outer:
            obs.count("outer.only")
            with obs.collect() as inner:
                obs.count("inner.only")
            assert obs.current() is outer
            obs.count("outer.only")
        assert outer.counters == {"outer.only": 2}
        assert inner.counters == {"inner.only": 1}

    def test_trace_records_depth_and_parent(self):
        with obs.collect(trace=True) as collector:
            with obs.span("outer"):
                with obs.span("inner"):
                    pass
        events = collector.report().trace
        by_name = {event["name"]: event for event in events}
        assert by_name["inner"]["depth"] == 1
        assert by_name["inner"]["parent"] == "outer"
        assert by_name["outer"]["depth"] == 0
        assert by_name["outer"]["parent"] is None

    def test_no_trace_by_default(self):
        with obs.collect() as collector:
            with obs.span("s"):
                pass
        assert collector.report().trace == []


# -- span balance under exceptions ------------------------------------------


class Boom(RuntimeError):
    pass


class RaisingModel(LinuxKernelModel):
    """An LK model whose judgement blows up mid-check, on both ``check``
    and the ``allows`` path herd takes: both draw on ``violations``."""

    def violations(self, execution, relations=None):
        with obs.span("raising.check"):
            raise Boom("mid-span failure")


class TestSpanBalance:
    def test_balance_after_direct_raise(self):
        with obs.collect() as collector:
            with pytest.raises(Boom):
                with obs.span("a"), obs.span("b"):
                    raise Boom()
        assert obs.active_spans() == ()
        report = collector.report()
        assert report.spans["a"]["count"] == 1
        assert report.spans["b"]["count"] == 1

    def test_balance_when_model_check_raises(self, mp_program):
        """A model raising inside ``herd.run`` leaves no dangling spans."""
        with obs.collect() as collector:
            with pytest.raises(Boom):
                run_litmus(RaisingModel(), mp_program)
        assert obs.active_spans() == ()
        report = collector.report()
        # The spans that were open at the raise all still closed exactly
        # as often as they opened.
        assert report.spans["raising.check"]["count"] == 1
        assert report.spans["herd.run"]["count"] == 1

    span_trees = st.recursive(
        st.tuples(st.sampled_from("abcd"), st.booleans()).map(
            lambda leaf: (leaf[0], leaf[1], ())
        ),
        lambda children: st.tuples(
            st.sampled_from("abcd"),
            st.booleans(),
            st.lists(children, max_size=3),
        ),
        max_leaves=12,
    )

    @given(tree=span_trees)
    @settings(max_examples=60, deadline=None)
    def test_spans_balance_for_random_trees(self, tree):
        """Replaying any span tree — raising nodes included — balances."""
        entered = []

        def execute(node):
            name, raises, children = node
            entered.append(name)
            with obs.span(name):
                for child in children:
                    try:
                        execute(child)
                    except Boom:
                        pass  # a sibling failing must not unbalance us
                if raises:
                    raise Boom(name)

        with obs.collect() as collector:
            try:
                execute(tree)
            except Boom:
                pass
        assert obs.active_spans() == ()
        report = collector.report()
        total_recorded = sum(
            stat["count"] for stat in report.spans.values()
        )
        assert total_recorded == len(entered)


# -- RunReport algebra -------------------------------------------------------

# total_s drawn from exact binary fractions so float addition stays
# associative and merge equality can be exact.
span_stats = st.fixed_dictionaries(
    {
        "count": st.integers(min_value=0, max_value=100),
        "total_s": st.integers(min_value=0, max_value=1 << 20).map(
            lambda n: n / 1024.0
        ),
        "max_s": st.integers(min_value=0, max_value=1 << 20).map(
            lambda n: n / 1024.0
        ),
    }
)
names = st.text(
    alphabet="abcdefgh.", min_size=1, max_size=12
)
reports = st.builds(
    RunReport,
    counters=st.dictionaries(names, st.integers(-1000, 1000), max_size=5),
    gauges=st.dictionaries(names, st.integers(0, 100), max_size=3),
    spans=st.dictionaries(names, span_stats, max_size=5),
)


class TestRunReport:
    @given(a=reports, b=reports, c=reports)
    @settings(max_examples=80, deadline=None)
    def test_merge_is_associative(self, a, b, c):
        left = (
            RunReport.from_dict(a.to_dict())
            .merge(RunReport.from_dict(b.to_dict()))
            .merge(RunReport.from_dict(c.to_dict()))
        )
        right = RunReport.from_dict(a.to_dict()).merge(
            RunReport.from_dict(b.to_dict()).merge(
                RunReport.from_dict(c.to_dict())
            )
        )
        assert left.counters == right.counters
        assert left.spans == right.spans

    @given(report=reports)
    @settings(max_examples=60, deadline=None)
    def test_merge_identity(self, report):
        merged = RunReport().merge(RunReport.from_dict(report.to_dict()))
        assert merged.to_dict() == report.to_dict()

    @given(report=reports)
    @settings(max_examples=60, deadline=None)
    def test_json_round_trip(self, report):
        assert (
            RunReport.from_json(report.to_json()).to_dict()
            == report.to_dict()
        )

    def test_absorb_matches_merge(self):
        """Collector.absorb (the worker fan-in path) agrees with merge."""
        worker = RunReport(
            counters={"x": 2},
            spans={"s": {"count": 1, "total_s": 0.5, "max_s": 0.5}},
        )
        with obs.collect() as collector:
            obs.count("x", 1)
            obs.absorb(worker.to_dict())
            obs.absorb(worker.to_dict())
        report = collector.report()
        assert report.counters == {"x": 5}
        assert report.spans["s"]["count"] == 2
        assert report.spans["s"]["total_s"] == pytest.approx(1.0)

    def test_format_profile_mentions_everything(self):
        report = RunReport(
            counters={"enumerate.candidates": 4},
            gauges={"parallel.jobs": 2},
            spans={"herd.run": {"count": 1, "total_s": 0.25, "max_s": 0.25}},
        )
        text = report.format_profile()
        assert "herd.run" in text
        assert "enumerate.candidates" in text
        assert "parallel.jobs" in text

    def test_format_profile_empty(self):
        assert RunReport().format_profile() == "(no observations recorded)"


# -- counter exactness across the kernel.parallel pool ---------------------


class TestShardingExactness:
    @pytest.mark.parametrize(
        "caller", ["verdicts", "sweep_corpus", "race_reports", "repro_herd"]
    )
    def test_program_distribution_counters_match_serial(self, lkmm, caller):
        """Every program-per-task caller brings its workers' counters home."""
        if caller == "verdicts":
            programs = [library.get("SB"), library.get("MP+wmb+rmb")]

            def run(jobs):
                return verdicts([lkmm], programs, jobs=jobs)

        elif caller == "sweep_corpus":
            tests = [test for test, _ in load_golden(GOLDEN_CORPUS)[::100]]

            def run(jobs):
                return sweep_corpus(tests, jobs=jobs).matrix

        elif caller == "race_reports":
            programs = [library.get(name) for name in ("MP", "SB", "LB")]

            def run(jobs):
                reports = fault_tolerant_map(check_races, programs, jobs)
                return [report.racy for report in reports]

        else:
            programs = [library.get(name) for name in ("SB", "MP+wmb+rmb")]

            def run(jobs):
                results = fault_tolerant_map(
                    cli._herd_task, [(lkmm, p) for p in programs], jobs
                )
                return [result.describe() for result in results]

        with obs.collect() as serial:
            serial_table = run(1)
        with obs.collect() as parallel:
            parallel_table = run(2)
        assert serial_table == parallel_table
        assert exact_counters(serial.report())
        assert exact_counters(serial.report()) == exact_counters(
            parallel.report()
        )

    def test_cache_counters_are_process_local(self, lkmm, sb_program):
        """The exactness claim deliberately excludes cache counters."""
        from repro.kernel import config

        with obs.collect() as collector:
            run_litmus(lkmm, sb_program)
        cache_keys = [
            name
            for name in collector.report().counters
            if name.startswith(CACHE_PREFIXES)
        ]
        # The kernel caches only run in production; when
        # they do, their counters exist (the suite would silently lose
        # coverage if instrumentation was dropped) but are not part of
        # exact_counters().
        if not config.oracle():
            assert cache_keys
        assert not any(
            name.startswith(CACHE_PREFIXES)
            for name in exact_counters(collector.report())
        )
