"""E1 — Table 5: simulations vs experimental results.

Regenerates the paper's main results table: for each of the fifteen
litmus tests, the LK-model verdict, klitmus-style observation counts on
the four simulated machines, and the C11 verdict.

Absolute counts differ from the paper (their testbed ran each test up to
33G times on real silicon; we sample a randomised simulator), but the
shape must match exactly:

* the Model column equals the paper's verbatim;
* the C11 column equals the paper's verbatim;
* every test the model *forbids* is observed 0 times on every machine
  (experimental soundness — the paper's headline claim);
* every count the paper reports as non-zero is non-zero here too.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.hardware import run_klitmus
from repro.hardware.archspec import TABLE5_ARCHS
from repro.herd import run_litmus
from repro.litmus import library

from conftest import once, print_table

RUNS = 4000

#: sha256 of the 60 histograms at ``RUNS`` runs per cell (default seed),
#: each in first-occurrence order: any change to the schedule stream at
#: the paper's size changes it.
HISTOGRAMS_SHA256 = (
    "6e12dfd0314a2cc9b0b17e65e7f88a731c5a43e973db0a79f87ba3e87a54b989"
)

#: Cells Table 5 reports as non-zero observations.
PAPER_NONZERO = {
    ("WRC", "Power8"), ("WRC", "ARMv8"),
    ("SB", "Power8"), ("SB", "ARMv8"), ("SB", "ARMv7"), ("SB", "x86"),
    ("MP", "Power8"), ("MP", "ARMv8"), ("MP", "ARMv7"),
    ("PeterZ-No-Synchro", "Power8"), ("PeterZ-No-Synchro", "ARMv8"),
    ("PeterZ-No-Synchro", "ARMv7"), ("PeterZ-No-Synchro", "x86"),
    ("RWC", "Power8"), ("RWC", "ARMv8"), ("RWC", "ARMv7"), ("RWC", "x86"),
}


def build_table5(lkmm, c11):
    rows = []
    for name in library.TABLE5:
        program = library.get(name)
        model_verdict = run_litmus(lkmm, program).verdict
        counts = {}
        for arch in TABLE5_ARCHS:
            counts[arch] = run_klitmus(program, arch, runs=RUNS)
        if library.PAPER_VERDICTS[name]["C11"] is None:
            c11_verdict = "-"
        else:
            c11_verdict = run_litmus(c11, program).verdict
        rows.append((name, model_verdict, counts, c11_verdict))
    return rows


def histograms_sha256(rows) -> str:
    digest = hashlib.sha256()
    for name, _, counts, _ in rows:
        for arch in TABLE5_ARCHS:
            cells = [
                (
                    name,
                    arch,
                    sorted(state.registers.items()),
                    sorted(state.memory.items()),
                    count,
                )
                for state, count in counts[arch].histogram.items()
            ]
            digest.update(repr(cells).encode())
    return digest.hexdigest()


def test_table5(benchmark, lkmm, c11):
    rows = once(benchmark, lambda: build_table5(lkmm, c11))

    display = [
        (name, verdict, *(counts[a].summary() for a in TABLE5_ARCHS), c11v)
        for name, verdict, counts, c11v in rows
    ]
    print_table(
        "Table 5 (reproduced): simulations vs simulated-hardware results",
        ("Test", "Model", *TABLE5_ARCHS, "C11"),
        display,
    )

    for name, model_verdict, counts, c11_verdict in rows:
        paper = library.PAPER_VERDICTS[name]
        # Model column: verbatim.
        assert model_verdict == paper["LK"], name
        # C11 column: verbatim.
        expected_c11 = paper["C11"] if paper["C11"] is not None else "-"
        assert c11_verdict == expected_c11, name
        for arch in TABLE5_ARCHS:
            observed = counts[arch].observed
            if model_verdict == "Forbid":
                # Soundness: a forbidden behaviour is never observed.
                assert observed == 0, f"{name} observed on {arch}"
            if (name, arch) in PAPER_NONZERO:
                assert observed > 0, f"{name} not observed on {arch}"
    # The simulator replays the same schedules at the paper's size.
    assert histograms_sha256(rows) == HISTOGRAMS_SHA256


def test_table5_model_column_alone(benchmark, lkmm):
    """The Model column by itself (fast path, matches the paper 15/15)."""

    def column():
        return {
            name: run_litmus(lkmm, library.get(name)).verdict
            for name in library.TABLE5
        }

    verdicts = once(benchmark, column)
    for name, verdict in verdicts.items():
        assert verdict == library.PAPER_VERDICTS[name]["LK"]


def test_table5_c11_column_alone(benchmark, c11):
    """The C11 column by itself (13 comparable rows, matches 13/13)."""

    def column():
        return {
            name: run_litmus(c11, library.get(name)).verdict
            for name in library.TABLE5
            if library.PAPER_VERDICTS[name]["C11"] is not None
        }

    verdicts = once(benchmark, column)
    assert len(verdicts) == 13
    for name, verdict in verdicts.items():
        assert verdict == library.PAPER_VERDICTS[name]["C11"]
