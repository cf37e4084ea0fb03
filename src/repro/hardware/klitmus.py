"""The klitmus-style harness: run a test many times, histogram outcomes.

The paper's Table 5 reports, for each test and machine, how many times the
target behaviour was observed over how many runs (``741k/7.7G``).  This
harness produces the same kind of row from the operational simulator:
compile the LK test for the architecture, run it ``runs`` times under a
randomised scheduler, and count the final states matching the test's
``exists`` clause.

As in the paper, a behaviour *observed* here but *forbidden* by the LK
model indicates a bug (in the model, the compilation, or the simulator) —
that check is the soundness experiment (``benchmarks/test_soundness.py``).
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Dict, Optional

from repro.hardware.archspec import ArchSpec, get_arch
from repro.hardware.compile import compile_program
from repro.hardware.opsim import OperationalSimulator
from repro.litmus.ast import Program
from repro.litmus.outcomes import FinalState


@dataclass
class KlitmusResult:
    """The outcome of one test on one (simulated) machine."""

    test_name: str
    arch_name: str
    runs: int
    #: Final states and their frequencies.
    histogram: Dict[FinalState, int]
    #: Runs whose final state matched the test's target condition.
    observed: int

    def summary(self) -> str:
        """Table-5-style cell: ``observed/runs``."""
        return f"{_si(self.observed)}/{_si(self.runs)}"

    def describe(self) -> str:
        lines = [
            f"{self.test_name} on {self.arch_name}: "
            f"{self.summary()} target observations"
        ]
        for state, count in sorted(
            self.histogram.items(), key=lambda kv: -kv[1]
        ):
            regs = ", ".join(
                f"{tid}:{name}={value!r}"
                for (tid, name), value in sorted(state.registers.items())
                if not name.startswith("__")
            )
            lines.append(f"  {count:8d}  {regs}")
        return "\n".join(lines)


def _si(n: int) -> str:
    """Format counts the way Table 5 does (k, M, G suffixes)."""
    if n >= 10**9:
        return f"{n / 10**9:.1f}G".replace(".0G", "G")
    if n >= 10**6:
        return f"{n / 10**6:.1f}M".replace(".0M", "M")
    if n >= 10**3:
        return f"{n / 10**3:.1f}k".replace(".0k", "k")
    return str(n)


def run_klitmus(
    program: Program,
    arch: ArchSpec | str,
    runs: int = 5000,
    seed: int = 0,
    rng: Optional[random.Random] = None,
) -> KlitmusResult:
    """Compile ``program`` for ``arch`` and sample ``runs`` executions.

    Deterministic for a fixed ``seed``: all scheduling randomness flows
    through one explicit rng.  Pass ``rng`` to inject a schedule stream
    directly (it then takes precedence over ``seed``).
    """
    if isinstance(arch, str):
        arch = get_arch(arch)
    compiled = compile_program(program, arch, rcu="keep")
    simulator = OperationalSimulator(compiled, arch)
    if rng is None:
        # Derive a distinct stream per (test, machine) so different columns
        # of the results table don't replay the same schedule sequence.
        # crc32 is stable across processes (unlike hash(), which is salted).
        derived_seed = zlib.crc32(
            f"{seed}:{arch.name}:{program.name}".encode()
        )
        rng = random.Random(derived_seed)
    histogram = simulator.sample(runs, rng=rng)

    condition = program.condition
    observed = 0
    if condition is not None:
        observed = sum(
            count
            for state, count in histogram.items()
            if condition.evaluate(state)
        )
    return KlitmusResult(
        test_name=program.name,
        arch_name=arch.name,
        runs=runs,
        histogram=histogram,
        observed=observed,
    )
