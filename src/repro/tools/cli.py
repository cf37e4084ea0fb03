"""Command-line entry points mirroring the paper's tool-suite.

* ``repro-herd`` — run litmus tests against a model (like herd7):
  ``repro-herd --model lkmm MP+wmb+rmb test.litmus ...``
* ``repro-klitmus`` — run tests on a simulated machine, many times (like
  klitmus): ``repro-klitmus --arch Power8 --runs 10000 SB``
* ``repro-diy`` — generate a litmus test from a cycle of edges (like
  diy7): ``repro-diy Rfe RmbdRR Fre WmbdWW``
* ``repro-lint`` — static analysis over cat models and litmus tests:
  ``repro-lint --all-models --library``, ``repro-lint my.cat my.litmus``
* ``repro-corpus`` — corpus-scale generation and differential mining:
  ``repro-corpus generate --seed 0 --target 10000 -o corpus.jsonl``,
  then ``sweep``, ``mine``, ``report`` and ``freeze`` over it.

Test arguments are either names from the built-in library or paths to
litmus files.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro import obs
from repro.cat import load_model
from repro.executions.enumerate import candidate_executions
from repro.guard import Budget, SweepJournal
from repro.guard.core import detached, rearm
from repro.herd import INCONCLUSIVE, RunResult, run_litmus
from repro.kernel import config as kernel_config
from repro.litmus import library
from repro.litmus.ast import LitmusError, Program, check_condition
from repro.litmus.parser import ParseError, parse_litmus
from repro.litmus.writer import program_digest
from repro.lkmm import LinuxKernelModel, explain_forbidden

#: Exit statuses for ``repro-herd``: distinguish "the run worked but a
#: budget left some verdict unsettled" (retryable with a bigger budget)
#: from usage/parse errors.
EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3


class CliError(Exception):
    """A user-input problem (bad test name, unparsable file)."""


def _resolve_tests(names: List[str]) -> List[Program]:
    """The named tests, each checked to have a condition a verdict allows."""
    programs = []
    for name in names:
        path = Path(name)
        try:
            if path.exists():
                program = parse_litmus(path.read_text(), path=str(path))
            else:
                program = library.get(name)
            check_condition(program)
            programs.append(program)
        except (ParseError, LitmusError) as error:
            raise CliError(str(error)) from error
        except KeyError as error:
            message = error.args[0] if error.args else str(error)
            raise CliError(f"{name}: {message}") from error
        except OSError as error:
            raise CliError(f"{name}: {error}") from error
    return programs


def _resolve_model(name: str):
    if name in ("lkmm-native", "native"):
        return LinuxKernelModel()
    return load_model(name)


def _add_obs_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--profile",
        action="store_true",
        help="collect span timings and search counters; print a profile "
        "table after the run",
    )
    parser.add_argument(
        "--trace-json",
        metavar="FILE",
        help="write the full observability report (counters, span stats, "
        "raw span trace) as JSON to FILE",
    )
    parser.add_argument(
        "--bench",
        action="store_true",
        help="print an execution-kernel summary after the run: per-opcode "
        "bytecode-VM counts, prelude sharing, early exits, pool reuse",
    )


def _observe(args) -> "contextlib.AbstractContextManager":
    """An ``obs.collect`` context when ``--profile``/``--trace-json``/
    ``--bench`` asks for one, else a no-op context yielding ``None``."""
    if args.profile or args.trace_json or getattr(args, "bench", False):
        return obs.collect(trace=bool(args.trace_json))
    return contextlib.nullcontext()


def _format_vm_bench(report) -> str:
    """The ``--bench`` summary: where the bytecode VM spent its opcodes."""
    counters = report.counters
    lines = [
        "kernel bench:",
        f"  kernel = {'oracle' if kernel_config.oracle() else 'production'}",
    ]
    ops = sorted(
        (
            (name[len("vm.op."):], hits)
            for name, hits in counters.items()
            if name.startswith("vm.op.")
        ),
        key=lambda pair: (-pair[1], pair[0]),
    )
    if ops:
        width = max(len(op) for op, _ in ops)
        for op, hits in ops:
            lines.append(f"  vm.op.{op.ljust(width)} {hits}")
    else:
        lines.append(
            "  (no bytecode executed: REPRO_ORACLE=1, a native model, "
            "or the model fell back to the statement walker)"
        )
    for name in (
        "vm.runs",
        "vm.early_exit",
        "vm.stages_skipped",
        "vm.prelude_builds",
        "vm.prelude_hits",
        "herd.early_exit",
        "parallel.pool_spawn",
        "parallel.pool_reuse",
    ):
        if name in counters:
            lines.append(f"  {name} = {counters[name]}")
        elif name in ("vm.early_exit", "vm.stages_skipped") and (
            "vm.runs" in counters
        ):
            # Staged early exit: zero is a result once the VM has run.
            lines.append(f"  {name} = 0")
    # Fallbacks from the VM to the statement walker (models the IR
    # compiler rejects): printed even at zero, the expected value.
    fallbacks = counters.get("cat.fallback.unlowerable", 0)
    lines.append(f"  cat.fallback.unlowerable = {fallbacks}")
    return "\n".join(lines)


def _emit_observations(args, collector: Optional[obs.Collector]) -> None:
    if collector is None:
        return
    report = collector.report()
    if args.profile:
        print(report.format_profile())
    if getattr(args, "bench", False):
        print(_format_vm_bench(report))
    if args.trace_json:
        Path(args.trace_json).write_text(report.to_json() + "\n")
        print(f"wrote trace to {args.trace_json}")


def herd_main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-herd",
        description="Run litmus tests against a consistency model.",
    )
    parser.add_argument(
        "--model",
        default="lkmm",
        help="model name: lkmm (cat), lkmm-native, lkmm-core, c11, sc, "
        "tso, power, armv8, armv7, alpha",
    )
    parser.add_argument(
        "--explain",
        action="store_true",
        help="explain why the target behaviour is forbidden (LKMM only)",
    )
    parser.add_argument(
        "--states",
        action="store_true",
        help="print the histogram of reachable final states, herd-style",
    )
    parser.add_argument(
        "--check-races",
        action="store_true",
        help="also classify each test as Racy / Race-free (LKMM-derived "
        "data-race detector over plain accesses)",
    )
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=1,
        metavar="N",
        help="run the tests on N worker processes, one test per task",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget per test; an exhausted budget degrades "
        "the verdict to Inconclusive (exit status 3) instead of hanging",
    )
    parser.add_argument(
        "--max-candidates",
        type=int,
        default=None,
        metavar="N",
        help="stop each test after N candidate executions",
    )
    parser.add_argument(
        "--max-states",
        type=int,
        default=None,
        metavar="N",
        help="stop each test after N exploration steps (bounds runs that "
        "prune heavily without yielding candidates)",
    )
    parser.add_argument(
        "--max-mem",
        type=float,
        default=None,
        metavar="MB",
        help="soft resident-memory ceiling in MB, sampled at safepoints",
    )
    parser.add_argument(
        "--journal",
        metavar="FILE",
        help="checkpoint completed verdicts to FILE (JSON lines) and skip "
        "tests already journaled there — an interrupted sweep resumes "
        "instead of restarting",
    )
    parser.add_argument(
        "--static-only",
        action="store_true",
        help="consult only the symbolic critical-cycle prover: print each "
        "test's statically decided verdict (with its proof reason) or "
        "Unknown, without a full candidate enumeration",
    )
    _add_obs_arguments(parser)
    parser.add_argument("tests", nargs="+", help="library names or file paths")
    args = parser.parse_args(argv)

    budget = Budget(
        wall_seconds=args.timeout,
        max_candidates=args.max_candidates,
        max_states=args.max_states,
        max_mem_mb=args.max_mem,
    )
    if not budget.bounded():
        budget = None

    if args.explain and args.model not in ("lkmm", "lkmm-native", "native"):
        print(
            f"repro-herd: --explain is LKMM only, not --model {args.model}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    try:
        model = _resolve_model(args.model)
        programs = _resolve_tests(args.tests)
    except CliError as error:
        print(f"repro-herd: {error}", file=sys.stderr)
        return EXIT_USAGE

    if args.static_only:
        from repro.analysis.symbolic import decide

        decided = 0
        with _observe(args) as collector:
            for program in programs:
                decision = decide(model, program)
                if decision is None:
                    print(f"{program.name} under {model.name}: Unknown")
                else:
                    decided += 1
                    print(
                        f"{program.name} under {model.name}: "
                        f"{decision.describe()}"
                    )
        print(f"static coverage: {decided}/{len(programs)} decided")
        _emit_observations(args, collector)
        return EXIT_OK

    from repro.kernel.parallel import fault_tolerant_map

    journal = (
        SweepJournal(Path(args.journal), [model.name])
        if args.journal
        else None
    )
    printed = 0
    inconclusive = 0

    def flush() -> None:
        nonlocal printed
        while printed < len(programs) and outcomes[printed] is not None:
            _print_outcome(args, model, programs[printed], outcomes[printed])
            printed += 1

    def land(slot: int, result: RunResult) -> None:
        nonlocal inconclusive
        index = pending[slot]
        outcomes[index] = result
        if result.verdict == INCONCLUSIVE:
            inconclusive += 1
        if journal is not None:
            program = programs[index]
            journal.record(
                program.name,
                {model.name: result.verdict},
                digest=program_digest(program),
            )
        # --explain and --check-races enumerate here, in this process,
        # outside the per-test budget armed around the map.
        with detached():
            flush()

    with _observe(args) as collector:
        # One slot per test, in input order: its journaled row, its
        # RunResult once it lands, or None while it is still running.
        outcomes: List[Union[Dict[str, str], RunResult, None]] = [
            None
            if journal is None
            else journal.completed(program.name, program_digest(program))
            for program in programs
        ]
        pending = [index for index, row in enumerate(outcomes) if row is None]
        # Armed around the map, the budget is spent per test at any --jobs.
        with rearm(budget):
            fault_tolerant_map(
                _herd_task,
                [(model, programs[index]) for index in pending],
                args.jobs,
                on_result=land,
            )
        flush()
    _emit_observations(args, collector)
    return EXIT_INCONCLUSIVE if inconclusive else EXIT_OK


def _herd_task(payload) -> RunResult:
    """One ``repro-herd`` test (a module-level, picklable task)."""
    model, program = payload
    return run_litmus(model, program)


def _print_outcome(
    args, model, program: Program, outcome: Union[Dict[str, str], RunResult]
) -> None:
    """Print one test's ``repro-herd`` lines: a journaled row, or a run
    with its ``--check-races``, ``--states`` and ``--explain`` output."""
    if not isinstance(outcome, RunResult):
        print(
            f"{program.name} under {model.name}: "
            f"{outcome[model.name]} (journaled)"
        )
        return
    print(outcome.describe())
    if args.check_races:
        from repro.analysis.races import check_races

        race_model = (
            model
            if isinstance(model, LinuxKernelModel)
            else LinuxKernelModel()
        )
        print(check_races(program, model=race_model).describe())
    if args.states:
        print(f"States {len(outcome.states)}")
        for state in sorted(outcome.states, key=repr):
            registers = "; ".join(
                f"{tid}:{name}={value!r}"
                for (tid, name), value in sorted(state.registers.items())
                if not name.startswith("__")
            )
            print(f"  {registers}")
        print(f"Observation {program.name} {outcome.observation}")
    if args.explain and outcome.verdict == "Forbid":
        witness = outcome.forbidden_witness or _first_match(program)
        if witness is not None:
            print(explain_forbidden(witness))


def _first_match(program: Program):
    """The first condition-matching candidate of the unfiltered stream:
    an SC-per-location sweep never enumerates the forbidden matches that
    violate it, which are all the Co* tests have."""
    condition = program.condition
    return next(
        (
            execution
            for execution in candidate_executions(program)
            if condition is None or condition.evaluate(execution.final_state)
        ),
        None,
    )


def klitmus_main(argv: List[str] | None = None) -> int:
    from repro.hardware import run_klitmus
    from repro.hardware.archspec import ARCHITECTURES

    parser = argparse.ArgumentParser(
        prog="repro-klitmus",
        description="Run litmus tests on a simulated machine, klitmus-style.",
    )
    parser.add_argument(
        "--arch",
        default="Power8",
        choices=sorted(ARCHITECTURES),
        help="simulated machine",
    )
    parser.add_argument("--runs", type=int, default=5000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--histogram", action="store_true", help="print the full histogram"
    )
    parser.add_argument("tests", nargs="+", help="library names or file paths")
    args = parser.parse_args(argv)

    try:
        programs = _resolve_tests(args.tests)
    except CliError as error:
        print(f"repro-klitmus: {error}", file=sys.stderr)
        return EXIT_USAGE
    for program in programs:
        result = run_klitmus(
            program, args.arch, runs=args.runs, seed=args.seed
        )
        if args.histogram:
            print(result.describe())
        else:
            print(
                f"{program.name} on {args.arch}: {result.summary()} "
                "target observations"
            )
    return 0


def diy_main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-diy",
        description="Generate a litmus test from a cycle of relaxation edges.",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="also run the generated test against the LK model",
    )
    parser.add_argument(
        "-o",
        "--output",
        metavar="FILE",
        help="write the generated test as a C litmus file",
    )
    parser.add_argument("edges", nargs="+", help="e.g. Rfe RmbdRR Fre WmbdWW")
    args = parser.parse_args(argv)

    from repro.diy import generate
    from repro.litmus.writer import write_litmus

    program = generate(args.edges)
    if args.output:
        Path(args.output).write_text(write_litmus(program))
        print(f"wrote {program.name} to {args.output}")
    else:
        print(write_litmus(program), end="")
    if args.check:
        result = run_litmus(LinuxKernelModel(), program)
        print(result.describe())
    return 0


def lint_main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="Static analysis: lint cat models and litmus tests, "
        "optionally race-classify litmus tests.",
    )
    parser.add_argument(
        "--all-models",
        action="store_true",
        help="lint every cat model shipped in repro/cat/models/",
    )
    parser.add_argument(
        "--models",
        action="store_true",
        help="compile every bundled cat model to the relational IR and "
        "print the summary report plus all (surface + semantic) findings",
    )
    parser.add_argument(
        "--diff-models",
        nargs=2,
        metavar=("A", "B"),
        help="structurally compare two bundled cat models (e.g. "
        "--diff-models lkmm lkmm-core) and print the report",
    )
    parser.add_argument(
        "--library",
        action="store_true",
        help="lint every litmus test in the built-in library",
    )
    parser.add_argument(
        "--races",
        action="store_true",
        help="also run the execution-level data-race detector on every "
        "linted litmus test (slower: enumerates candidate executions)",
    )
    parser.add_argument(
        "--static-verdicts",
        action="store_true",
        help="report the symbolic prover's decided/unknown coverage over "
        "the litmus library (LIT007/LIT008 info findings, one coverage "
        "row per golden model)",
    )
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=1,
        metavar="N",
        help="race-classify litmus tests on N worker processes",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format: human-readable text (default), a JSON "
        "findings document, or SARIF 2.1.0 for code-scanning UIs",
    )
    _add_obs_arguments(parser)
    parser.add_argument(
        "targets",
        nargs="*",
        help="explicit .cat / .litmus files, or library test names",
    )
    args = parser.parse_args(argv)

    from repro.analysis.catlint import lint_all_models, lint_cat_path
    from repro.cat.parser import CatParseError
    from repro.analysis.findings import (
        count_errors,
        findings_to_json,
        findings_to_sarif,
    )
    from repro.analysis.litmuslint import lint_library, lint_program

    if args.diff_models:
        from repro.analysis.catir.diff import diff_models
        from repro.cat.eval import CatError

        try:
            diff = diff_models(args.diff_models[0], args.diff_models[1])
        except CatError as error:
            print(f"repro-lint: {error}", file=sys.stderr)
            return 2
        print(diff.describe(), end="")
        return 0

    if args.models:
        from repro.analysis.catir.diff import models_report

        print(models_report())
        args.all_models = True

    if (
        not args.all_models
        and not args.library
        and not args.targets
        and not args.static_verdicts
    ):
        args.all_models = True
        args.library = True

    findings = []
    race_targets: List[Program] = []
    racy = 0

    with _observe(args) as collector:
        if args.static_verdicts:
            from repro.analysis.symbolic.report import (
                coverage_findings,
                library_coverage,
            )

            with obs.span("lint.static_verdicts"):
                findings.extend(coverage_findings(library_coverage()))
        if args.all_models:
            with obs.span("lint.cat_models"):
                for model_findings in lint_all_models().values():
                    findings.extend(model_findings)
        if args.library:
            with obs.span("lint.library"):
                for name, test_findings in lint_library().items():
                    findings.extend(test_findings)
            if args.races:
                race_targets.extend(
                    library.get(name) for name in library.all_names()
                )
        for target in args.targets:
            path = Path(target)
            try:
                if path.suffix == ".cat":
                    findings.extend(lint_cat_path(path))
                else:
                    if path.exists():
                        program = parse_litmus(path.read_text(), path=str(path))
                    else:
                        program = library.get(target)
                    findings.extend(lint_program(program))
                    if args.races:
                        race_targets.append(program)
            except (ParseError, CatParseError) as error:
                # Parse errors are already located (path:line:col).
                print(f"repro-lint: {error}", file=sys.stderr)
                return 2
            except (KeyError, OSError) as error:
                # str(KeyError) wraps the message in quotes; unwrap it.
                if isinstance(error, KeyError) and error.args:
                    message = error.args[0]
                else:
                    message = str(error)
                print(f"repro-lint: {target}: {message}", file=sys.stderr)
                return 2

        from repro.analysis.races import check_races
        from repro.kernel.parallel import fault_tolerant_map

        with obs.span("lint.races"):
            race_reports = fault_tolerant_map(
                check_races, race_targets, args.jobs
            )
        for report in race_reports:
            findings.extend(report.findings())
            if report.racy:
                racy += 1
    _emit_observations(args, collector)

    if args.format == "json":
        print(findings_to_json(findings))
    elif args.format == "sarif":
        print(findings_to_sarif(findings))
    else:
        for finding in findings:
            print(finding.describe())
        if args.races:
            for report in race_reports:
                print(report.describe())
        if findings:
            print(
                f"{len(findings)} finding(s), "
                f"{count_errors(findings)} error(s), {racy} racy test(s)"
            )
        else:
            print("clean")

    # Warnings inform; only error-severity findings (data races included,
    # as RACE001 is an error) gate the exit status.
    return 1 if count_errors(findings) else 0


def _parse_thread_counts(text: str) -> List[int]:
    try:
        counts = sorted({int(part) for part in text.split(",") if part})
    except ValueError as error:
        raise CliError(f"bad --threads value {text!r}") from error
    if not counts or any(t < 2 for t in counts):
        raise CliError("--threads wants a comma list of counts >= 2")
    return counts


def _load_corpus_file(path: Path):
    """Corpus JSONL -> CorpusTest list (or CliError)."""
    import json

    from repro.corpus import CorpusTest

    try:
        lines = path.read_text().splitlines()
    except OSError as error:
        raise CliError(f"{path}: {error}") from error
    tests = []
    for number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            tests.append(CorpusTest.from_json(json.loads(line)))
        except (ValueError, KeyError, ParseError) as error:
            raise CliError(f"{path}:{number}: {error}") from error
    return tests


def _load_matrix_file(path: Path):
    """Matrix JSON (as written by ``sweep -o``) -> (models, matrix)."""
    import json

    try:
        document = json.loads(path.read_text())
    except (OSError, ValueError) as error:
        raise CliError(f"{path}: {error}") from error
    if not isinstance(document, dict) or "matrix" not in document:
        raise CliError(f"{path}: not a sweep matrix file")
    return document.get("models", []), document["matrix"]


def _sweep_result_from_files(corpus_path: Path, matrix_path: Path):
    """Rehydrate a :class:`SweepResult` for the mine/report/freeze verbs."""
    from repro.corpus import SweepResult

    tests = _load_corpus_file(corpus_path)
    _, matrix = _load_matrix_file(matrix_path)
    result = SweepResult()
    result.tests = {test.name: test for test in tests}
    unknown = set(matrix) - set(result.tests)
    if unknown:
        example = sorted(unknown)[0]
        raise CliError(
            f"{matrix_path}: {len(unknown)} matrix row(s) missing from "
            f"{corpus_path} (e.g. {example!r}) — corpus/matrix mismatch"
        )
    result.matrix = {name: dict(row) for name, row in matrix.items()}
    return result


def corpus_main(argv: List[str] | None = None) -> int:
    """``repro-corpus``: the generate | sweep | mine | report pipeline."""
    parser = argparse.ArgumentParser(
        prog="repro-corpus",
        description="Corpus-scale litmus generation and differential "
        "data-mining: generate a deterministic test corpus, sweep it "
        "under the full model battery, mine the disagreements, render "
        "the stress report, freeze the golden sample.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def _add_generation(p, target_default):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument(
            "--target",
            type=int,
            default=target_default,
            metavar="N",
            help="number of tests to draw from the deterministic stream",
        )
        p.add_argument(
            "--threads",
            default="2,3,4,5",
            metavar="LIST",
            help="comma list of thread counts (default 2,3,4,5)",
        )

    gen = sub.add_parser(
        "generate",
        help="emit unique, lint-clean litmus tests deterministically",
    )
    _add_generation(gen, target_default=10000)
    gen.add_argument(
        "-o",
        "--output",
        metavar="FILE",
        help="write the corpus as JSON lines (default: stdout summary "
        "with per-family counts only)",
    )
    gen.add_argument(
        "--litmus-dir",
        metavar="DIR",
        help="additionally write each test as DIR/<name>.litmus",
    )

    swp = sub.add_parser(
        "sweep",
        help="judge a corpus under the model battery, resumably",
    )
    swp.add_argument(
        "--corpus",
        metavar="FILE",
        help="corpus JSONL from `generate -o` (default: regenerate from "
        "--seed/--target/--threads)",
    )
    _add_generation(swp, target_default=500)
    swp.add_argument("--jobs", "-j", type=int, default=1, metavar="N")
    swp.add_argument(
        "--journal",
        metavar="FILE",
        help="checkpoint completed rows to FILE and resume from it",
    )
    swp.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-row wall budget (tripped rows degrade to Inconclusive)",
    )
    swp.add_argument(
        "--wall",
        type=float,
        default=None,
        metavar="SECONDS",
        help="whole-sweep wall budget; on expiry the queued tail is "
        "abandoned and the partial matrix returned (resume via --journal)",
    )
    swp.add_argument(
        "-o",
        "--output",
        metavar="FILE",
        help="write the verdict matrix as JSON (default: stdout summary)",
    )
    _add_obs_arguments(swp)

    def _add_mining_inputs(p):
        p.add_argument("--corpus", required=True, metavar="FILE")
        p.add_argument(
            "--matrix",
            required=True,
            metavar="FILE",
            help="verdict matrix from `sweep -o`",
        )

    mine_p = sub.add_parser(
        "mine", help="classify the matrix by disagreement signature"
    )
    _add_mining_inputs(mine_p)

    rep = sub.add_parser("report", help="render STRESS_REPORT.md")
    _add_mining_inputs(rep)
    rep.add_argument(
        "-o", "--output", default="STRESS_REPORT.md", metavar="FILE"
    )

    frz = sub.add_parser(
        "freeze",
        help="freeze the stratified golden sample with locked verdicts",
    )
    _add_mining_inputs(frz)
    frz.add_argument("--size", type=int, default=500, metavar="N")
    frz.add_argument("--seed", type=int, default=0)
    frz.add_argument(
        "-o",
        "--output",
        default="tests/data/golden_corpus.jsonl",
        metavar="FILE",
    )

    args = parser.parse_args(argv)

    import json

    from repro.corpus import (
        CORPUS_MODELS,
        freeze_golden,
        generate_corpus,
        mine,
        stress_report,
        sweep_corpus,
    )
    from repro.litmus.writer import write_litmus

    try:
        if args.command == "generate":
            threads = _parse_thread_counts(args.threads)
            families: dict = {}
            count = 0
            out = open(args.output, "w") if args.output else None
            litmus_dir = Path(args.litmus_dir) if args.litmus_dir else None
            if litmus_dir is not None:
                litmus_dir.mkdir(parents=True, exist_ok=True)
            try:
                for test in generate_corpus(
                    seed=args.seed, target=args.target, threads=threads
                ):
                    count += 1
                    families[test.family] = families.get(test.family, 0) + 1
                    if out is not None:
                        out.write(json.dumps(test.to_json()) + "\n")
                    if litmus_dir is not None:
                        (litmus_dir / f"{test.name}.litmus").write_text(
                            write_litmus(test.program)
                        )
            finally:
                if out is not None:
                    out.close()
            print(
                f"generated {count} unique tests "
                f"({len(families)} families, seed {args.seed})"
            )
            if count < (args.target or 0):
                print(
                    f"repro-corpus: stream exhausted {args.target - count} "
                    "short of --target",
                    file=sys.stderr,
                )
            if args.output:
                print(f"wrote corpus to {args.output}")
            return EXIT_OK

        if args.command == "sweep":
            from repro.guard import Budget as _Budget
            from repro.guard import SweepJournal as _Journal

            if args.corpus:
                tests = _load_corpus_file(Path(args.corpus))
            else:
                tests = list(
                    generate_corpus(
                        seed=args.seed,
                        target=args.target,
                        threads=_parse_thread_counts(args.threads),
                    )
                )
            journal = (
                _Journal(
                    Path(args.journal),
                    [spec.name for spec in CORPUS_MODELS],
                )
                if args.journal
                else None
            )
            row_budget = (
                _Budget(wall_seconds=args.timeout) if args.timeout else None
            )
            with _observe(args) as collector:
                result = sweep_corpus(
                    tests,
                    jobs=args.jobs,
                    journal=journal,
                    row_budget=row_budget,
                    wall_seconds=args.wall,
                )
            _emit_observations(args, collector)
            inconclusive = sum(
                1
                for row in result.matrix.values()
                if INCONCLUSIVE in row.values()
            )
            print(
                f"swept {result.swept} rows "
                f"({result.journal_skips} journaled, "
                f"{len(result.abandoned)} abandoned, "
                f"{inconclusive} inconclusive)"
            )
            if args.output:
                document = {
                    "models": [spec.name for spec in CORPUS_MODELS],
                    "matrix": result.matrix,
                }
                Path(args.output).write_text(
                    json.dumps(document, indent=2, sort_keys=True) + "\n"
                )
                print(f"wrote matrix to {args.output}")
            return (
                EXIT_INCONCLUSIVE
                if (result.abandoned or inconclusive)
                else EXIT_OK
            )

        # mine / report / freeze all start from the same two files.
        result = _sweep_result_from_files(
            Path(args.corpus), Path(args.matrix)
        )
        if args.command == "mine":
            report = mine(result)
            print(
                f"{report.total} rows, {len(report.signatures)} "
                f"signatures, {report.agreeing} in full agreement, "
                f"{len(report.soundness_alerts)} soundness alert(s)"
            )
            for bucket in report.ranked_signatures()[:10]:
                print(f"  {bucket.count:6d}  {bucket.signature}")
            return EXIT_OK
        if args.command == "report":
            report = mine(result)
            Path(args.output).write_text(stress_report(report, result))
            print(f"wrote {args.output}")
            return EXIT_OK
        # freeze
        names = freeze_golden(
            result, args.output, size=args.size, seed=args.seed
        )
        print(f"froze {len(names)} tests to {args.output}")
        return EXIT_OK
    except (CliError, LitmusError) as error:
        print(f"repro-corpus: {error}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(herd_main())
