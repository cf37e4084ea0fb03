"""Tests for the command-line tools."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.tools.cli import diy_main, herd_main, klitmus_main, lint_main


class TestHerdCli:
    def test_library_test_by_name(self, capsys):
        assert herd_main(["--model", "lkmm-native", "MP+wmb+rmb"]) == 0
        out = capsys.readouterr().out
        assert "MP+wmb+rmb" in out and "Forbid" in out

    def test_cat_model_by_name(self, capsys):
        assert herd_main(["--model", "c11", "RWC+mbs"]) == 0
        assert "Allow" in capsys.readouterr().out

    def test_file_path(self, tmp_path, capsys):
        litmus = tmp_path / "t.litmus"
        litmus.write_text(
            "C filetest\n{ x=0; }\n"
            "P0(int *x) { WRITE_ONCE(*x, 1); }\n"
            "P1(int *x) { int r0 = READ_ONCE(*x); }\n"
            "exists (1:r0=1)\n"
        )
        assert herd_main(["--model", "lkmm-native", str(litmus)]) == 0
        assert "filetest" in capsys.readouterr().out

    def test_explain_flag(self, capsys):
        assert herd_main(
            ["--model", "lkmm-native", "--explain", "SB+mbs"]
        ) == 0
        out = capsys.readouterr().out
        assert "violated axiom" in out

    @pytest.mark.parametrize("model", ["c11", "sc", "lkmm-core"])
    def test_explain_is_lkmm_only(self, capsys, model):
        # The explanation is LKMM's: under another model it would explain
        # a verdict that model did not reach.
        assert herd_main(["--model", model, "--explain", "WRC+wmb+acq"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--explain is LKMM only" in captured.err

    @pytest.mark.parametrize("model", ["lkmm-native", "lkmm"])
    def test_explain_scpv_violation(self, capsys, model):
        # CoRR's only forbidden matching candidates violate SC-per-location,
        # which the swept stream filters out: the explanation comes from
        # the unfiltered enumeration.
        assert herd_main(["--model", model, "--explain", "CoRR"]) == 0
        out = capsys.readouterr().out
        assert "violated axiom: Scpv (acyclic)" in out
        # The cycle a -rfe-> b -po-> c -fre-> a; the oracle's relations
        # start it at another event.
        (cycle,) = [line for line in out.splitlines() if "cycle:" in line]
        edges = re.findall(r"(\w+) -(\w+)-> (?=(\w+))", cycle)
        assert sorted(edges) == [
            ("a", "rfe", "b"), ("b", "po", "c"), ("c", "fre", "a")
        ]

    def test_multiple_tests(self, capsys):
        assert herd_main(["--model", "lkmm-native", "SB", "MP"]) == 0
        out = capsys.readouterr().out
        assert out.count("Allow") == 2

    def test_bench_flag_prints_vm_opcode_counts(self, capsys):
        from repro.kernel import config as kconfig

        with kconfig.use_oracle(False):
            assert herd_main(
                ["--model", "lkmm", "--bench", "MP+wmb+rmb"]
            ) == 0
        out = capsys.readouterr().out
        assert "kernel bench:" in out
        assert "kernel = production" in out
        assert "vm.op.SEQ" in out
        assert "vm.runs" in out
        assert "cat.fallback.unlowerable = 0" in out

    def test_bench_flag_reports_vm_off(self, capsys):
        from repro.kernel import config as kconfig

        with kconfig.use_oracle():
            assert herd_main(
                ["--model", "lkmm", "--bench", "MP+wmb+rmb"]
            ) == 0
        out = capsys.readouterr().out
        assert "kernel = oracle" in out
        assert "no bytecode executed" in out


class TestKlitmusCli:
    def test_basic(self, capsys):
        assert klitmus_main(
            ["--arch", "x86", "--runs", "200", "SB"]
        ) == 0
        out = capsys.readouterr().out
        assert "SB on x86" in out and "/200" in out

    def test_histogram(self, capsys):
        assert klitmus_main(
            ["--arch", "Power8", "--runs", "100", "--histogram", "MP"]
        ) == 0
        assert "r0" in capsys.readouterr().out


class TestDiyCli:
    def test_generate_prints_litmus(self, capsys):
        assert diy_main(["Rfe", "RmbdRR", "Fre", "WmbdWW"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("C ")
        assert "P0(" in out and "P1(" in out and "exists" in out

    def test_generate_and_check(self, capsys):
        assert diy_main(["--check", "Rfe", "RmbdRR", "Fre", "WmbdWW"]) == 0
        assert "Forbid" in capsys.readouterr().out

    def test_output_file_round_trips(self, tmp_path, capsys):
        out_file = tmp_path / "generated.litmus"
        assert diy_main(
            ["-o", str(out_file), "Rfe", "RmbdRR", "Fre", "WmbdWW"]
        ) == 0
        # The written file is a valid litmus test usable by repro-herd.
        assert herd_main(["--model", "lkmm-native", str(out_file)]) == 0
        assert "Forbid" in capsys.readouterr().out


class TestHerdStates:
    def test_states_flag(self, capsys):
        assert herd_main(
            ["--model", "lkmm-native", "--states", "MP+wmb+rmb"]
        ) == 0
        out = capsys.readouterr().out
        assert "States 3" in out
        assert "Observation MP+wmb+rmb Never" in out


PLAIN_MP = (
    "C MP+plain\n{ x=0; y=0; }\n"
    "P0(int *x, int *y) { *x = 1; WRITE_ONCE(*y, 1); }\n"
    "P1(int *x, int *y) { int r0 = READ_ONCE(*y); int r1 = *x; }\n"
    "exists (1:r0=1 /\\ 1:r1=0)\n"
)


class TestHerdCheckRaces:
    def test_race_free_library_test(self, capsys):
        assert herd_main(
            ["--model", "lkmm-native", "--check-races", "MP"]
        ) == 0
        out = capsys.readouterr().out
        assert "MP: Race-free" in out

    def test_racy_file(self, tmp_path, capsys):
        litmus = tmp_path / "mp-plain.litmus"
        litmus.write_text(PLAIN_MP)
        assert herd_main(
            ["--model", "lkmm-native", "--check-races", str(litmus)]
        ) == 0
        out = capsys.readouterr().out
        assert "MP+plain: Racy" in out
        assert "data race on 'x'" in out

    def test_works_with_cat_model(self, capsys):
        # The race detector always uses the native LKMM, whatever --model.
        assert herd_main(["--model", "sc", "--check-races", "MP"]) == 0
        assert "Race-free" in capsys.readouterr().out


class TestLintCli:
    def test_clean_tree_exits_zero(self, capsys):
        # The library carries two intended lock hand-off warnings;
        # warnings never gate the exit status.
        assert lint_main(["--all-models", "--library"]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_each_bundled_model_compiles_once(self):
        # Linting a bundled model file analyses the IR of the shared
        # load_model instance that the --models report reads, so the 9
        # bundled models make 9 CompiledModels, not 18.  A fresh
        # interpreter: this process's models may be compiled already.
        script = (
            "import contextlib, io\n"
            "from repro.analysis.catir.compile import CompiledModel\n"
            "from repro.tools.cli import lint_main\n"
            "made = []\n"
            "init = CompiledModel.__init__\n"
            "def counting(self, *args, **kwargs):\n"
            "    made.append(1)\n"
            "    init(self, *args, **kwargs)\n"
            "CompiledModel.__init__ = counting\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    lint_main(['--all-models', '--library', '--models'])\n"
            "print(len(made))\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            check=True,
        )
        assert int(out.stdout) == 9

    def test_no_args_defaults_to_everything(self, capsys):
        assert lint_main([]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_seeded_cat_typo_exits_one(self, tmp_path, capsys):
        cat = tmp_path / "broken.cat"
        cat.write_text('"broken"\nlet com = rf | co | frr\nacyclic com as c\n')
        assert lint_main([str(cat)]) == 1
        out = capsys.readouterr().out
        assert "undefined-identifier" in out
        assert "'frr'" in out

    def test_seeded_uninitialized_read_exits_one(self, tmp_path, capsys):
        litmus = tmp_path / "uninit.litmus"
        litmus.write_text(
            "C uninit\n{ y=0; }\n"
            "P0(int *x, int *y) { int r0 = READ_ONCE(*x); "
            "WRITE_ONCE(*y, 1); }\n"
            "P1(int *y) { int r1 = READ_ONCE(*y); }\n"
            "exists (0:r0=0 /\\ 1:r1=1)\n"
        )
        assert lint_main([str(litmus)]) == 1
        assert "uninitialized-read" in capsys.readouterr().out

    def test_library_name_as_target(self, capsys):
        assert lint_main(["MP+wmb+rmb"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_races_flag_exits_one_on_racy_test(self, tmp_path, capsys):
        litmus = tmp_path / "mp-plain.litmus"
        litmus.write_text(PLAIN_MP)
        assert lint_main(["--races", str(litmus)]) == 1
        out = capsys.readouterr().out
        assert "MP+plain: Racy" in out
        assert "1 racy test(s)" in out

    def test_json_format(self, capsys):
        import json

        assert lint_main(["--format", "json", "MP+unlock-acq"]) == 0
        document = json.loads(capsys.readouterr().out)
        codes = {f["code"] for f in document["findings"]}
        assert codes == {"LOCK002", "LOCK003"}
        assert document["counts"]["warning"] == 2
        assert document["counts"]["error"] == 0

    def test_sarif_format(self, tmp_path, capsys):
        import json

        litmus = tmp_path / "uninit.litmus"
        litmus.write_text(
            "C uninit\n{ }\n"
            "P0(int *x) { int r0 = READ_ONCE(*x); }\n"
            "exists (0:r0=0)\n"
        )
        assert lint_main(["--format", "sarif", str(litmus)]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["version"] == "2.1.0"
        run = document["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        results = run["results"]
        assert {r["ruleId"] for r in results} == {"LIT001"}
        assert results[0]["level"] == "error"
        location = results[0]["locations"][0]["physicalLocation"]
        assert location["region"]["startLine"] == 3

    def test_unknown_target_exits_two_with_suggestion(self, capsys):
        assert lint_main(["MP+wmb+rnb"]) == 2
        err = capsys.readouterr().err
        assert "did you mean" in err and "MP+wmb+rmb" in err

    def test_missing_cat_file_exits_two(self, capsys):
        assert lint_main(["no-such-file.cat"]) == 2
        assert "no-such-file.cat" in capsys.readouterr().err


class TestHerdRobustness:
    """Budget flags, exit codes, and the resume journal (repro-herd)."""

    def test_timeout_flag_degrades_to_inconclusive_exit_3(self, capsys):
        # A tiny candidate cap trips immediately on any test.
        code = herd_main(["--model", "sc", "--max-candidates", "1", "SB"])
        assert code == 3
        out = capsys.readouterr().out
        assert "Inconclusive" in out
        assert "[interrupted: candidates" in out

    def test_generous_budget_exits_zero(self, capsys):
        code = herd_main(["--model", "sc", "--timeout", "600", "SB"])
        assert code == 0
        assert "Inconclusive" not in capsys.readouterr().out

    def test_unknown_test_exits_2(self, capsys):
        assert herd_main(["--model", "sc", "NOPE-not-a-test"]) == 2
        assert "repro-herd:" in capsys.readouterr().err

    def test_parse_error_located_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.litmus"
        bad.write_text("C bad\nP0(int *x)\n{\n    smp_mb(;\n}\n")
        assert herd_main(["--model", "sc", str(bad)]) == 2
        err = capsys.readouterr().err
        assert f"{bad}:4:" in err

    def test_journal_resume_skips_completed(self, tmp_path, capsys):
        journal = tmp_path / "sweep.jsonl"
        args = ["--model", "sc", "--journal", str(journal), "SB", "MP"]
        assert herd_main(args) == 0
        first = capsys.readouterr().out
        assert "(journaled)" not in first
        assert journal.exists()
        # Second run replays both rows from the journal.
        assert herd_main(args) == 0
        second = capsys.readouterr().out
        assert second.count("(journaled)") == 2

    def test_inconclusive_not_journaled(self, tmp_path, capsys):
        journal = tmp_path / "sweep.jsonl"
        assert (
            herd_main(
                ["--model", "sc", "--journal", str(journal),
                 "--max-candidates", "1", "SB"]
            )
            == 3
        )
        capsys.readouterr()
        # The budget verdict was not checkpointed: a resumed run with a
        # real budget recomputes and journals it.
        assert herd_main(["--model", "sc", "--journal", str(journal), "SB"]) == 0
        assert "(journaled)" not in capsys.readouterr().out

    def test_jobs_prints_what_a_serial_run_prints(self, capsys):
        tests = ["SB", "MP+wmb+rmb", "LB+ctrl+mb"]
        outputs = []
        for jobs in ("1", "2"):
            assert herd_main(["--jobs", jobs, "--states", "--explain"] + tests) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert "violated axiom" in outputs[0]

    def test_jobs_keeps_input_order_around_journaled_rows(self, tmp_path, capsys):
        journal = ["--model", "sc", "--journal", str(tmp_path / "j.jsonl")]
        assert herd_main(journal + ["MP"]) == 0
        capsys.readouterr()
        assert herd_main(journal + ["--jobs", "2", "SB", "MP", "LB"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines] == ["SB", "MP", "LB"]
        assert lines[1].endswith("(journaled)")

    def test_journal_reruns_a_test_edited_under_its_name(self, tmp_path, capsys):
        journal = ["--model", "sc", "--journal", str(tmp_path / "j.jsonl")]
        assert herd_main(journal + ["SB"]) == 0
        assert "Forbid" in capsys.readouterr().out
        edited = tmp_path / "SB.litmus"
        edited.write_text(
            "C SB\n{ x=0; y=0; }\n"
            "P0(int *x, int *y) { WRITE_ONCE(*x, 1); int r0 = READ_ONCE(*y); }\n"
            "P1(int *x, int *y) { WRITE_ONCE(*y, 1); int r0 = READ_ONCE(*x); }\n"
            "exists (0:r0=1 /\\ 1:r0=1)\n"
        )
        assert herd_main(journal + [str(edited)]) == 0
        out = capsys.readouterr().out
        assert "(journaled)" not in out and "Allow" in out

    def test_lint_parse_error_located_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "broken.cat"
        bad.write_text("broken\nacyclic po ;;\n")
        assert lint_main([str(bad)]) == 2
        assert f"{bad}:2:" in capsys.readouterr().err
