"""The command-line surface: every subcommand, exit codes, file round-trips."""
import re

import pytest

from jemaim.cli import main

from corpus import INEQUIVALENT_PAIRS, WHOLE_PROGRAMS, main_prog


@pytest.fixture
def ws(tmp_path):
    (tmp_path / "prog.jem").write_text(WHOLE_PROGRAMS["arith-add"])
    (tmp_path / "c1.jem").write_text(INEQUIVALENT_PAIRS["int-return"][0])
    (tmp_path / "c2.jem").write_text(INEQUIVALENT_PAIRS["int-return"][1])
    (tmp_path / "bad.jem").write_text("class c { c(){} public m() : c()->Bool { return 4; } };")
    (tmp_path / "broken.jem").write_text("class c { class c")
    return tmp_path


def run_cli(*args):
    return main([str(a) for a in args])


class TestCheck:
    def test_good_file_exit_zero(self, ws):
        assert run_cli("check", ws / "prog.jem") == 0

    def test_type_error_exit_one(self, ws, capsys):
        assert run_cli("check", ws / "bad.jem") == 1
        err = capsys.readouterr().err
        assert "bad.jem:" in err and ":" in err

    def test_syntax_error_reports_position(self, ws, capsys):
        assert run_cli("check", ws / "broken.jem") == 1
        assert "error:" in capsys.readouterr().err


class TestRunJem:
    def test_prints_terminated(self, ws, capsys):
        assert run_cli("run_jem", ws / "prog.jem") == 0
        assert "Terminated(42)" in capsys.readouterr().out

    def test_fuel_flag(self, ws, capsys):
        (ws / "spin.jem").write_text(WHOLE_PROGRAMS["diverge-spin"])
        assert run_cli("run_jem", ws / "spin.jem", "--fuel", "500") == 0
        assert "OutOfFuel" in capsys.readouterr().out


class TestLongBinOpSpine:
    """Left-nested `+` chains too long for a recursive walk of the spine."""

    @pytest.mark.parametrize("n", [1000, 5000])
    def test_check_and_run_jem(self, ws, capsys, n):
        (ws / "sum.jem").write_text(main_prog(" + ".join(["1"] * n)))
        assert run_cli("check", ws / "sum.jem") == 0
        assert run_cli("run_jem", ws / "sum.jem", "--fuel", 100_000) == 0
        assert f"Terminated({n})" in capsys.readouterr().out

    def test_compile_reports_oversized_code(self, ws, capsys):
        (ws / "sum.jem").write_text(main_prog(" + ".join(["1"] * 1000)))
        assert run_cli("compile", ws / "sum.jem", "-o", ws / "mods") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "code section of 'main' exceeds the data base" in err


class TestCompileLinkRun:
    def test_full_pipeline(self, ws, capsys):
        assert run_cli("compile", ws / "prog.jem", "-o", ws / "mods") == 0
        files = sorted(p.name for p in (ws / "mods").glob("*.aimod"))
        assert files == ["main.aimod", "sys.aimod"]
        assert run_cli("link", *(ws / "mods").glob("*.aimod"), "-o", ws / "prog.aimod") == 0
        assert run_cli("run_aim", ws / "prog.aimod") == 0
        assert "r6=42" in capsys.readouterr().out

    def test_compile_of_an_ill_typed_file_is_refused(self, ws, capsys):
        assert run_cli("compile", ws / "bad.jem", "-o", ws / "mods") == 1
        diagnostic, error = capsys.readouterr().err.splitlines()
        assert re.fullmatch(r".*bad\.jem:1:[0-9]+: body of 'm' has type Int, declared Bool", diagnostic)
        assert error.startswith("error: ")
        assert not (ws / "mods").exists()

    def test_run_without_sys_is_one_error_line(self, ws, capsys):
        assert run_cli("compile", ws / "prog.jem", "-o", ws / "mods") == 0
        assert run_cli("link", ws / "mods" / "main.aimod", "-o", ws / "prog.aimod") == 0
        capsys.readouterr()
        assert run_cli("run_aim", ws / "prog.aimod") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "sys" in err

    def test_emitted_files_round_trip(self, ws):
        from jemaim.aim import aimod

        run_cli("compile", ws / "prog.jem", "-o", ws / "mods")
        for p in (ws / "mods").glob("*.aimod"):
            text = p.read_text()
            assert aimod.dump(aimod.load(text)) == text

    def test_link_clashing_ids_fails(self, ws, capsys):
        run_cli("compile", ws / "c1.jem", "-o", ws / "m1")
        run_cli("compile", ws / "c2.jem", "-o", ws / "m2")
        code = run_cli("link", ws / "m1" / "c.aimod", ws / "m2" / "c.aimod", "-o", ws / "x.aimod")
        assert code == 1
        assert "error: Incompatible" in capsys.readouterr().err

    def test_identical_invocations_identical_outputs(self, ws):
        run_cli("compile", ws / "prog.jem", "-o", ws / "a")
        run_cli("compile", ws / "prog.jem", "-o", ws / "b")
        # fresh masks differ between instances; module structure must not
        a = (ws / "a" / "sys.aimod").read_text()
        b = (ws / "b" / "sys.aimod").read_text()
        assert a == b


class TestUnexpectedErrors:
    def test_missing_aimod_is_one_error_line(self, ws, capsys):
        assert run_cli("run_aim", ws / "missing.aimod") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "missing.aimod" in err and "Traceback" not in err

    def test_malformed_trace_is_one_error_line(self, ws, capsys):
        (ws / "bad.trace").write_text("call? (2,16) [1,0]\nnonsense here\n")
        code = run_cli("backtranslate", ws / "c1.jem", ws / "c2.jem", ws / "bad.trace", ws / "bad.trace")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "ValueError" in err and "Traceback" not in err

    def test_unpluggable_witness_is_one_error_line(self, ws, capsys):
        # c1 plugged into itself defines class c twice, so plug gives the empty program
        assert run_cli("verify_witness", ws / "c1.jem", ws / "c1.jem", ws / "c2.jem") == 1
        err = capsys.readouterr().err
        assert err == "error: the context does not plug into the first component: duplicate class 'c'\n"

    def test_malformed_trace_error_names_file_and_line(self, ws, capsys):
        (ws / "bad.trace").write_text("call? (2,16) [1,0]\nnonsense here\n")
        assert run_cli("backtranslate", ws / "c1.jem", ws / "c2.jem", ws / "bad.trace", ws / "bad.trace") == 1
        assert f"{ws / 'bad.trace'}:2: " in capsys.readouterr().err


class TestTracePipeline:
    def test_trace_writes_canonical_files(self, ws, capsys):
        assert run_cli("trace", ws / "c1.jem", "-o", ws / "traces", "--depth", "2") == 0
        files = sorted((ws / "traces").glob("*.trace"))
        assert files
        joined = "".join(f.read_text() for f in files)
        assert "call? (2,16) [1,0,0,0,0,48,N0]" in joined

    def test_trace_diff_and_backtranslate_and_verify(self, ws, capsys):
        assert run_cli("trace_diff", ws / "c1.jem", ws / "c2.jem", "-o", ws / "div", "--depth", "2") == 0
        assert (ws / "div" / "t1.trace").exists()
        assert (
            run_cli(
                "backtranslate",
                ws / "c1.jem",
                ws / "c2.jem",
                ws / "div" / "t1.trace",
                ws / "div" / "t2.trace",
                "-o",
                ws / "witness.jem",
            )
            == 0
        )
        assert run_cli("check", ws / "witness.jem") == 0
        assert run_cli("verify_witness", ws / "witness.jem", ws / "c1.jem", ws / "c2.jem") == 0
        out = capsys.readouterr().out
        assert "Terminated" in out and "OutOfFuel" in out and "distinguishing: True" in out

    def test_backtranslate_names_the_failed_emulation_rule(self, ws, capsys):
        # a call that bypasses sys (r0 = 0) cannot be emulated in source
        for k, v in ((1, 1), (2, 2)):
            (ws / f"t{k}.trace").write_text(f"call? (2,16) [0,0,0,0,0,40,N0]\nret! (0,40) {v} id=2\n")
        args = (ws / "c1.jem", ws / "c2.jem", ws / "t1.trace", ws / "t2.trace", "-o", ws / "w.jem")
        assert run_cli("backtranslate", *args) == 0
        out = capsys.readouterr().out
        assert "(emulation failed at action 0: entry-bypassing-sys; do-nothing context)" in out

    def test_trace_diff_equivalent_components(self, ws, capsys):
        assert run_cli("trace_diff", ws / "c1.jem", ws / "c1.jem", "--depth", "2", "-o", ws / "d2") == 0
        assert "equivalent at depth 2" in capsys.readouterr().out

    def test_trace_deterministic_across_seeds(self, ws):
        run_cli("trace", ws / "c1.jem", "-o", ws / "t0", "--seed", "0", "--depth", "2")
        run_cli("trace", ws / "c1.jem", "-o", ws / "t9", "--seed", "9", "--depth", "2")
        a = sorted(p.read_text() for p in (ws / "t0").glob("*.trace"))
        b = sorted(p.read_text() for p in (ws / "t9").glob("*.trace"))
        assert a == b


class TestChecksPerCommand:
    def test_each_compiled_file_is_checked_once(self, ws, checks):
        """`modules` is the one check of a file the CLI compiles; `check` and
        `run_jem` check what they load, and `verify_witness` checks the witness
        and both components once each, not their joins."""
        c1, c2, div = ws / "c1.jem", ws / "c2.jem", ws / "div"
        commands = [
            (("compile", ws / "prog.jem", "-o", ws / "mods"), 1),
            (("trace", c1, "--depth", "2", "-o", ws / "traces"), 1),
            (("trace_diff", c1, c2, "--depth", "2", "-o", div), 2),
            (("backtranslate", c1, c2, div / "t1.trace", div / "t2.trace", "-o", ws / "w.jem"), 2),
            (("verify_witness", ws / "w.jem", c1, c2), 3),
            (("check", ws / "prog.jem"), 1),
            (("run_jem", ws / "prog.jem"), 1),
        ]
        for args, expected in commands:
            checks.clear()
            assert run_cli(*args) == 0
            assert (args[0], checks["check"]) == (args[0], expected)

    def test_compile_reports_diagnostics_and_writes_nothing(self, ws, capsys):
        assert run_cli("compile", ws / "bad.jem", "-o", ws / "mods") == 1
        err = capsys.readouterr().err.splitlines()
        assert re.fullmatch(r".*bad\.jem:1:\d+: body of 'm' has type Int, declared Bool", err[0])
        assert err[1:] == [f"error: {ws / 'bad.jem'}: component does not typecheck"]
        assert not (ws / "mods").exists()


class TestVerifyWitnessRejectsIllTypedFiles:
    """`verify_witness` names an ill-typed file and its diagnostics by position,
    as `check` does, whichever of the three files it is."""

    WITNESS = """class-decl c { get : c()->Int };
obj-decl o : c;
class main {
  main(){}
  public main() : main()->Int { return o.get()@@; }
};
object main : main { };
"""

    def test_ill_typed_witness(self, ws, capsys):
        (ws / "w.jem").write_text(self.WITNESS.replace("@@", " == true"))
        assert run_cli("verify_witness", ws / "w.jem", ws / "c1.jem", ws / "c2.jem") == 1
        assert capsys.readouterr().err.splitlines() == [
            f"{ws / 'w.jem'}:5:48: == expects operands of one type, got Int and Bool",
            f"{ws / 'w.jem'}:5:3: body of 'main' has type Bool, declared Int",
            f"error: {ws / 'w.jem'}: component does not typecheck",
        ]

    def test_ill_typed_second_component(self, ws, capsys):
        (ws / "w.jem").write_text(self.WITNESS.replace("@@", ""))
        (ws / "c2.jem").write_text((ws / "c1.jem").read_text().replace("return 1;", "return true;"))
        assert run_cli("verify_witness", ws / "w.jem", ws / "c1.jem", ws / "c2.jem") == 1
        assert capsys.readouterr().err.splitlines() == [
            f"{ws / 'c2.jem'}:4:3: body of 'get' has type Bool, declared Int",
            f"error: {ws / 'c2.jem'}: component does not typecheck",
        ]


class TestProcessDeterminism:
    def test_fresh_processes_produce_identical_modules(self, ws):
        """Identical invocations (fresh interpreter each) emit identical files."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        import jemaim

        # the child imports the same jemaim as this test, installed or not
        src = str(Path(jemaim.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        outs = []
        for d in ("pa", "pb"):
            subprocess.run(
                [sys.executable, "-m", "jemaim.cli", "compile", str(ws / "prog.jem"), "-o", str(ws / d)],
                check=True,
                capture_output=True,
                env=env,
            )
            outs.append(sorted(p.read_text() for p in (ws / d).glob("*.aimod")))
        assert outs[0] == outs[1]
