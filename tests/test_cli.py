import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import monolc.cli as cli
from monolc import (
    CheckResult,
    Mismatch,
    VerificationReport,
    FieldSpec,
    format_ideal,
    lc_table,
    oracle_table,
    parse_ideal,
)
from conftest import edge_ideal, golden_ideal

GOLDEN = "vars x y\ngens x^2, x*y\n"


@pytest.fixture
def golden_file(tmp_path):
    path = tmp_path / "ideal.txt"
    path.write_text(GOLDEN)
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def pretty(value):
    """The CLI's JSON layout: two-space indent, keys in insertion order."""
    return json.dumps(value, indent=2) + "\n"


def failing_report(ideal, field):
    miss = Mismatch((0, 0), 0, 1, 0)
    return VerificationReport(
        ideal, field, (CheckResult("main_theorem", 1, 1, (miss,)),)
    )


class TestParse:
    def test_text(self, capsys, golden_file):
        code, out, err = run(capsys, "parse", golden_file)
        assert (code, out, err) == (0, GOLDEN, "")

    def test_json(self, capsys, golden_file):
        code, out, _ = run(capsys, "parse", golden_file, "--format", "json")
        assert (code, out) == (0, pretty({"vars": ["x", "y"], "gens": ["x^2", "x*y"]}))

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(GOLDEN))
        code, out, _ = run(capsys, "parse", "-")
        assert (code, out) == (0, GOLDEN)

    def test_normalizes(self, capsys, tmp_path):
        path = tmp_path / "redundant.txt"
        path.write_text("vars x y\ngens x*y, x^2, x^2*y\n")
        code, out, _ = run(capsys, "parse", str(path))
        assert (code, out) == (0, GOLDEN)

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "parse", str(tmp_path / "absent.txt"))
        assert code == 2
        assert err.startswith("error:")

    def test_parse_error_has_position(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("vars x\ngens x^2, y\n")
        code, _, err = run(capsys, "parse", str(path))
        assert code == 2
        assert "line 2" in err


class TestPolarize:
    def test_text(self, capsys, golden_file):
        code, out, _ = run(capsys, "polarize", golden_file)
        assert code == 0
        assert out == (
            "vars x_1_1 x_1_2 x_2_1\ngens x_1_1*x_1_2, x_1_1*x_2_1\n"
        )

    def test_json(self, capsys, golden_file):
        code, out, _ = run(capsys, "polarize", golden_file, "--format", "json")
        assert code == 0
        assert out == pretty(
            {
                "vars": ["x_1_1", "x_1_2", "x_2_1"],
                "gens": ["x_1_1*x_1_2", "x_1_1*x_2_1"],
                "rho": [2, 1],
                "origin_vars": [1, 2],
            }
        )


class TestComplex:
    def test_irrelevant(self, capsys, golden_file):
        code, out, _ = run(capsys, "complex", golden_file, "--degree", "1,0")
        assert (code, out) == (0, "{∅}\n")

    def test_cone_facet(self, capsys, golden_file):
        code, out, _ = run(capsys, "complex", golden_file, "--degree", "0,0")
        assert (code, out) == (0, "{y}\n")

    def test_void_with_negative_degree(self, capsys, golden_file):
        code, out, _ = run(capsys, "complex", golden_file, "--degree", "-1,-1")
        assert (code, out) == (0, "void\n")

    def test_equals_form(self, capsys, golden_file):
        code, out, _ = run(capsys, "complex", golden_file, "--degree=-1,0")
        assert (code, out) == (0, "void\n")

    def test_json(self, capsys, golden_file):
        code, out, _ = run(
            capsys, "complex", golden_file, "--degree", "0,0", "--format", "json"
        )
        assert code == 0
        assert out == pretty(
            {"vars": ["x", "y"], "degree": [0, 0], "void": False, "facets": [["y"]]}
        )

    def test_bad_arity(self, capsys, golden_file):
        code, _, err = run(capsys, "complex", golden_file, "--degree", "1")
        assert code == 2
        assert "2 variables" in err

    def test_non_integer(self, capsys, golden_file):
        # int() would take the last three: an Arabic-Indic one, "_" and "+"
        for degree in ("1,a", "\u0661,0", "1_0,0", "+1,0"):
            code, out, err = run(capsys, "complex", golden_file, "--degree", degree)
            assert (code, out) == (2, "")
            assert err == f"error: bad degree {degree!r}: entries must be integers\n"

    @pytest.mark.parametrize("k", [20, 22])
    def test_edge_ideal_of_complete_graph(self, capsys, tmp_path, k):
        """At degree 0 the facets are the k singletons; with half the
        coordinates at -1 the complex is void."""
        ideal = edge_ideal(k)
        path = tmp_path / "ideal.txt"
        path.write_text(format_ideal(ideal))
        singletons = "{" + ", ".join(ideal.var_names) + "}\n"
        zero = ",".join(["0"] * k)
        assert run(capsys, "complex", str(path), "--degree", zero) == (0, singletons, "")
        half = ",".join(["-1"] * (k // 2) + ["0"] * (k - k // 2))
        assert run(capsys, "complex", str(path), "--degree", half) == (0, "void\n", "")


class TestTable:
    def test_text(self, capsys, golden_file):
        for command in ("table", "oracle"):
            code, out, _ = run(capsys, command, golden_file)
            assert (code, out) == (
                0, "vars x y\nfield q\n(0,-1) i=1 dim=1\n(1,0) i=0 dim=1\n"
            )

    def test_json(self, capsys, golden_file):
        code, out, _ = run(capsys, "table", golden_file, "--format", "json")
        assert code == 0
        assert out == pretty(
            {
                "vars": ["x", "y"],
                "field": "q",
                "entries": [
                    {"degree": [0, -1], "i": 1, "dim": 1},
                    {"degree": [1, 0], "i": 0, "dim": 1},
                ],
            }
        )

    def test_tsv(self, capsys, golden_file):
        code, out, _ = run(capsys, "table", golden_file, "--format", "tsv")
        assert (code, out) == (0, "degree\ti\tdim\n0,-1\t1\t1\n1,0\t0\t1\n")

    def test_bad_field(self, capsys, golden_file):
        code, _, err = run(capsys, "table", golden_file, "--field", "gf:4")
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "command, route", [("table", lc_table), ("oracle", oracle_table)]
    )
    def test_unit_ideal(self, capsys, tmp_path, command, route):
        path = tmp_path / "unit.txt"
        path.write_text("vars x\ngens 1\n")
        code, out, err = run(capsys, command, str(path))
        assert (code, out) == (2, "")
        assert err == "error: the unit ideal has a zero quotient\n"
        with pytest.raises(ValueError, match="^the unit ideal has a zero quotient$"):
            route(parse_ideal("vars x\ngens 1"), FieldSpec.rationals())


class TestOracleAgreement:
    @pytest.mark.parametrize("fmt", ["text", "json", "tsv"])
    @pytest.mark.parametrize("field", ["q", "gf:2"])
    def test_byte_identical_output(self, capsys, golden_file, fmt, field):
        code_a, out_a, _ = run(
            capsys, "table", golden_file, "--format", fmt, "--field", field
        )
        code_b, out_b, _ = run(
            capsys, "oracle", golden_file, "--format", fmt, "--field", field
        )
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_api_tables_equal(self):
        fld = FieldSpec.gf(3)
        assert oracle_table(golden_ideal(), fld) == lc_table(golden_ideal(), fld)


class TestDepth:
    def test_text(self, capsys, golden_file):
        code, out, _ = run(capsys, "depth", golden_file)
        assert (code, out) == (0, "depth 0\ndim 1\ncohen_macaulay false\n")

    def test_json(self, capsys, golden_file):
        code, out, _ = run(capsys, "depth", golden_file, "--format", "json")
        assert (code, out) == (
            0, pretty({"depth": 0, "dim": 1, "cohen_macaulay": False})
        )

    def test_no_tsv_choice(self, capsys, golden_file):
        code, _, err = run(capsys, "depth", golden_file, "--format", "tsv")
        assert code == 2

    def test_unit_ideal(self, capsys, tmp_path):
        path = tmp_path / "unit.txt"
        path.write_text("vars x\ngens 1\n")
        code, _, err = run(capsys, "depth", str(path))
        assert code == 2


class TestVerify:
    def test_pass_text(self, capsys, golden_file):
        code, out, _ = run(capsys, "verify", golden_file)
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("check main_theorem: pass")
        assert lines[-1] == "pass"

    def test_all_sweeps(self, capsys, golden_file):
        code, out, _ = run(
            capsys, "verify", golden_file, "--chain", "--depth-shift"
        )
        assert code == 0
        assert out == (
            "check main_theorem: pass (6 degrees, 18 indices)\n"
            "check rhs_index_window: pass (6 degrees, 6 indices)\n"
            "check step2_restriction: pass (4 degrees, 12 indices)\n"
            "check step3_partial_polarization_j1: pass (2 degrees, 6 indices)\n"
            "check depth_shift: pass (14 degrees, 2 indices)\n"
            "pass\n"
        )

    def test_pass_json(self, capsys, golden_file):
        code, out, _ = run(
            capsys, "verify", golden_file, "--format", "json", "--field", "gf:2"
        )
        assert code == 0
        data = json.loads(out)
        assert data["pass"] is True
        assert data["field"] == "gf:2"

    def test_failure_exit_code(self, capsys, golden_file, monkeypatch):
        monkeypatch.setattr(cli, "verify_main_theorem", failing_report)
        code, out, _ = run(capsys, "verify", golden_file)
        assert code == 1
        assert "check main_theorem: FAIL (1 mismatches)" in out
        assert out.splitlines()[-1] == "fail"
        assert "degree (0,0) i=0: lhs 1 != rhs 0" in out

    @pytest.mark.parametrize(
        "text", ["vars a x_1_2\ngens a^3, x_1_2\n", "vars x_1_2 y\ngens x_1_2^3, y^2\n"]
    )
    @pytest.mark.parametrize("field", ["q", "gf:2"])
    def test_copy_names_in_input(self, capsys, tmp_path, text, field):
        """Names like the copies x_i_j of partial polarization are valid input."""
        path = tmp_path / "ideal.txt"
        path.write_text(text)
        code, out, err = run(
            capsys, "verify", str(path), "--chain", "--depth-shift", "--field", field
        )
        assert (code, out.splitlines()[-1], err) == (0, "pass", "")

    @pytest.mark.parametrize(
        "flags", [[], ["--chain"], ["--depth-shift"], ["--chain", "--depth-shift"]]
    )
    def test_unit_ideal(self, capsys, tmp_path, flags):
        path = tmp_path / "unit.txt"
        path.write_text("vars x\ngens 1\n")
        code, out, err = run(capsys, "verify", str(path), *flags)
        assert (code, out) == (2, "")
        assert err == "error: the unit ideal has a zero quotient\n"


class TestFuzz:
    ARGS = ("fuzz", "--trials", "3", "--n", "2", "--max-exp", "2", "--gens", "3")

    def test_text(self, capsys):
        code, out, _ = run(capsys, *self.ARGS)
        assert code == 0
        assert out == (
            "trial 0 seed 0: (x2) pass\n"
            "trial 1 seed 1: (x2) pass\n"
            "trial 2 seed 2: (x2) pass\n"
            "3 trials, 0 failures\n"
        )

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, *self.ARGS)
        _, second, _ = run(capsys, *self.ARGS)
        assert first == second

    def test_seed_changes_ideals(self, capsys):
        _, first, _ = run(capsys, *self.ARGS)
        _, second, _ = run(capsys, *self.ARGS, "--seed", "50")
        assert first != second

    def test_json(self, capsys):
        code, out, _ = run(capsys, *self.ARGS, "--format", "json")
        assert code == 0
        report = {
            "ideal": "vars x1 x2\ngens x2\n",
            "field": "q",
            "checks": [
                {
                    "name": "main_theorem",
                    "degrees_checked": 4,
                    "indices_checked": 12,
                    "failures": [],
                },
                {
                    "name": "rhs_index_window",
                    "degrees_checked": 4,
                    "indices_checked": 4,
                    "failures": [],
                },
            ],
            "pass": True,
        }
        assert out == pretty({"trials": 3, "failures": 0, "reports": [report] * 3})

    def test_failures_exit_1(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "verify_main_theorem", failing_report)
        code, out, _ = run(capsys, *self.ARGS)
        assert code == 1
        lines = out.splitlines()
        assert all(line.endswith("FAIL") for line in lines[:3])
        assert lines[3] == "3 trials, 3 failures"

    def test_interrupt_keeps_finished_trials(self, capsys, monkeypatch):
        calls = []

        def interrupted_on_second(ideal, field):
            calls.append(ideal)
            if len(calls) == 2:
                raise KeyboardInterrupt
            return VerificationReport(ideal, field, ())

        monkeypatch.setattr(cli, "verify_main_theorem", interrupted_on_second)
        code, out, err = run(capsys, *self.ARGS)
        assert (code, err) == (130, "")
        assert out == "trial 0 seed 0: (x2) pass\n"

    def test_zero_ideal_prints_as_0(self, capsys):
        code, out, _ = run(capsys, "fuzz", "--trials", "1", "--gens", "0")
        assert code == 0
        assert out == "trial 0 seed 0: (0) pass\n1 trials, 0 failures\n"

    def test_negative_trials_rejected(self, capsys):
        code, out, err = run(capsys, "fuzz", "--trials", "-3")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("trials", ["0", "1"])
    @pytest.mark.parametrize("shape", [("--n", "0"), ("--max-exp", "0"), ("--gens", "-1")])
    def test_bad_shape_rejected_at_any_trial_count(self, capsys, trials, shape):
        code, out, err = run(capsys, "fuzz", "--trials", trials, *shape)
        assert (code, out) == (2, "")
        assert err == "error: need n >= 1, max_exp >= 1, max_gens >= 0\n"

    def test_trials_0_checks_shape_without_drawing(self, capsys, monkeypatch):
        def no_draw(*args):
            raise AssertionError("an exponent was drawn")

        monkeypatch.setattr(random.Random, "randint", no_draw)
        argv = ("fuzz", "--trials", "0", "--n", "100000", "--gens", "100000")
        assert run(capsys, *argv) == (0, "0 trials, 0 failures\n", "")

    def test_each_trial_draws_once(self, capsys, monkeypatch):
        draws = []
        randint = random.Random.randint

        def counted(rng, a, b):
            draws.append((a, b))
            return randint(rng, a, b)

        monkeypatch.setattr(random.Random, "randint", counted)
        assert run(capsys, *self.ARGS)[0] == 0
        assert len(draws) == 3 * 3 * 2  # trials * gens * n


class TestParserErrors:
    def test_no_command(self, capsys):
        assert run(capsys, )[0] == 2

    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_missing_degree(self, capsys, golden_file):
        assert run(capsys, "complex", golden_file)[0] == 2


class TestInternalErrors:
    def test_assertion_exits_3(self, capsys, golden_file, monkeypatch):
        def broken(ideal, field):
            raise AssertionError("cohomology index 9 outside 0..2")

        monkeypatch.setattr(cli, "lc_table", broken)
        code, out, err = run(capsys, "table", golden_file)
        assert (code, out) == (3, "")
        assert err == "internal error: cohomology index 9 outside 0..2\n"

    @pytest.mark.parametrize(
        "error, line",
        [
            (KeyError("x"), "KeyError: 'x'"),
            (ZeroDivisionError("division by zero"), "ZeroDivisionError: division by zero"),
        ],
    )
    @pytest.mark.parametrize(
        "command, target", [("table", "lc_table"), ("verify", "verify_main_theorem")]
    )
    def test_unexpected_exception_exits_3(
        self, capsys, golden_file, monkeypatch, error, line, command, target
    ):
        """Any other exception is an internal error too, not a mismatch."""

        def broken(ideal, field):
            raise error

        monkeypatch.setattr(cli, target, broken)
        code, out, err = run(capsys, command, golden_file)
        assert (code, out, err) == (3, "", f"internal error: {line}\n")

    def test_interrupt_exits_130(self, capsys, golden_file, monkeypatch):
        def interrupted(ideal, field):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "depth_and_dim", interrupted)
        assert run(capsys, "depth", golden_file) == (130, "", "")


class TestModuleEntry:
    @staticmethod
    def parse_stdin(module: str) -> subprocess.CompletedProcess:
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-m", module, "parse", "-"],
            input=GOLDEN, env=env, capture_output=True, text=True, timeout=60,
        )

    def test_python_dash_m(self):
        proc = self.parse_stdin("monolc")
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, GOLDEN, "")

    def test_python_dash_m_cli_writes_nothing_to_stderr(self):
        """`import monolc` does not load monolc.cli, so runpy finds it
        absent and prints no RuntimeWarning before running it."""
        proc = self.parse_stdin("monolc.cli")
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, GOLDEN, "")

    def test_closed_stdout_exits_141_quietly(self):
        """A reader that stops early (`monolc fuzz | head -1`) is not an
        input error: exit 128 + SIGPIPE with nothing on stderr.  The run
        writes about 150 kB, more than a pipe buffers, so a write after
        the close is certain."""
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        argv = ["fuzz", "--trials", "5000", "--n", "1", "--max-exp", "1", "--gens", "1"]
        proc = subprocess.Popen(
            [sys.executable, "-m", "monolc", *argv],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        try:
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
        assert first == b"trial 0 seed 0: (x1) pass\n"
        assert (proc.returncode, err) == (141, b"")
