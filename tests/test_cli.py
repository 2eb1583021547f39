import csv
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from fodeabm import bench, checks, cli
from fodeabm.cli import main
from fodeabm.parallel.reduction import CHUNK


def run_cli(args):
    return main(list(args))


def exit_code(args):
    """main's return code, or the code of the SystemExit that argparse raises."""
    try:
        return run_cli(args)
    except SystemExit as exc:
        return exc.code


class TestSolve:
    def test_constant_trajectory_csv(self, tmp_path):
        out = tmp_path / "traj.csv"
        rc = run_cli(
            [
                "solve",
                "--system", "constant",
                "--alpha", "0.5",
                "--tmax", "1.0",
                "--steps", "10",
                "--value", "0",
                "--y0", "3",
                "--output", str(out),
            ]
        )
        assert rc == 0
        rows = list(csv.reader(out.open()))
        assert rows[0] == ["t", "y0"]
        assert len(rows) == 12  # header + 11 grid points
        assert all(r[1] == "3" for r in rows[1:])

    def test_round_trip_seventeen_digits(self, tmp_path):
        out = tmp_path / "traj.csv"
        rc = run_cli(
            [
                "solve",
                "--system", "linear",
                "--alpha", "0.7",
                "--lam", "-1",
                "--tmax", "1.0",
                "--steps", "64",
                "--output", str(out),
            ]
        )
        assert rc == 0
        from fodeabm import solve_serial
        from conftest import linear_problem

        problem = linear_problem(alpha=0.7, lam=-1.0)
        ref = solve_serial(problem, problem.grid(64))
        rows = list(csv.reader(out.open()))[1:]
        got = np.array([float(r[1]) for r in rows])
        assert np.array_equal(got, ref.states[:, 0])

    @pytest.mark.parametrize("strategy", ["block", "reduction"])
    def test_parallel_strategies_from_cli(self, tmp_path, strategy, force_helpers):
        out = tmp_path / "traj.csv"
        rc = run_cli(
            [
                "solve",
                "--system", "hindmarsh-rose",
                "--alpha", "0.9",
                "--tmax", "5.0",
                "--steps", "256",
                "--strategy", strategy,
                "--workers", "2",
                "--output", str(out),
            ]
        )
        assert rc == 0
        rows = list(csv.reader(out.open()))
        assert rows[0] == ["t", "y0", "y1", "y2"]
        assert len(rows) == 258

    def test_missing_required_flag_exits_two(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as e:
            run_cli(["solve", "--system", "constant", "--tmax", "1", "--steps", "4"])
        assert e.value.code == 2
        assert "the following arguments are required: --alpha" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_numerical_failure_exit_code_and_step(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        rc = run_cli(
            [
                "solve",
                "--system", "linear",
                "--alpha", "1.0",
                "--lam", "1e4",
                "--tmax", "100",
                "--steps", "100",
                "--output", str(out),
            ]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "step" in err

    def test_unknown_system_rejected(self, capsys):
        with pytest.raises(SystemExit) as e:
            run_cli(["solve", "--system", "lorenz", "--alpha", "0.5", "--tmax", "1", "--steps", "4"])
        assert e.value.code == 2

    def test_usage_error_exit_two(self):
        with pytest.raises(SystemExit) as e:
            run_cli(["solve", "--no-such-flag"])
        assert e.value.code == 2

    def test_hr_params_override(self, tmp_path):
        out = tmp_path / "t.csv"
        rc = run_cli(
            [
                "solve",
                "--system", "hindmarsh-rose",
                "--alpha", "0.9",
                "--tmax", "1.0",
                "--steps", "16",
                "--hr-param", "i_ext=0.0",
                "--hr-param", "r=0.01",
                "--output", str(out),
            ]
        )
        assert rc == 0

    def test_unknown_hr_param_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        rc = run_cli(
            [
                "solve",
                "--system", "hindmarsh-rose",
                "--alpha", "0.9",
                "--tmax", "1",
                "--steps", "4",
                "--hr-param", "zz=1",
                "--output", str(out),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: unknown --hr-param 'zz'")
        assert not out.exists()


_HR = ["--system", "hindmarsh-rose", "--alpha", "0.9", "--tmax", "1.0", "--steps", "16"]


class TestArgsFile:
    # @FILE is argparse's: one argument per line, read in the place of @FILE
    def test_file_supplies_flags(self, tmp_path):
        args = tmp_path / "run.args"
        args.write_text("--system=constant\n--alpha=0.5\n--tmax\n1.0\n--steps=8\n--value=0\n--y0=2\n")
        out = tmp_path / "t.csv"
        assert run_cli(["solve", f"@{args}", "--output", str(out)]) == 0
        rows = list(csv.reader(out.open()))
        assert len(rows) == 10 and rows[1][1] == "2"

    def test_later_flag_overrides_file(self, tmp_path):
        args = tmp_path / "run.args"
        args.write_text("--system=constant\n--alpha=0.5\n--tmax=1.0\n--steps=8\n--y0=2\n")
        out = tmp_path / "t.csv"
        assert run_cli(["solve", f"@{args}", "--y0", "5", "--output", str(out)]) == 0
        rows = list(csv.reader(out.open()))
        assert rows[1][1] == "5"

    @pytest.mark.parametrize(
        "line, message",
        [
            ("--wrokers=3", "unrecognized arguments: --wrokers=3"),
            ("--reps=1", "unrecognized arguments: --reps=1"),
            ("--y0 5", "unrecognized arguments: --y0 5"),
            ("--alpha=abc", "argument --alpha: invalid float value: 'abc'"),
            ("--steps=1.5", "argument --steps: invalid int value: '1.5'"),
            ("--hr-param=r", "configuration error: --hr-param expects NAME=VALUE, got 'r'"),
        ],
        ids=["mistyped-flag", "bench-flag", "two-per-line", "alpha-abc", "steps-1.5", "hr-param-r"],
    )
    def test_bad_line_exits_two(self, tmp_path, capsys, line, message):
        # a mistyped flag, another command's flag, a line holding two
        # arguments or a value that cannot be read is refused, nothing written
        args = tmp_path / "run.args"
        args.write_text("\n".join(_HR + [line]) + "\n")
        out = tmp_path / "t.csv"
        assert exit_code(["solve", f"@{args}", "--output", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_missing_file_exits_two(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert exit_code(["solve", "@missing.args"]) == 2
        assert "No such file or directory: 'missing.args'" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_hr_param_file_and_flags_combine(self, tmp_path):
        # --hr-param values from the file and from flags add up; for one
        # NAME the last value wins
        args = tmp_path / "run.args"
        args.write_text("\n".join(_HR + ["--hr-param=i_ext=0.0"]) + "\n")
        runs = {
            "file": [f"@{args}"],
            "file+flag r": [f"@{args}", "--hr-param", "r=0.01"],
            "file+flag i_ext": [f"@{args}", "--hr-param", "i_ext=3.25"],
            "flags i_ext r": _HR + ["--hr-param", "i_ext=0.0", "--hr-param", "r=0.01"],
            "flag i_ext": _HR + ["--hr-param", "i_ext=0.0"],
            "flag r": _HR + ["--hr-param", "r=0.01"],
            "none": _HR,
        }
        text = {}
        for name, argv in runs.items():
            out = tmp_path / "t.csv"
            assert run_cli(["solve", *argv, "--output", str(out)]) == 0
            text[name] = out.read_bytes()
        assert text["file"] == text["flag i_ext"] != text["none"]
        assert text["file+flag r"] == text["flags i_ext r"]
        assert text["flags i_ext r"] not in (text["flag i_ext"], text["flag r"], text["none"])
        assert text["file+flag i_ext"] == text["none"]

    def test_no_command_takes_config(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "x.cfg").write_text("output = trajectory.csv\n")
        for command in (["solve", *_HR], ["bench", *_HR], ["verify"]):
            with pytest.raises(SystemExit) as exc:
                run_cli([*command, "--config", "x.cfg"])
            assert exc.value.code == 2
            assert "unrecognized arguments: --config" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["x.cfg"]


class TestBench:
    def test_sweep_writes_records_and_idle(self, tmp_path, force_helpers):
        out = tmp_path / "bench.csv"
        rc = run_cli(
            [
                "bench",
                "--system", "linear",
                "--alpha", "0.5",
                "--tmax", "1.0",
                "--steps", "200,400",
                "--strategy", "serial,block",
                "--workers", "2",
                "--reps", "1",
                "--output", str(out),
            ]
        )
        assert rc == 0
        rows = list(csv.reader(out.open()))
        assert rows[0][0] == "strategy"
        strategies = {r[0] for r in rows[1:]}
        assert strategies == {"serial", "block"}
        idle = tmp_path / "bench_idle.csv"
        assert idle.exists()

    @pytest.mark.parametrize(
        "output, idle", [("./bench", "bench_idle.csv"), ("results.d/bench", "results.d/bench_idle.csv")]
    )
    def test_idle_csv_beside_output_without_extension(self, tmp_path, monkeypatch, output, idle):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "results.d").mkdir()
        args = ["bench", "--system", "linear", "--alpha", "0.5", "--tmax", "1.0", "--steps", "200",
                "--strategy", "block", "--reps", "1", "--output", output]
        assert run_cli(args) == 0
        written = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*") if p.is_file())
        assert written == sorted([os.path.normpath(output), idle])

    def test_failed_cell_is_recorded_and_exits_one(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        rc = run_cli(
            [
                "bench",
                "--system", "linear",
                "--alpha", "1",
                "--lam", "1e4",
                "--tmax", "100",
                "--steps", "100",
                "--strategy", "serial",
                "--reps", "1",
                "--output", str(out),
            ]
        )
        assert rc == 1
        assert "1 cells failed numerically" in capsys.readouterr().err
        rows = list(csv.DictReader(out.open()))
        assert [row["strategy"] for row in rows] == ["serial"]
        assert "step" in rows[0]["error"]


def test_help_renders_defaults(capsys):
    with pytest.raises(SystemExit) as e:
        run_cli(["bench", "--help"])
    assert e.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    for help_text in (f"chunk width (default {CHUNK})", "exponent (default 2)", "coefficient (default -1)",
                      "per cell (default 3)"):
        assert help_text in text


_LINEAR = ["--system", "linear", "--alpha", "0.5", "--tmax", "1", "--steps", "8"]


@pytest.mark.parametrize(
    "args, flag, target",
    [
        (["solve", *_LINEAR], "--output", "missing/out.csv"),
        (["solve", *_LINEAR], "--output", "."),
        (["bench", *_LINEAR], "--output", "missing/out.csv"),
        (["bench", *_LINEAR, "--strategy", "serial,block"], "--output", "bench.csv"),
        (["verify"], "--output", "missing/out.csv"),
    ],
    ids=["solve-output", "solve-output-directory", "bench-output", "bench-idle-path-is-directory",
         "verify-output"],
)
def test_unwritable_output_refused_before_solving(tmp_path, capsys, monkeypatch, args, flag, target):
    # an output whose directory is missing or that is a directory, or a bench
    # whose idle CSV beside it is a directory, is refused before any solve,
    # not after it
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bench_idle.csv").mkdir()
    calls = []
    for module, name in ((bench, "solve_strategy"), (cli, "solve_strategy"),
                         (checks, "run_verification_suite"), (cli, "run_verification_suite")):
        monkeypatch.setattr(module, name, lambda *a, name=name, **k: calls.append(name))
    assert run_cli(args + [flag, target]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {flag} {target!r}")
    assert calls == []
    assert not any(p.is_file() for p in tmp_path.rglob("*"))


@pytest.mark.parametrize("value", ["", "2,4"], ids=["empty", "list"])
def test_solve_workers_is_one_count(tmp_path, capsys, value):
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as e:
        run_cli(["solve", *_LINEAR, "--output", str(out), "--workers", value])
    assert e.value.code == 2
    assert f"argument --workers: invalid int value: {value!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("bench", "--steps", ""),
        ("bench", "--workers", ""),
        ("bench", "--strategy", ","),
        ("bench", "--workers", "0"),
        ("bench", "--workers", "2,2"),
        ("bench", "--steps", "16,16"),
        ("bench", "--chunk", "0"),
        ("bench", "--strategy", "block,block"),
    ],
    ids=[
        "bench-steps-empty", "bench-workers-empty", "bench-strategy-empty", "bench-workers-zero",
        "bench-workers-repeated", "bench-steps-repeated", "bench-chunk-zero", "bench-strategy-repeated",
    ],
)
def test_list_flag_is_config_error(tmp_path, capsys, command, flag, value):
    # an empty list, a repeated value or a bench cell the engines refuse
    # is refused before anything is solved or written
    out = tmp_path / "out.csv"
    args = [command, "--system", "linear", "--alpha", "0.5", "--tmax", "1.0", "--output", str(out)]
    if flag != "--steps":
        args += ["--steps", "16"]
    rc = run_cli(args + [flag, value])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and flag in err
    assert not out.exists()


class TestVerify:
    def test_verify_passes_and_writes_report(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        rc = run_cli(["verify", "--output", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "PASS" in text and "FAIL" not in text
        with open(out, newline="") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
        # one table: one row per (alpha, N), 4 alphas x 3 grids
        assert reader.fieldnames == ["alpha", "problem", "N", "sup_error", "observed_order"]
        assert len(rows) == 12
        # at alpha=1 the errors are roundoff and no order is observable
        roundoff = [row["observed_order"] for row in rows if row["alpha"] == "1"]
        fitted = [row["observed_order"] for row in rows if row["alpha"] != "1"]
        assert roundoff == ["", "", ""]
        assert len(fitted) == 9 and all(math.isfinite(float(order)) for order in fitted)
        assert "alpha=1: order not observable" in text


class TestConsoleEntry:
    @pytest.mark.parametrize("command", ["solve", "bench"])
    def test_diverging_solve_prints_no_numpy_warning(self, tmp_path, command):
        # the step error reports the divergence (solve on stderr, bench in its
        # FAILED line); numpy's overflow warning would only repeat it
        args = [command, "--system", "linear", "--alpha", "1", "--lam", "1e4", "--tmax", "100",
                "--steps", "100", "--strategy", "serial", "--output", str(tmp_path / "out.csv")]
        args += ["--reps", "1"] if command == "bench" else []
        proc = subprocess.run([sys.executable, "-m", "fodeabm.cli", *args], capture_output=True, text=True)
        assert proc.returncode == 1, proc.stderr
        assert "step" in proc.stdout + proc.stderr
        assert "RuntimeWarning" not in proc.stderr

    def test_module_invocation(self, tmp_path):
        out = tmp_path / "t.csv"
        proc = subprocess.run(
            [
                sys.executable, "-m", "fodeabm.cli",
                "solve", "--system", "constant", "--alpha", "0.5",
                "--tmax", "1.0", "--steps", "4", "--y0", "1", "--output", str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists()
