import csv
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from fodeabm import bench, checks, cli
from fodeabm.cli import main


def run_cli(args):
    return main(list(args))


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

    def test_missing_required_flag_is_config_error(self, tmp_path, capsys):
        rc = run_cli(["solve", "--system", "constant", "--tmax", "1", "--steps", "4"])
        assert rc == 2
        assert "alpha" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
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


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "system = constant\nalpha = 0.5\ntmax = 1.0\nsteps = 8\n"
            "value = 0\ny0 = 2  # initial state\n"
        )
        out = tmp_path / "t.csv"
        rc = run_cli(["solve", "--config", str(cfg), "--output", str(out)])
        assert rc == 0
        rows = list(csv.reader(out.open()))
        assert rows[1][1] == "2"

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("system = constant\nalpha = 0.5\ntmax = 1.0\nsteps = 8\ny0 = 2\n")
        out = tmp_path / "t.csv"
        rc = run_cli(["solve", "--config", str(cfg), "--y0", "5", "--output", str(out)])
        assert rc == 0
        rows = list(csv.reader(out.open()))
        assert rows[1][1] == "5"

    def test_malformed_config_is_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("not a key value line\n")
        rc = run_cli(["solve", "--config", str(cfg)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("configuration error: ")
        # a file that cannot be read is reported the same way
        rc = run_cli(["solve", "--config", str(tmp_path / "missing.cfg")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("configuration error: ")

    @pytest.mark.parametrize("line", ["alpha = abc", "steps = 1.5", "hr_param = r"])
    def test_bad_config_value_is_config_error(self, tmp_path, capsys, line):
        # a value that cannot be read is a configuration error, not a usage error
        cfg = tmp_path / "run.cfg"
        cfg.write_text("system = hindmarsh-rose\nalpha = 0.9\ntmax = 1.0\nsteps = 8\n" + line + "\n")
        out = tmp_path / "t.csv"
        rc = run_cli(["solve", "--config", str(cfg), "--output", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("configuration error")
        assert not out.exists()

    def test_hr_param_flags_replace_config(self, tmp_path):
        # the config's one NAME=VALUE is used alone, and replaced (not
        # extended) by --hr-param flags
        cfg = tmp_path / "run.cfg"
        cfg.write_text("system = hindmarsh-rose\nalpha = 0.9\ntmax = 1.0\nsteps = 16\nhr_param = i_ext=0.0\n")
        flags = ["--system", "hindmarsh-rose", "--alpha", "0.9", "--tmax", "1.0", "--steps", "16"]
        runs = {
            "config": ["--config", str(cfg)],
            "config+flag": ["--config", str(cfg), "--hr-param", "r=0.01"],
            "flag i_ext": flags + ["--hr-param", "i_ext=0.0"],
            "flag r": flags + ["--hr-param", "r=0.01"],
            "none": flags,
        }
        text = {}
        for name, args in runs.items():
            out = tmp_path / "t.csv"
            assert run_cli(["solve", *args, "--output", str(out)]) == 0
            text[name] = out.read_bytes()
        assert text["config"] == text["flag i_ext"] != text["none"]
        assert text["config+flag"] == text["flag r"] != text["none"]
        assert text["flag r"] != text["flag i_ext"]

    def test_unknown_config_key_is_config_error(self, tmp_path, capsys):
        # a mistyped key is refused, not dropped with its value
        cfg = tmp_path / "run.cfg"
        cfg.write_text("system = linear\nalpha = 0.5\ntmax = 1.0\nsteps = 8\nchunk_size = 8\nwrokers = 3\n")
        out = tmp_path / "t.csv"
        rc = run_cli(["solve", "--config", str(cfg), "--output", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and "'chunk_size'" in err and "'wrokers'" in err
        assert not out.exists()

    def test_other_commands_keys_are_accepted(self, tmp_path):
        # one file serves solve and bench: solve ignores bench's keys
        cfg = tmp_path / "run.cfg"
        cfg.write_text("system = linear\nalpha = 0.5\ntmax = 1.0\nsteps = 8\nreps = 1\nproject = 4000\n")
        out = tmp_path / "t.csv"
        assert run_cli(["solve", "--config", str(cfg), "--output", str(out)]) == 0
        assert out.exists()

    def test_config_project_is_printed(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("project = 4000\n")
        rc = run_cli(
            [
                "bench", "--config", str(cfg),
                "--system", "linear", "--alpha", "0.5", "--tmax", "1.0",
                "--steps", "200", "--strategy", "serial", "--reps", "1",
                "--output", str(tmp_path / "bench.csv"),
            ]
        )
        assert rc == 0
        assert "projected serial time at N=4000 " in capsys.readouterr().out


class TestBench:
    def test_sweep_writes_records_and_idle(self, tmp_path, capsys, force_helpers):
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
        assert "projected serial time" in capsys.readouterr().out


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


def test_help_renders_defaults_from_table(monkeypatch, capsys):
    for key, value in (("chunk", 77), ("beta", 2.5), ("lam", -0.25), ("reps", 9)):
        monkeypatch.setitem(cli._DEFAULTS["bench"], key, value)
    with pytest.raises(SystemExit):
        run_cli(["bench", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    for help_text in ("chunk width (default 77)", "exponent (default 2.5)", "coefficient (default -0.25)",
                      "per cell (default 9)"):
        assert help_text in text


_LINEAR = ["--system", "linear", "--alpha", "0.5", "--tmax", "1", "--steps", "8"]


@pytest.mark.parametrize(
    "args, flag, target",
    [
        (["solve", *_LINEAR], "--output", "missing/out.csv"),
        (["solve", *_LINEAR], "--output", "."),
        (["bench", *_LINEAR], "--output", "missing/out.csv"),
        (["bench", *_LINEAR, "--output", "bench.csv"], "--idle-output", "missing/out.csv"),
        (["verify"], "--output", "missing/out.csv"),
    ],
    ids=["solve-output", "solve-output-directory", "bench-output", "bench-idle-output", "verify-output"],
)
def test_unwritable_output_refused_before_solving(tmp_path, capsys, monkeypatch, args, flag, target):
    # an output whose directory is missing, or that is a directory, is
    # refused before any solve, not after it
    monkeypatch.chdir(tmp_path)
    calls = []
    for module, name in ((bench, "solve_strategy"), (cli, "solve_strategy"),
                         (checks, "run_verification_suite"), (cli, "run_verification_suite")):
        monkeypatch.setattr(module, name, lambda *a, name=name, **k: calls.append(name))
    assert run_cli(args + [flag, target]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {flag} {target!r}")
    assert calls == []
    assert not any(p.is_file() for p in tmp_path.rglob("*"))


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("solve", "--workers", ""),
        ("solve", "--workers", "2,4"),
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
        "solve-workers-empty", "solve-workers-list", "bench-steps-empty", "bench-workers-empty",
        "bench-strategy-empty", "bench-workers-zero", "bench-workers-repeated", "bench-steps-repeated",
        "bench-chunk-zero", "bench-strategy-repeated",
    ],
)
def test_list_flag_is_config_error(tmp_path, capsys, command, flag, value):
    # an empty list, a list where solve takes one count, a repeated value
    # or a bench cell the engines refuse is refused before anything is
    # solved or written
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
