"""Command-line interface: ``solve``, ``bench`` and ``verify`` subcommands.

All configuration is by flags; ``solve`` and ``bench`` may seed theirs from a
plain ``key=value`` config file (``--config``), and explicit flags win.
``verify`` takes only ``--output``.  Exit codes: 0 success,
1 numerical/solver failure (failing step reported on stderr), 2 usage or
configuration errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .bench import (
    IDLE_FIELDS,
    STRATEGIES,
    BenchRecord,
    run_sweep,
    solve_strategy,
    write_csv,
)
from .checks import exact_to_roundoff, run_verification_suite
from .core import FractionalProblem, SolverStepError, StrategyTimeoutError
from .parallel.reduction import CHUNK
from .systems import (
    HR_DEFAULT_Y0,
    SYSTEM_NAMES,
    HindmarshRoseParams,
    rhs_constant,
    rhs_hindmarsh_rose,
    rhs_linear,
    rhs_power_law,
)

__all__ = ["main", "build_problem"]

# Built-in defaults, one table per command; the config file and then the
# flags replace them.  None leaves a setting unset: system, alpha, tmax and
# solve's steps are required.  A value keeps the type it came with (config
# text, typed flag) and is cast where it is read.
_PROBLEM = dict(system=None, alpha=None, tmax=None, beta=2.0, lam=-1.0, value="0", y0=None, hr_param=())
_DEFAULTS = {
    "solve": dict(_PROBLEM, steps=None, strategy="serial", workers="2", chunk=CHUNK, output="trajectory.csv"),
    "bench": dict(
        _PROBLEM, steps="10000,20000", strategy=",".join(STRATEGIES), workers="2", chunk=CHUNK,
        reps=3, output="bench.csv", idle_output=None,
    ),
    "verify": dict(output="verify_report.csv"),
}


def _settings(args: argparse.Namespace, config: dict) -> dict:
    """The command's settings: built-in default, then config file, then explicit flag.

    ``hr_param`` is one NAME=VALUE in a config file and a list from flags;
    the flags replace the config's value rather than add to it.  A config
    key that no command has is refused; another command's key is ignored,
    so solve and bench can share a file, though both read its ``output``.
    """
    unknown = sorted(set(config).difference(*_DEFAULTS.values()))
    if unknown:
        raise ValueError(f"unknown config key {', '.join(map(repr, unknown))}")
    settings = dict(_DEFAULTS[args.command])
    for key in settings:
        flag = getattr(args, key)
        if flag is not None:
            settings[key] = flag
        elif key in config:
            settings[key] = [config[key]] if key == "hr_param" else config[key]
    return settings


def _check_outputs(settings: dict) -> None:
    """Refuse, before any solve, an output path whose directory cannot take it."""
    for key in ("output", "idle_output"):
        path = settings.get(key)
        if path is None:
            continue
        directory = os.path.dirname(path) or "."
        if os.path.isdir(path) or not os.path.isdir(directory) or not os.access(directory, os.W_OK):
            flag = "--" + key.replace("_", "-")
            raise ValueError(f"{flag} {path!r}: not a file in a writable directory")


def _required(settings: dict, key: str, note: str = ""):
    if settings[key] is None:
        raise ValueError(f"--{key} is required{note}")
    return settings[key]


def _parse_list(text: str, flag: str, cast=int) -> tuple:
    """A comma list of at least one value."""
    values = tuple(cast(x.strip()) for x in text.split(",") if x.strip())
    if not values:
        raise ValueError(f"{flag} needs at least one value")
    return values


def build_problem(settings: dict) -> FractionalProblem:
    """Materialise the rhs and initial data named by a command's settings."""
    system = _required(settings, "system")
    alpha = float(_required(settings, "alpha", " (no default is assumed)"))
    t_max = float(_required(settings, "tmax"))
    hr_params, hr_names = {}, [f.name for f in dataclasses.fields(HindmarshRoseParams)]
    for item in settings["hr_param"]:
        if "=" not in item:
            raise ValueError(f"--hr-param expects NAME=VALUE, got {item!r}")
        k, v = (part.strip() for part in item.split("=", 1))
        if k not in hr_names:
            raise ValueError(f"unknown --hr-param {k!r}; choose from {', '.join(hr_names)}")
        hr_params[k] = float(v)
    beta = float(settings["beta"])
    lam = float(settings["lam"])
    value = _parse_list(settings["value"], "--value", float)
    y0 = settings["y0"]
    if y0 is not None:
        y0 = _parse_list(y0, "--y0", float)
    if system == "constant":
        y0 = (0.0,) * len(value) if y0 is None else y0
        return FractionalProblem(alpha, len(value), rhs_constant(value), y0, t_max)
    if system == "power-law":
        y0 = (0.0,) if y0 is None else y0
        return FractionalProblem(alpha, 1, rhs_power_law(alpha, beta), y0, t_max)
    if system == "linear":
        y0 = (1.0,) if y0 is None else y0
        return FractionalProblem(alpha, len(y0), rhs_linear(lam), y0, t_max)
    if system == "hindmarsh-rose":
        y0 = HR_DEFAULT_Y0 if y0 is None else y0
        params = HindmarshRoseParams(**hr_params)
        return FractionalProblem(alpha, 3, rhs_hindmarsh_rose(params), y0, t_max)
    raise ValueError(f"unknown system {system!r}; choose from {', '.join(SYSTEM_NAMES)}")


def load_config_file(path: str) -> dict:
    """Plain key=value lines; '#' starts a comment; keys use flag names."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, value = line.split("=", 1)
            out[key.strip().replace("-", "_")] = value.strip()
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fodeabm",
        description="Fractional-order ABM predictor-corrector solver and benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, defaults: dict) -> None:
        p.add_argument("--config", help="key=value config file; flags override it")
        p.add_argument("--system", choices=SYSTEM_NAMES)
        p.add_argument("--alpha", type=float, help="fractional order in (0, 1]")
        p.add_argument("--tmax", type=float, help="time horizon T > 0")
        p.add_argument("--output", help="output CSV path")
        p.add_argument("--workers", type=str, help="worker count (bench: comma list)")
        p.add_argument("--chunk", type=int, help=f"reduction chunk width (default {defaults['chunk']})")
        p.add_argument("--beta", type=float, help=f"power-law exponent (default {defaults['beta']:g})")
        p.add_argument("--lam", type=float, help=f"linear coefficient (default {defaults['lam']:g})")
        p.add_argument("--value", type=str, help="constant rhs value, comma separated")
        p.add_argument("--y0", type=str, help="initial state, comma separated")
        p.add_argument(
            "--hr-param",
            action="append",
            metavar="NAME=VALUE",
            help="override a Hindmarsh-Rose constant (repeatable)",
        )

    p_solve = sub.add_parser("solve", help="integrate one problem and write the trajectory")
    common(p_solve, _DEFAULTS["solve"])
    p_solve.add_argument("--steps", type=int, help="number of time steps N")
    p_solve.add_argument("--strategy", choices=STRATEGIES)

    p_bench = sub.add_parser("bench", help="timing sweep over strategies, N and workers")
    common(p_bench, _DEFAULTS["bench"])
    p_bench.add_argument("--steps", type=str, help="comma list of N values")
    p_bench.add_argument("--strategy", type=str, help="comma list of strategies")
    p_bench.add_argument(
        "--reps", type=int, help=f"timed repetitions per cell (default {_DEFAULTS['bench']['reps']})"
    )
    p_bench.add_argument("--idle-output", help="per-worker idle-count CSV (block strategy)")

    p_verify = sub.add_parser("verify", help="run the analytic verification suite")
    p_verify.add_argument("--output", help="convergence report CSV path")

    return parser


def _cmd_solve(settings: dict) -> int:
    problem = build_problem(settings)
    n_steps = int(_required(settings, "steps"))
    workers = _parse_list(settings["workers"], "--workers")
    if len(workers) != 1:
        raise ValueError(f"solve --workers takes one count, got {','.join(map(str, workers))}")
    chunk = int(settings["chunk"])
    output = settings["output"]
    traj = solve_strategy(problem, settings["strategy"], n_steps, workers[0], chunk)
    header = ["t"] + [f"y{i}" for i in range(traj.dim)]
    # Python floats: formatting numpy scalars is about a third slower
    write_csv(output, header, ([t, *y] for t, y in zip(traj.t.tolist(), traj.states.tolist())))
    print(f"wrote {traj.states.shape[0]} rows to {output}")
    return 0


def _cmd_bench(settings: dict) -> int:
    problem = build_problem(settings)
    output = settings["output"]
    records, idle_rows = run_sweep(
        problem,
        strategies=_parse_list(settings["strategy"], "--strategy", str),
        n_list=_parse_list(settings["steps"], "--steps"),
        workers_list=_parse_list(settings["workers"], "--workers"),
        chunk=int(settings["chunk"]),
        repetitions=int(settings["reps"]),
        log=print,
    )
    header = [f.name for f in dataclasses.fields(BenchRecord)]
    write_csv(output, header, map(dataclasses.astuple, records))
    print(f"wrote {len(records)} records to {output}")
    if idle_rows:
        idle_path = settings["idle_output"] or (os.path.splitext(output)[0] + "_idle.csv")
        write_csv(idle_path, IDLE_FIELDS, map(dict.values, idle_rows))
        print(f"wrote idle counts to {idle_path}")
    failed = [r for r in records if r.error]
    if failed:
        print(f"{len(failed)} cells failed numerically", file=sys.stderr)
    return 0


def _cmd_verify(settings: dict) -> int:
    output = settings["output"]
    results, reports = run_verification_suite()
    # an order fitted to roundoff is written blank
    rows = [
        (r.alpha, r.problem, n, e, None if exact_to_roundoff(r) else r.observed_order)
        for r in reports
        for n, e in r.errors
    ]
    write_csv(output, ["alpha", "problem", "N", "sup_error", "observed_order"], rows)
    for res in results:
        print(f"{'PASS' if res.passed else 'FAIL'}  {res.name}: {res.detail}")
    print(f"wrote convergence reports to {output}")
    if all(r.passed for r in results):
        print("verification suite: all checks passed")
        return 0
    print("verification suite: FAILURES detected", file=sys.stderr)
    return 1


_COMMANDS = {"solve": _cmd_solve, "bench": _cmd_bench, "verify": _cmd_verify}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    config = {}
    if getattr(args, "config", None):  # verify has no --config
        try:
            config = load_config_file(args.config)
        except (OSError, ValueError) as exc:
            print(f"configuration error: {exc}", file=sys.stderr)
            return 2
    try:
        settings = _settings(args, config)
        _check_outputs(settings)
        return _COMMANDS[args.command](settings)
    except SolverStepError as exc:
        print(f"numerical failure at step {exc.step}: {exc}", file=sys.stderr)
        return 1
    except StrategyTimeoutError as exc:
        print(f"strategy error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
