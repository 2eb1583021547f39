"""Command-line interface: ``solve``, ``bench`` and ``verify`` subcommands.

All configuration is by flags, and each flag's default, type and
``required=`` live in its one ``add_argument`` call.  An argument ``@FILE``
reads more arguments from FILE, one per line, in its place, so later flags
override it (argparse's ``fromfile_prefix_chars``).  ``verify`` takes only
``--output``.  Exit codes: 0 success, 1 numerical/solver failure (failing
step reported on stderr) or a ``bench`` cell that failed numerically, 2 usage
or configuration errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

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


def _idle_path(output: str) -> str:  # bench's idle CSV: _idle.csv in place of the extension
    return os.path.splitext(output)[0] + "_idle.csv"


def _check_outputs(args: argparse.Namespace) -> None:
    """Refuse, before any solve, an output path whose directory cannot take it,
    and a ``bench`` whose idle CSV, in the same directory, is a directory."""
    path, directory = args.output, os.path.dirname(args.output) or "."
    if os.path.isdir(path) or not os.path.isdir(directory) or not os.access(directory, os.W_OK):
        raise ValueError(f"--output {path!r}: not a file in a writable directory")
    if args.command == "bench" and os.path.isdir(_idle_path(path)):
        raise ValueError(f"--output {path!r}: its idle CSV {_idle_path(path)!r} is a directory")


def _parse_list(text: str, flag: str, cast=int) -> tuple:
    """A comma list of at least one value."""
    values = tuple(cast(x.strip()) for x in text.split(",") if x.strip())
    if not values:
        raise ValueError(f"{flag} needs at least one value")
    return values


def build_problem(args: argparse.Namespace) -> FractionalProblem:
    """Materialise the rhs and initial data named by a command's parsed flags."""
    system, alpha, t_max = args.system, args.alpha, args.tmax
    hr_params, hr_names = {}, [f.name for f in dataclasses.fields(HindmarshRoseParams)]
    for item in args.hr_param:
        if "=" not in item:
            raise ValueError(f"--hr-param expects NAME=VALUE, got {item!r}")
        k, v = (part.strip() for part in item.split("=", 1))
        if k not in hr_names:
            raise ValueError(f"unknown --hr-param {k!r}; choose from {', '.join(hr_names)}")
        hr_params[k] = float(v)
    value = _parse_list(args.value, "--value", float)
    y0 = None if args.y0 is None else _parse_list(args.y0, "--y0", float)
    if system == "constant":
        y0 = (0.0,) * len(value) if y0 is None else y0
        return FractionalProblem(alpha, len(value), rhs_constant(value), y0, t_max)
    if system == "power-law":
        y0 = (0.0,) if y0 is None else y0
        return FractionalProblem(alpha, 1, rhs_power_law(alpha, args.beta), y0, t_max)
    if system == "linear":
        y0 = (1.0,) if y0 is None else y0
        return FractionalProblem(alpha, len(y0), rhs_linear(args.lam), y0, t_max)
    if system == "hindmarsh-rose":
        y0 = HR_DEFAULT_Y0 if y0 is None else y0
        params = HindmarshRoseParams(**hr_params)
        return FractionalProblem(alpha, 3, rhs_hindmarsh_rose(params), y0, t_max)
    raise ValueError(f"unknown system {system!r}; choose from {', '.join(SYSTEM_NAMES)}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fodeabm",
        description="Fractional-order ABM predictor-corrector solver and benchmark harness",
        fromfile_prefix_chars="@",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--system", choices=SYSTEM_NAMES, required=True)
        p.add_argument("--alpha", type=float, required=True, help="fractional order in (0, 1]")
        p.add_argument("--tmax", type=float, required=True, help="time horizon T > 0")
        p.add_argument("--chunk", type=int, default=CHUNK, help="reduction chunk width (default %(default)s)")
        p.add_argument("--beta", type=float, default=2.0, help="power-law exponent (default %(default)g)")
        p.add_argument("--lam", type=float, default=-1.0, help="linear coefficient (default %(default)g)")
        p.add_argument("--value", default="0", help="constant rhs value, comma separated")
        p.add_argument("--y0", help="initial state, comma separated")
        p.add_argument(
            "--hr-param",
            action="append",
            default=[],
            metavar="NAME=VALUE",
            help="override a Hindmarsh-Rose constant (repeatable)",
        )

    p_solve = sub.add_parser("solve", help="integrate one problem and write the trajectory")
    common(p_solve)
    p_solve.add_argument("--steps", type=int, required=True, help="number of time steps N")
    p_solve.add_argument("--strategy", choices=STRATEGIES, default="serial")
    p_solve.add_argument("--workers", type=int, default=2, help="worker count (default %(default)s)")
    p_solve.add_argument("--output", default="trajectory.csv", help="output CSV path")

    p_bench = sub.add_parser("bench", help="timing sweep over strategies, N and workers")
    common(p_bench)
    p_bench.add_argument("--steps", default="10000,20000", help="comma list of N values")
    p_bench.add_argument("--strategy", default=",".join(STRATEGIES), help="comma list of strategies")
    p_bench.add_argument("--workers", default="2", help="comma list of worker counts")
    p_bench.add_argument("--reps", type=int, default=3, help="timed repetitions per cell (default %(default)s)")
    p_bench.add_argument("--output", default="bench.csv", help="output CSV path (idle counts: <stem>_idle.csv)")

    p_verify = sub.add_parser("verify", help="run the analytic verification suite")
    p_verify.add_argument("--output", default="verify_report.csv", help="convergence report CSV path")

    return parser


def _cmd_solve(args: argparse.Namespace) -> int:
    problem = build_problem(args)
    traj = solve_strategy(problem, args.strategy, args.steps, args.workers, args.chunk)
    header = ["t"] + [f"y{i}" for i in range(traj.dim)]
    # Python floats: formatting numpy scalars is about a third slower
    write_csv(args.output, header, ([t, *y] for t, y in zip(traj.t.tolist(), traj.states.tolist())))
    print(f"wrote {traj.states.shape[0]} rows to {args.output}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    problem = build_problem(args)
    output = args.output
    records, idle_rows = run_sweep(
        problem,
        strategies=_parse_list(args.strategy, "--strategy", str),
        n_list=_parse_list(args.steps, "--steps"),
        workers_list=_parse_list(args.workers, "--workers"),
        chunk=args.chunk,
        repetitions=args.reps,
        log=print,
    )
    header = [f.name for f in dataclasses.fields(BenchRecord)]
    write_csv(output, header, map(dataclasses.astuple, records))
    print(f"wrote {len(records)} records to {output}")
    if idle_rows:
        idle_path = _idle_path(output)
        write_csv(idle_path, IDLE_FIELDS, map(dict.values, idle_rows))
        print(f"wrote idle counts to {idle_path}")
    failed = [r for r in records if r.error]
    if failed:
        print(f"{len(failed)} cells failed numerically", file=sys.stderr)
        return 1
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    output = args.output
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
    try:
        _check_outputs(args)
        with np.errstate(over="ignore", invalid="ignore"):  # divergence is a step error
            return _COMMANDS[args.command](args)
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
