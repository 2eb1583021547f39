"""Command-line interface: ``solve``, ``bench`` and ``verify`` subcommands.

All configuration is by flags, optionally seeded from a plain ``key=value``
config file (``--config``); explicit flags win.  Exit codes: 0 success,
1 numerical/solver failure (failing step reported on stderr), 2 usage or
configuration errors.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

import numpy as np

from .bench import (
    STRATEGIES,
    idle_to_csv,
    project_time,
    records_to_csv,
    run_sweep,
    solve_strategy,
)
from .checks import run_verification_suite
from .core import FractionalProblem, SolverStepError, StrategyTimeoutError
from .systems import (
    HR_DEFAULT_Y0,
    SYSTEM_NAMES,
    HindmarshRoseParams,
    rhs_constant,
    rhs_hindmarsh_rose,
    rhs_linear,
    rhs_power_law,
)

__all__ = ["main", "RunConfig", "build_problem"]


@dataclass(frozen=True)
class RunConfig:
    """The problem a command solves, fully determined (no hidden state or environment)."""

    system: str
    alpha: float
    t_max: float
    beta: float = 2.0
    lam: float = -1.0
    value: tuple = (0.0,)
    y0: tuple | None = None
    hr_params: dict | None = None


def build_problem(cfg: RunConfig) -> FractionalProblem:
    """Materialise the rhs and initial data named by a run configuration."""
    if cfg.system == "constant":
        value = np.asarray(cfg.value, dtype=float).reshape(-1)
        y0 = cfg.y0 if cfg.y0 is not None else np.zeros_like(value)
        return FractionalProblem(
            alpha=cfg.alpha, dim=len(value), rhs=rhs_constant(value), y0=y0, t_end=cfg.t_max
        )
    if cfg.system == "power-law":
        y0 = cfg.y0 if cfg.y0 is not None else [0.0]
        return FractionalProblem(
            alpha=cfg.alpha,
            dim=1,
            rhs=rhs_power_law(cfg.alpha, cfg.beta),
            y0=y0,
            t_end=cfg.t_max,
        )
    if cfg.system == "linear":
        y0 = cfg.y0 if cfg.y0 is not None else [1.0]
        y0 = np.asarray(y0, dtype=float).reshape(-1)
        return FractionalProblem(
            alpha=cfg.alpha, dim=len(y0), rhs=rhs_linear(cfg.lam), y0=y0, t_end=cfg.t_max
        )
    if cfg.system == "hindmarsh-rose":
        params = HindmarshRoseParams(**(cfg.hr_params or {}))
        y0 = cfg.y0 if cfg.y0 is not None else HR_DEFAULT_Y0
        return FractionalProblem(
            alpha=cfg.alpha, dim=3, rhs=rhs_hindmarsh_rose(params), y0=y0, t_end=cfg.t_max
        )
    raise ValueError(f"unknown system {cfg.system!r}; choose from {', '.join(SYSTEM_NAMES)}")


def write_trajectory_csv(path: str, traj) -> None:
    """Header t,y0,..,y{d-1}; 17 significant digits so values round-trip."""
    d = traj.dim
    t = traj.t
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t," + ",".join(f"y{i}" for i in range(d)) + "\n")
        for row in range(len(t)):
            vals = ",".join(f"{v:.17g}" for v in traj.states[row])
            fh.write(f"{t[row]:.17g},{vals}\n")


def _parse_floats(text: str) -> tuple:
    return tuple(float(x) for x in text.split(",") if x.strip() != "")


def _parse_list(text: str, flag: str, cast=int) -> tuple:
    """A comma list of at least one value."""
    values = tuple(cast(x.strip()) for x in text.split(",") if x.strip())
    if not values:
        raise ValueError(f"{flag} needs at least one value")
    return values


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


def _merged(args: argparse.Namespace, config: dict, key: str, cast, fallback):
    """Explicit flag > config file > built-in default."""
    cli_val = getattr(args, key, None)
    if cli_val is not None:
        return cli_val
    if key in config:
        return cast(config[key])
    return fallback


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fodeabm",
        description="Fractional-order ABM predictor-corrector solver and benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="key=value config file; flags override it")
        p.add_argument("--system", choices=SYSTEM_NAMES)
        p.add_argument("--alpha", type=float, help="fractional order in (0, 1]")
        p.add_argument("--tmax", type=float, help="time horizon T > 0")
        p.add_argument("--output", help="output CSV path")
        p.add_argument("--workers", type=str, help="worker count (bench: comma list)")
        p.add_argument("--chunk", type=int, help="reduction chunk width (default 1024)")
        p.add_argument("--beta", type=float, help="power-law exponent (default 2)")
        p.add_argument("--lam", type=float, help="linear coefficient (default -1)")
        p.add_argument("--value", type=str, help="constant rhs value, comma separated")
        p.add_argument("--y0", type=str, help="initial state, comma separated")
        p.add_argument(
            "--hr-param",
            action="append",
            default=None,
            metavar="NAME=VALUE",
            help="override a Hindmarsh-Rose constant (repeatable)",
        )

    p_solve = sub.add_parser("solve", help="integrate one problem and write the trajectory")
    common(p_solve)
    p_solve.add_argument("--steps", type=int, help="number of time steps N")
    p_solve.add_argument("--strategy", choices=STRATEGIES)

    p_bench = sub.add_parser("bench", help="timing sweep over strategies, N and workers")
    common(p_bench)
    p_bench.add_argument("--steps", type=str, help="comma list of N values")
    p_bench.add_argument("--strategy", type=str, help="comma list of strategies")
    p_bench.add_argument("--reps", type=int, help="timed repetitions per cell (default 3)")
    p_bench.add_argument("--idle-output", help="per-worker idle-count CSV (block strategy)")
    p_bench.add_argument(
        "--project", type=int, default=None, metavar="N",
        help="also print the O(N^2) extrapolated serial time for this N",
    )

    p_verify = sub.add_parser("verify", help="run the analytic verification suite")
    p_verify.add_argument("--config", help="key=value config file; flags override it")
    p_verify.add_argument("--output", help="convergence report CSV path")

    return parser


def _run_config_from_args(args: argparse.Namespace, config: dict) -> RunConfig:
    system = _merged(args, config, "system", str, None)
    if system is None:
        raise ValueError("--system is required")
    alpha = _merged(args, config, "alpha", float, None)
    if alpha is None:
        raise ValueError("--alpha is required (no default is assumed)")
    tmax = _merged(args, config, "tmax", float, None)
    if tmax is None:
        raise ValueError("--tmax is required")
    hr_items = getattr(args, "hr_param", None) or (
        [config["hr_param"]] if "hr_param" in config else []
    )
    hr_params = {}
    for item in hr_items:
        if "=" not in item:
            raise ValueError(f"--hr-param expects NAME=VALUE, got {item!r}")
        k, v = item.split("=", 1)
        hr_params[k.strip()] = float(v)
    y0_text = _merged(args, config, "y0", str, None)
    value_text = _merged(args, config, "value", str, "0")
    return RunConfig(
        system=system,
        alpha=alpha,
        t_max=tmax,
        beta=_merged(args, config, "beta", float, 2.0),
        lam=_merged(args, config, "lam", float, -1.0),
        value=_parse_floats(value_text),
        y0=_parse_floats(y0_text) if y0_text is not None else None,
        hr_params=hr_params or None,
    )


def _cmd_solve(args: argparse.Namespace, config: dict) -> int:
    cfg = _run_config_from_args(args, config)
    n_steps = _merged(args, config, "steps", int, None)
    if n_steps is None:
        raise ValueError("--steps is required")
    strategy = _merged(args, config, "strategy", str, "serial")
    workers = _parse_list(_merged(args, config, "workers", str, "2"), "--workers")
    if len(workers) != 1:
        raise ValueError(f"solve --workers takes one count, got {','.join(map(str, workers))}")
    chunk = _merged(args, config, "chunk", int, 1024)
    output = _merged(args, config, "output", str, "trajectory.csv")
    traj = solve_strategy(build_problem(cfg), strategy, n_steps, workers[0], chunk)
    write_trajectory_csv(output, traj)
    print(f"wrote {traj.states.shape[0]} rows to {output}")
    return 0


def _cmd_bench(args: argparse.Namespace, config: dict) -> int:
    problem = build_problem(_run_config_from_args(args, config))
    steps_text = _merged(args, config, "steps", str, "10000,20000")
    n_list = _parse_list(str(steps_text), "--steps")
    strategies_text = _merged(args, config, "strategy", str, "serial,block,reduction")
    strategies = _parse_list(strategies_text, "--strategy", str)
    workers_list = _parse_list(_merged(args, config, "workers", str, "2"), "--workers")
    chunk = _merged(args, config, "chunk", int, 1024)
    reps = _merged(args, config, "reps", int, 3)
    output = _merged(args, config, "output", str, "bench.csv")
    idle_output = _merged(args, config, "idle_output", str, None)

    records, idle_rows = run_sweep(
        problem,
        strategies=strategies,
        n_list=n_list,
        workers_list=workers_list,
        chunk=chunk,
        repetitions=reps,
        log=print,
    )
    with open(output, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(records_to_csv(records))
    print(f"wrote {len(records)} records to {output}")
    if idle_rows:
        idle_path = idle_output or (output.rsplit(".", 1)[0] + "_idle.csv")
        with open(idle_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(idle_to_csv(idle_rows))
        print(f"wrote idle counts to {idle_path}")
    target = getattr(args, "project", None) or 1_000_000
    proj = project_time(records, target)
    if proj is not None:
        print(f"projected serial time at N={target} (t ~ c*N^2): {proj:.1f}s")
    failed = [r for r in records if r.error]
    if failed:
        print(f"{len(failed)} cells failed numerically", file=sys.stderr)
    return 0


def _cmd_verify(args: argparse.Namespace, config: dict) -> int:
    output = _merged(args, config, "output", str, "verify_report.csv")
    results, reports = run_verification_suite()
    with open(output, "w", encoding="utf-8", newline="\n") as fh:
        for report in reports:
            fh.write(report.to_csv())
    for res in results:
        print(f"{'PASS' if res.passed else 'FAIL'}  {res.name}: {res.detail}")
    print(f"wrote convergence reports to {output}")
    if all(r.passed for r in results):
        print("verification suite: all checks passed")
        return 0
    print("verification suite: FAILURES detected", file=sys.stderr)
    return 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    config = {}
    if getattr(args, "config", None):
        try:
            config = load_config_file(args.config)
        except (OSError, ValueError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
    try:
        if args.command == "solve":
            return _cmd_solve(args, config)
        if args.command == "bench":
            return _cmd_bench(args, config)
        if args.command == "verify":
            return _cmd_verify(args, config)
        raise ValueError(f"unknown command {args.command!r}")
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
