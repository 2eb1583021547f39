"""Timing harness: strategy sweeps, speedups, idle counts, O(N^2) projection.

A cell is one (strategy, N, P, chunk) configuration.  Cells run sequentially
(warmup solve discarded, then ``repetitions`` timed solves; the median is
reported) and the speedup of every parallel cell is taken against the serial
cell at the same N.  Trajectories across repetitions of a cell must be
bitwise identical; the harness enforces that because a nondeterministic
solver would invalidate the whole comparison.
"""

from __future__ import annotations

import csv
import io
import math
import statistics
import time
from dataclasses import dataclass

from .core import FractionalProblem, SolverStepError, StrategyTimeoutError
from .parallel import solve_block_parallel, solve_reduction_parallel
from .serial import solve_serial

__all__ = [
    "BenchRecord",
    "solve_strategy",
    "run_cell",
    "run_sweep",
    "records_to_csv",
    "idle_to_csv",
    "project_time",
]

STRATEGIES = ("serial", "block", "reduction")


@dataclass(frozen=True)
class BenchRecord:
    """One timing measurement; chunk is None for non-reduction strategies."""

    strategy: str
    n_steps: int
    workers: int
    chunk: int | None
    wall_time_s: float
    repetitions: int
    speedup_vs_serial: float
    error: str = ""


def solve_strategy(
    problem: FractionalProblem,
    strategy: str,
    n_steps: int,
    workers: int,
    chunk: int,
    stats: dict | None = None,
):
    """Solve on an N-step grid with the named strategy (one of ``STRATEGIES``).

    ``workers`` applies to block and reduction, ``chunk`` to reduction only.
    """
    grid = problem.grid(n_steps)
    if strategy == "serial":
        return solve_serial(problem, grid)
    if strategy == "block":
        return solve_block_parallel(problem, grid, workers, stats=stats)
    if strategy == "reduction":
        return solve_reduction_parallel(problem, grid, workers, chunk, stats=stats)
    raise ValueError(f"unknown strategy {strategy!r}")


def run_cell(
    problem: FractionalProblem,
    strategy: str,
    n_steps: int,
    workers: int = 1,
    chunk: int = 1024,
    repetitions: int = 3,
    warmup: bool = True,
) -> tuple[float, dict]:
    """Median wall time of the cell; also returns last-run instrumentation.

    Raises if any repetition fails numerically or the trajectories differ
    between repetitions.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    stats: dict = {}
    if warmup:
        solve_strategy(problem, strategy, n_steps, workers, chunk)
    times = []
    digest = None
    for _ in range(repetitions):
        stats = {}
        t0 = time.perf_counter()
        traj = solve_strategy(problem, strategy, n_steps, workers, chunk, stats)
        times.append(time.perf_counter() - t0)
        d = traj.states.tobytes()
        if digest is None:
            digest = d
        elif d != digest:
            raise RuntimeError(
                f"nondeterministic trajectories across repetitions in cell "
                f"({strategy}, N={n_steps}, P={workers}, chunk={chunk})"
            )
    return statistics.median(times), stats


def run_sweep(
    problem: FractionalProblem,
    strategies=STRATEGIES,
    n_list=(10000, 20000),
    workers_list=(2,),
    chunk: int = 1024,
    repetitions: int = 3,
    log=None,
) -> tuple[list[BenchRecord], list[dict]]:
    """Full grid of cells; serial cells are always run (they are the baseline).

    Returns the records plus per-cell idle-count rows for the block strategy.
    A numerically failing cell is recorded with its error and the sweep
    continues.
    """
    records: list[BenchRecord] = []
    idle_rows: list[dict] = []
    for n_steps in n_list:
        serial_time = math.nan
        try:
            serial_time, _ = run_cell(problem, "serial", n_steps, repetitions=repetitions)
            records.append(
                BenchRecord("serial", n_steps, 1, None, serial_time, repetitions, 1.0)
            )
            if log:
                log(f"serial       N={n_steps:>8}  {serial_time:8.3f}s")
        except (SolverStepError, StrategyTimeoutError) as exc:
            records.append(BenchRecord("serial", n_steps, 1, None, math.nan, repetitions, math.nan, str(exc)))
            if log:
                log(f"serial       N={n_steps:>8}  FAILED: {exc}")
        for strategy in strategies:
            if strategy == "serial":
                continue
            for workers in workers_list:
                cell_chunk = chunk if strategy == "reduction" else None
                try:
                    t, stats = run_cell(
                        problem, strategy, n_steps, workers, chunk, repetitions=repetitions
                    )
                    speedup = serial_time / t if t > 0 else math.nan
                    records.append(
                        BenchRecord(strategy, n_steps, workers, cell_chunk, t, repetitions, speedup)
                    )
                    if log:
                        log(
                            f"{strategy:<12} N={n_steps:>8} P={workers} "
                            f"{t:8.3f}s  speedup {speedup:5.2f}"
                        )
                    if strategy == "block" and "idle_steps" in stats:
                        for w, idle in enumerate(stats["idle_steps"]):
                            idle_rows.append(
                                {
                                    "strategy": strategy,
                                    "n_steps": n_steps,
                                    "workers": workers,
                                    "worker": w,
                                    "idle_steps": int(idle),
                                    "messages_sent": int(stats["partial_sums_sent"][w]),
                                }
                            )
                except (SolverStepError, StrategyTimeoutError) as exc:
                    records.append(
                        BenchRecord(strategy, n_steps, workers, cell_chunk, math.nan, repetitions, math.nan, str(exc))
                    )
                    if log:
                        log(f"{strategy:<12} N={n_steps:>8} P={workers}  FAILED: {exc}")
    return records, idle_rows


def project_time(records: list[BenchRecord], n_target: int) -> float | None:
    """Extrapolate the serial wall time to n_target via the O(N^2) cost model.

    Uses the largest measured serial cell: t(N') ~ t(N) * (N'/N)^2.
    """
    serial = [r for r in records if r.strategy == "serial" and math.isfinite(r.wall_time_s)]
    if not serial:
        return None
    biggest = max(serial, key=lambda r: r.n_steps)
    return biggest.wall_time_s * (n_target / biggest.n_steps) ** 2


def records_to_csv(records: list[BenchRecord]) -> str:
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(
        ["strategy", "n_steps", "workers", "chunk", "wall_time_s", "repetitions", "speedup_vs_serial", "error"]
    )
    for r in records:
        w.writerow(
            [
                r.strategy,
                r.n_steps,
                r.workers,
                "" if r.chunk is None else r.chunk,
                f"{r.wall_time_s:.17g}",
                r.repetitions,
                f"{r.speedup_vs_serial:.17g}",
                r.error,
            ]
        )
    return out.getvalue()


def idle_to_csv(idle_rows: list[dict]) -> str:
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(["strategy", "n_steps", "workers", "worker", "idle_steps", "messages_sent"])
    for row in idle_rows:
        w.writerow(
            [row["strategy"], row["n_steps"], row["workers"], row["worker"], row["idle_steps"], row["messages_sent"]]
        )
    return out.getvalue()
