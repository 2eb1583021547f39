"""Timing harness: strategy sweeps, speedups, idle counts, and the one CSV
writer of every file the package writes.

A cell is one (strategy, N, P, chunk) configuration.  ``run_sweep`` is the
one timing loop: it takes each N in turn, warms every cell up once, then
interleaves the cells in ``repetitions`` timed rounds, reports each cell's
median, and takes every parallel cell's speedup against the serial solve of
the same round.  Trajectories across repetitions of a cell must be bitwise
identical; the harness enforces that because a nondeterministic solver would
invalidate the whole comparison.
"""

from __future__ import annotations

import csv
import math
import statistics
import time
from dataclasses import dataclass

from .core import FractionalProblem, SolverStepError, StrategyTimeoutError
from .parallel import solve_block_parallel, solve_reduction_parallel
from .parallel.reduction import CHUNK, check_config
from .serial import solve_serial

__all__ = [
    "BenchRecord",
    "solve_strategy",
    "run_sweep",
    "write_csv",
]

STRATEGIES = ("serial", "block", "reduction")
IDLE_FIELDS = ("strategy", "n_steps", "workers", "worker", "idle_steps", "partial_sums_sent")


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


def run_sweep(
    problem: FractionalProblem,
    *,
    n_list,
    workers_list,
    repetitions: int,
    strategies=STRATEGIES,
    chunk: int = CHUNK,
    log=None,
) -> tuple[list[BenchRecord], list[dict]]:
    """Full grid of cells; serial cells are always run (they are the baseline).

    For each N every cell is warmed up once, then ``repetitions`` rounds run
    serial followed by each parallel cell, so host drift hits all cells of
    a round alike.  A cell's time is its median over the rounds and its
    speedup the median of its per-round ratios to serial.  Trajectories
    must be bitwise identical across a cell's solves.  Returns the records
    plus per-cell idle-count rows for the block strategy.  A numerically
    failing cell is recorded with its error and leaves the later rounds.
    A repeated value, an unknown strategy or a cell the engines refuse is
    a ValueError before the first solve, named in ``fodeabm bench`` flags.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    for flag, values in (("--strategy", strategies), ("--steps", n_list), ("--workers", workers_list)):
        if len(set(values)) < len(values):
            raise ValueError(f"{flag} repeats a value: {','.join(map(str, values))}")
    for strategy in strategies:
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}")
    records: list[BenchRecord] = []
    idle_rows: list[dict] = []
    cells = [("serial", 1)] + [(s, w) for s in strategies if s != "serial" for w in workers_list]
    for n_steps in n_list:
        problem.grid(n_steps)
        for strategy, workers in cells[1:]:
            # block runs the reduction engine at chunk ceil(N/P) >= 1
            reduction = strategy == "reduction"
            try:
                check_config(n_steps, workers, chunk if reduction else 1)
            except ValueError as exc:
                flags = f"--steps {n_steps} --workers {workers}" + (f" --chunk {chunk}" if reduction else "")
                raise ValueError(f"{strategy} at {flags}: {exc}") from None
    for n_steps in n_list:
        times: dict = {cell: [] for cell in cells}
        digests: dict = {}
        stats: dict = {}
        errors: dict = {}
        for rnd in range(repetitions + 1):  # round 0 is the warm-up
            for cell in cells:
                if cell in errors:
                    continue
                strategy, workers = cell
                stats[cell] = {}
                t0 = time.perf_counter()
                try:
                    traj = solve_strategy(problem, strategy, n_steps, workers, chunk, stats[cell])
                except (SolverStepError, StrategyTimeoutError) as exc:
                    errors[cell] = str(exc)
                    continue
                if rnd:
                    times[cell].append(time.perf_counter() - t0)
                    digest = traj.states.tobytes()
                    if digests.setdefault(cell, digest) != digest:
                        raise RuntimeError(
                            f"nondeterministic trajectories across repetitions in cell "
                            f"({strategy}, N={n_steps}, P={workers}, chunk={chunk})"
                        )
        serial_times = times[("serial", 1)]
        for cell in cells:
            strategy, workers = cell
            cell_chunk = chunk if strategy == "reduction" else None
            label = f"{strategy:<12} N={n_steps:>8}" + ("" if strategy == "serial" else f" P={workers}")
            if cell in errors:
                records.append(
                    BenchRecord(strategy, n_steps, workers, cell_chunk, math.nan, repetitions, math.nan, errors[cell])
                )
                if log:
                    log(f"{label}  FAILED: {errors[cell]}")
                continue
            t = statistics.median(times[cell])
            speedup = math.nan
            if ("serial", 1) not in errors:
                speedup = statistics.median(s / c for s, c in zip(serial_times, times[cell]))
            records.append(
                BenchRecord(strategy, n_steps, workers, cell_chunk, t, repetitions, speedup)
            )
            if log:
                log(f"{label} {t:8.3f}s" + ("" if strategy == "serial" else f"  speedup {speedup:5.2f}"))
            if strategy == "block":
                sent = stats[cell]["partial_sums_sent"]
                for w, idle in enumerate(stats[cell]["idle_steps"]):
                    row = (strategy, n_steps, workers, w, int(idle), int(sent[w]))
                    idle_rows.append(dict(zip(IDLE_FIELDS, row)))
    return records, idle_rows


def write_csv(path: str, header, rows) -> None:
    """Write ``path``, UTF-8 with "\\n" line ends: a header line, then one line per row.

    Floats keep 17 significant digits, so they round-trip; None is blank.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows([f"{v:.17g}" if isinstance(v, float) else v for v in row] for row in rows)
