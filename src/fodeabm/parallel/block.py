"""Block-partitioned parallel solver.

Each worker owns a contiguous block of steps.  During step n the owner of n
assembles the full history sums: every worker below the owner computes the
fused (predictor, corrector) product over its own block and sends it up (one
message per step), the owner adds its local range and runs the shared PECE
assembly, and publishes y_{n+1} / f_{n+1} before step n+1 starts.  Workers
above the owner are idle until the iteration reaches their block; lower
workers re-scan their whole block each step because the weights shift with
n, so total work stays O(N^2) by construction.

The MPI send/receive pairs of the original scheme become slots in shared
memory guarded by monotonic counters: a sender bumping ``sent[w]`` past n is
the send, the owner waiting for that counter is the receive.  Senders may
run ahead of the owner by up to the ring depth; the message pattern per step
is unchanged.
"""

from __future__ import annotations

import functools
import time

import numpy as np

from .._threads import single_threaded_blas
from ..core import FractionalProblem, GridSpec, SolverStepError
from ..serial import PeceStep, Trajectory
from . import _shm
from ._shm import DEFAULT_WATCHDOG_S, ERR, RING, SharedArena, _Abort
from .partition import make_partition

__all__ = ["solve_block_parallel"]


def solve_block_parallel(
    problem: FractionalProblem,
    grid: GridSpec,
    n_workers: int,
    *,
    watchdog_s: float = DEFAULT_WATCHDOG_S,
    stats: dict | None = None,
) -> Trajectory:
    """Solve with P block workers; equivalent to :func:`solve_serial`.

    With ``n_workers=1`` the result is bitwise identical to the serial
    solver.  ``stats``, when given, receives per-worker instrumentation:
    ``idle_steps`` (steps spent before the iteration reached the worker's
    block) and ``partial_sums_sent`` (partial sums pushed to owners, two per
    message).
    """
    N = grid.n_steps
    d = problem.dim
    plan = make_partition(N, n_workers)
    P = plan.n_workers

    arena = SharedArena(
        _shm.arena_size(
            8 * 8,                      # control words
            64 * (P + 1),               # counters
            512,                        # error message
            8 * (N + 1) * d,            # states
            8 * d * (N + 1),            # rhs cache
            8 * P * RING * d * 2,       # partial-sum slots
            8 * 2 * P,                  # instrumentation
        )
    )
    ctrl = arena.int64(8)
    done_step = arena.counters(1)       # last fully published step
    sent = arena.counters(P)            # sender progress, one per worker
    msgbuf = arena.bytes_region(512)
    step = PeceStep(problem, grid, arena.f64((N + 1, d)), arena.f64((d, N + 1)))
    slots = arena.f64((P, RING, d, 2))
    stat_idle = arena.int64(P)
    stat_msgs = arena.int64(P)
    done_step[0] = -1
    wait = functools.partial(_shm.wait_for, ctrl, msgbuf, watchdog_s)

    def worker(w: int) -> None:
        lo, hi = plan.blocks[w]
        sent_count = 0
        try:
            with single_threaded_blas():
                # idle phase: steps before this worker's block
                stat_idle[w] = min(lo, N)
                # owner phase
                for n in range(lo, hi):
                    if n == lo:
                        wait(done_step, 0, n - 1, "published rows")
                    elif ctrl[ERR] != 0:
                        raise _Abort()
                    # local range first: it overlaps with the senders' work
                    S = step.history(n, lo, n + 1)
                    ring = n % RING
                    for w2 in range(w):
                        wait(sent, w2, n + 1, "partials from a lower block")
                    if w:
                        S += slots[:w, ring].sum(axis=0)
                    try:
                        step.advance(n, S)
                    except SolverStepError as exc:
                        _shm.report_error(ctrl, msgbuf, 1, exc.step, exc.reason)
                        raise _Abort()
                    done_step[0] = n
                # sender phase: this block feeds every later owner
                if lo < hi:
                    for n in range(hi, N):
                        if ctrl[ERR] != 0:
                            raise _Abort()
                        wait(done_step, 0, n - RING + 2, "ring space")
                        slots[w, n % RING] = step.history(n, lo, hi)
                        sent[w] = n + 1
                        sent_count += 2
        except _Abort:
            pass
        except Exception as exc:  # pragma: no cover - defensive
            _shm.report_error(ctrl, msgbuf, 2, -1, f"{type(exc).__name__}: {exc}")
        finally:
            stat_msgs[w] = sent_count

    with single_threaded_blas():
        procs = _shm.fork_processes(worker, range(P))
        try:
            last = -1
            quiet_since = time.monotonic()
            while any(p.is_alive() for p in procs):
                for p in procs:
                    p.join(timeout=0.02)
                if ctrl[ERR] != 0:
                    break  # shutdown() below terminates stragglers after a grace period
                cur = int(done_step[0])
                now = time.monotonic()
                if cur != last:
                    last = cur
                    quiet_since = now
                elif now - quiet_since > watchdog_s:
                    _shm.report_error(ctrl, msgbuf, 3, last, "owner made no progress")
            if ctrl[ERR] == 0 and any(p.exitcode not in (0, None) for p in procs):
                _shm.report_error(ctrl, msgbuf, 2, -1, "a worker exited abnormally")
        finally:
            _shm.shutdown(procs, ctrl, msgbuf)

    if ctrl[ERR] != 0:
        _shm.raise_shared_error(ctrl, msgbuf, grid.h)

    if stats is not None:
        stats["idle_steps"] = np.array(stat_idle)
        stats["partial_sums_sent"] = np.array(stat_msgs)
        stats["plan"] = plan

    return step.trajectory()
