"""Chunked parallel-reduction solver.

The history of step n is tiled into fixed-width chunks: chunk j covers k in
[j*chunk, (j+1)*chunk), so step n has m = n // chunk + 1 chunks and only the
newest one, which holds k = n, is incomplete.  The m chunks are split into
contiguous spans, one per worker, each reduced by one fused (predictor,
corrector) product:

- the coordinator (worker 0, in the calling process) keeps the newest span,
  which always contains at least the newest chunk;
- the helpers take the older spans in ascending order.  Every term of an
  older span is final one step before it is needed, so, like the block
  engine's senders, helpers write their partials through a ring and run at
  least one step ahead of the coordinator.

The coordinator adds the helpers' partials in ascending span order to its own
and runs the shared PECE assembly.  Span boundaries depend only on (n, chunk,
workers), so a configuration is bitwise reproducible run to run.  When the
coordinator's span is the whole history (one worker, or one chunk per step)
its product is the very call the serial solver makes, which keeps the run
bitwise identical to it.  The coordinator cedes ``_BIAS_TERMS`` history
terms of its even share to the helpers to pay for the assembly; the
ceded count depends only on the chunk width.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .._threads import single_threaded_blas
from ..core import FractionalProblem, GridSpec
from ..serial import PeceStep, Trajectory
from . import _shm
from ._shm import DEFAULT_WATCHDOG_S, ERR, RING, SharedArena, _Abort

__all__ = ["solve_reduction_parallel"]

_BIAS_TERMS = 4096  # history terms ceded by the coordinator to the helpers


def _spans(m: int, workers: int, bias: int) -> list[tuple[int, int]]:
    """Chunk spans [j0, j1) of a step with m chunks, one per worker.

    Entry 0 is the coordinator's: the newest chunks, its even share less up
    to ``bias`` chunks, and never fewer than one.  The helpers split the
    older chunks evenly in ascending order.
    """
    if workers == 1:
        return [(0, m)]
    own = max(1, -(-m // workers) - bias)
    q, r = divmod(m - own, workers - 1)
    spans = [(m - own, m)]
    j = 0
    for w in range(workers - 1):
        size = q + (w < r)
        spans.append((j, j + size))
        j += size
    return spans


def solve_reduction_parallel(
    problem: FractionalProblem,
    grid: GridSpec,
    n_workers: int,
    chunk: int = 1024,
    *,
    watchdog_s: float = DEFAULT_WATCHDOG_S,
    stats: dict | None = None,
) -> Trajectory:
    """Solve with chunked history reduction across ``n_workers`` processes.

    The calling process acts as worker 0 and coordinator; ``n_workers - 1``
    helper processes are forked.  ``chunk`` of at least N, or a single
    worker, is bitwise identical to :func:`solve_serial`.
    """
    N = grid.n_steps
    d = problem.dim
    n_workers = int(n_workers)
    if not 1 <= n_workers <= N:
        raise ValueError(f"n_workers must lie in [1, {N}], got {n_workers}")
    chunk = int(chunk)
    if chunk < 1:
        raise ValueError(f"chunk must be >= 1, got {chunk}")
    P = n_workers
    bias = round(_BIAS_TERMS / chunk)

    arena = SharedArena(
        _shm.arena_size(
            8 * 8,                      # control words
            64 * (P + 1),               # counters
            512,                        # error message
            8 * d * (N + 1),            # rhs cache
            8 * P * RING * d * 2,       # partial-sum slots
            8 * P,                      # instrumentation
        )
    )
    ctrl = arena.int64(8)
    done = arena.counters(1)            # last step whose f_{n+1} is published
    sent = arena.counters(P)            # helper progress, one per worker
    msgbuf = arena.bytes_region(512)
    step = PeceStep(problem, grid, fT=arena.f64((d, N + 1)))
    slots = arena.f64((P, RING, d, 2))
    stat_msgs = arena.int64(P)
    done[0] = -1
    wait = functools.partial(_shm.wait_for, ctrl, msgbuf, watchdog_s)
    spans_for = functools.lru_cache(maxsize=None)(lambda m: _spans(m, P, bias))

    def helper(w: int) -> None:
        # helpers never time out on their own: they follow the coordinator's
        # progress or its error flag
        wait_inf = functools.partial(_shm.wait_for, ctrl, msgbuf, math.inf)
        sent_count = 0
        try:
            with single_threaded_blas():
                for n in range(N):
                    j0, j1 = spans_for(n // chunk + 1)[w]
                    if j0 == j1:
                        continue
                    lo, hi = j0 * chunk, j1 * chunk
                    # f_{hi-1} is published with step hi-2; the slot is free
                    # once the coordinator has consumed step n - RING
                    wait_inf(done, 0, max(hi - 2, n - RING + 2), "published rows")
                    slots[w, n % RING] = step.history(n, lo, hi)
                    sent[w] = n + 1
                    sent_count += 2
        except _Abort:
            pass
        except Exception as exc:  # pragma: no cover - defensive
            _shm.report_error(ctrl, msgbuf, 2, -1, f"{type(exc).__name__}: {exc}")
        finally:
            stat_msgs[w] = sent_count

    procs = []
    try:
        with single_threaded_blas():
            if P > 1:
                procs = _shm.fork_processes(helper, range(1, P))
            for n in range(N):
                spans = spans_for(n // chunk + 1)
                S = step.history(n, spans[0][0] * chunk, n + 1)
                ring = n % RING
                for w in range(1, P):
                    j0, j1 = spans[w]
                    if j1 > j0:
                        wait(sent, w, n + 1, "helper partials")
                        S += slots[w, ring]
                step.advance(n, S)
                done[0] = n
    except _Abort:
        pass
    except BaseException:
        # release helpers waiting for steps that will never be published
        _shm.report_error(ctrl, msgbuf, 2, -1, "coordinator stopped")
        raise
    finally:
        if procs:
            _shm.shutdown(procs, ctrl, msgbuf)

    if ctrl[ERR] != 0:
        _shm.raise_shared_error(ctrl, msgbuf, grid.h)

    if stats is not None:
        stats["idle_steps"] = np.zeros(P, dtype=np.int64)
        stats["partial_sums_sent"] = np.array(stat_msgs)
        stats["chunk"] = chunk

    return step.trajectory()
