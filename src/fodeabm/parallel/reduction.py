"""Chunked parallel-reduction solver.

The history of step n is tiled into fixed-width chunks: chunk j covers k in
[j*chunk, (j+1)*chunk), so step n has m = n // chunk + 1 chunks and only the
newest one, which holds k = n, is incomplete.  The m chunks are split into
contiguous spans, one per worker, each reduced by one fused (predictor,
corrector) product:

- the coordinator (worker 0, in the calling process) keeps the newest span,
  which always contains at least the newest chunk;
- the helpers take the older spans in ascending order.  Every term of an
  older span is final one step before it is needed, so helpers write their
  partials through a ring and run at least one step ahead of the
  coordinator.

The coordinator adds the helpers' partials in ascending span order to its own
and runs the shared PECE assembly.  Span boundaries depend only on (n, chunk,
workers), so a configuration is bitwise reproducible run to run.  When the
coordinator's span is the whole history (one chunk per step) its product is
the very call the serial solver makes, which keeps the run bitwise
identical to it.  The coordinator cedes ``_BIAS_TERMS`` history
terms of its even share to the helpers to pay for the assembly; the
ceded count depends only on the chunk width.  The rhs and the assembly run
in the calling process only, so an rhs fails here exactly as in the serial
solver.  A helper that exits before it sends an awaited partial (an
exception, a kill) is :class:`SolverStepError` at the step the coordinator
could not complete, reported as soon as the coordinator waits on it; a
helper that lives but stops answering trips the ``_shm.WATCHDOG_S``
timeout (:class:`StrategyTimeoutError`).  However the solve ends, the
coordinator then kills and reaps its helpers.

A helper whose span of a step is empty skips it; those steps are its
``idle_steps``.  A helper is forked only when its share of the history pays
for it.  When a single worker is asked for, or any helper's share (its
history terms times d, summed over its steps) is below ``_HELPER_FLOOR``,
the solve is :func:`solve_serial` in the calling process, and every helper
idles for all N steps.
"""

from __future__ import annotations

import os

import numpy as np

from .._threads import single_threaded_blas
from ..core import FractionalProblem, GridSpec, SolverStepError
from ..serial import PeceStep, Trajectory, solve_serial
from . import _shm
from ._shm import RING

__all__ = ["CHUNK", "check_config", "solve_reduction_parallel"]

# The one default chunk width: the solver's, the CLI's, run_sweep's and the
# verification suite's.  No sweep has compared it with other widths.
CHUNK = 1024

# The coordinator alone runs every step's assembly and both rhs calls, so an
# even split of the history leaves the helpers waiting on it.  Ceding this
# many of its terms to them pays for that assembly; without it, or with the
# coordinator keeping only the newest chunk, the speedup drops (README).
_BIAS_TERMS = 4096

# A helper costs 1-2 ms to fork and reap and the coordinator 1.5-2.7 us for
# each partial it consumes, and it saves 0.2-0.8 ns of contraction per
# term-dim.  Forced helpers broke even at shares of 2e7-8e7 term-dims
# (terms times d, summed over the helper's steps) and mostly lost below
# 5e7; below this floor none is forked (README, The helper floor).
_HELPER_FLOOR = 5e7


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


def _span_table(n_steps: int, workers: int, chunk: int) -> list[tuple[int, int, list]]:
    """(n0, n1, spans) per chunk period: the steps [n0, n1) have m chunks.

    Span boundaries change only where a step gains a chunk, so this table
    is every step's split.
    """
    bias = round(_BIAS_TERMS / chunk)
    return [
        ((m - 1) * chunk, min(m * chunk, n_steps), _spans(m, workers, bias))
        for m in range(1, (n_steps - 1) // chunk + 2)
    ]


def _helper_work(table, workers: int, chunk: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Per worker, its active steps and its share of the history in term-dims.

    A worker is active on the steps whose span for it is not empty.  Its
    share is its span width in terms times ``dim``, summed over those
    steps; entry 0 counts the coordinator's newest, incomplete chunk as
    full.
    """
    steps = np.zeros(workers, np.int64)
    share = np.zeros(workers, np.int64)
    for n0, n1, spans in table:
        for w, (j0, j1) in enumerate(spans):
            if j1 > j0:
                steps[w] += n1 - n0
                share[w] += (n1 - n0) * (j1 - j0) * chunk * dim
    return steps, share


def check_config(n_steps: int, n_workers: int, chunk: int) -> None:
    """Refuse a worker count outside [1, n_steps] or a chunk below 1."""
    if not 1 <= n_workers <= n_steps:
        raise ValueError(f"n_workers must lie in [1, {n_steps}], got {n_workers}")
    if chunk < 1:
        raise ValueError(f"chunk must be >= 1, got {chunk}")


def solve_reduction_parallel(
    problem: FractionalProblem,
    grid: GridSpec,
    n_workers: int,
    chunk: int = CHUNK,
    *,
    stats: dict | None = None,
) -> Trajectory:
    """Solve with chunked history reduction across ``n_workers`` processes.

    The calling process acts as worker 0 and coordinator; ``n_workers - 1``
    helper processes are forked, unless a helper's share of the history is
    below ``_HELPER_FLOOR``.  A single worker, ``chunk`` of at least N, or a
    share below the floor is bitwise identical to :func:`solve_serial`.
    ``stats``, when given, receives per-worker ``idle_steps`` (steps whose
    span was empty, or all N for a helper not forked) and
    ``partial_sums_sent`` (two per helper message).
    """
    N = grid.n_steps
    P = int(n_workers)
    chunk = int(chunk)
    check_config(N, P, chunk)
    table = _span_table(N, P, chunk)
    steps, share = _helper_work(table, P, chunk, problem.dim)
    if P == 1 or share[1:].min() < _HELPER_FLOOR:
        steps[1:] = 0
        traj = solve_serial(problem, grid)
    else:
        traj = _solve_forked(problem, grid, P, chunk, table)
    if stats is not None:
        stats["idle_steps"] = N - steps
        # a helper sends one predictor and one corrector partial every step
        # it is active; the coordinator sends nothing
        sent_partials = 2 * steps
        sent_partials[0] = 0
        stats["partial_sums_sent"] = sent_partials
    return traj


def _solve_forked(problem, grid, P: int, chunk: int, table) -> Trajectory:
    """The engine proper: fork P - 1 helpers and coordinate the steps of ``table``."""
    N = grid.n_steps
    d = problem.dim
    timeout_s = _shm.WATCHDOG_S

    done = _shm.counters(1)             # last step whose f_{n+1} is published
    sent = _shm.counters(P)             # helper progress, one per worker
    step = PeceStep(problem, grid, fT=_shm.shared((d, N + 1)))
    # ring r of worker w, transposed: a column-major (d, 2) slot per step,
    # laid out as the coordinator's own sums
    rings = _shm.shared((P, RING, 2, d)).transpose(0, 1, 3, 2)
    done[0] = -1

    coordinator = os.getpid()

    def orphaned() -> bool:
        return os.getppid() != coordinator

    def helper(w: int) -> None:
        # helpers never time out on their own: they follow the coordinator's
        # progress until it kills them, or notice that it died.  Forked
        # inside the coordinator's single_threaded_blas(), they inherit its pin
        history, ring = step.history, rings[w]
        try:
            for n0, n1, spans in table:
                j0, j1 = spans[w]
                if j0 == j1:
                    continue
                lo, hi = j0 * chunk, j1 * chunk
                for n in range(n0, n1):
                    # f_{hi-1} is published with step hi-2; the slot is free
                    # once the coordinator has consumed step n - RING
                    _shm.wait_for(done, 0, max(hi - 2, n - RING + 2), orphaned)
                    history(n, lo, hi, ring[n % RING])
                    sent[w] = n + 1
        except _shm.Stopped:
            pass

    procs = []
    w = 0  # the helper awaited last, for the error report
    try:
        with single_threaded_blas():
            procs = _shm.fork_processes(helper, range(1, P))
            # a helper exits with code 0 once it has sent its last partial,
            # possibly while another is still awaited, so only the awaited
            # helper's exit counts
            exited = [None] + [lambda p=p: p.exitcode is not None for p in procs]
            history, S = step.history, step.S

            def sums(n: int) -> None:
                # publishes step n - 1 as soon as it is done, then adds the
                # helpers' partials in ascending span order to the own span's
                nonlocal w
                done[0] = n - 1
                history(n, lo, n + 1, S)
                for w in active:
                    if sent[w] <= n:
                        _shm.wait_for(sent, w, n + 1, exited[w], timeout_s, "helper partials")
                    np.add(S, rings[w, n % RING], out=S)

            for n0, n1, spans in table:
                lo = spans[0][0] * chunk
                active = [v for v in range(1, P) if spans[v][1] > spans[v][0]]
                step.run(n0, n1, sums)
    except _shm.Stopped:
        # the failing step is the one whose sums were awaited
        n = int(done[0]) + 1
        raise SolverStepError(
            f"worker failed: helper {w} exited with code {procs[w - 1].exitcode}",
            step=n,
            t=(n + 1) * grid.h,
        ) from None
    finally:
        _shm.shutdown(procs)

    # f_cache views the shared history, which keeps its mapping alive; the
    # helpers, now reaped, only ever read it
    return step.trajectory()
