"""Shared-memory scaffolding for the fork-based worker engine.

Workers are long-lived processes forked from the solving process.  They
communicate through numpy views of anonymous shared mmaps: monotonic int64
counters act as the message channels (a counter advancing past n publishes
the slot contents for step n), and float64 arrays hold the rhs history and
the per-step partial sums.  Read-only data such as the weight table is
inherited through fork instead.

Counter protocol: the data for a step is always written *before* the counter
store that announces it, and every counter has a single writer at any time.
This relies on the total-store-order semantics of x86-64 (and the cache
coherence of a single host); no fences are issued from Python, so
:func:`fork_processes` refuses any other machine.

No error travels through shared memory.  Each wait is given a ``stopped``
test for the process it depends on, and an exception is raised where it
happens.  The coordinator's exceptions reach the caller, and on every way
out it kills and reaps its helpers, which hold only anonymous shared
mappings.  A helper's waits test only for re-parenting, the sign of a
coordinator killed first.  An exception in a helper ends that process with
exit code 1, and the coordinator's next wait on the helper sees the exit.
"""

from __future__ import annotations

import math
import mmap
import platform
import threading
import time
import warnings
from typing import Callable, Sequence

import multiprocessing as mp

import numpy as np

from ..core import StrategyTimeoutError

_CACHE_LINE = 64
_SPIN_MASK = 255  # spin iterations between slow-path checks

# Seconds the coordinator waits on a helper's partials before it raises
# StrategyTimeoutError; read when a solve starts
WATCHDOG_S = 60.0
RING = 256  # partial-sum slots per sender; senders may lead the consumer by this many steps
_X86_64 = ("x86_64", "AMD64")


class Stopped(Exception):
    """Internal: the process a wait depends on has stopped for good."""


def shared(shape: int | Sequence[int], dtype=np.float64) -> np.ndarray:
    """A zero-filled array in its own anonymous shared mapping.

    Forked workers share the mapping, so each sees every write to it.
    """
    shape = (shape,) if isinstance(shape, int) else tuple(shape)
    count = math.prod(shape)
    buf = mmap.mmap(-1, count * np.dtype(dtype).itemsize)
    return np.frombuffer(buf, dtype, count).reshape(shape)


def counters(count: int) -> np.ndarray:
    """``count`` shared monotonic counters padded to one cache line each."""
    return shared((count, _CACHE_LINE // 8), np.int64)[:, 0]


def wait_for(
    counters: np.ndarray,
    i: int,
    target: int,
    stopped: Callable[[], bool],
    timeout_s: float = math.inf,
    label: str = "",
) -> None:
    """Spin until ``counters[i] >= target``: the receive side of the protocol.

    Every few hundred iterations the slow path runs: it raises
    :class:`Stopped` when ``stopped()`` holds and the counter, read again
    after it, is still short (a writer publishes before it stops), and
    :class:`StrategyTimeoutError` after ``timeout_s`` seconds without the
    awaited value.  Pure spinning between checks keeps the fast path at
    sub-microsecond latency.  Yielding starts only after the wait is
    clearly long: when every worker has its own core the awaited value
    arrives within microseconds, and an eager sched_yield would hand the
    core to an unrelated process and turn a microsecond wait into a
    scheduler timeslice.
    """
    it = 0
    deadline = 0.0
    while counters[i] < target:
        it += 1
        if not it & _SPIN_MASK:
            if deadline == 0.0:
                deadline = time.monotonic() + timeout_s
            if stopped() and counters[i] < target:
                raise Stopped()
            if time.monotonic() >= deadline:
                raise StrategyTimeoutError(f"no progress while waiting for {label}")
            if it > 1 << 11:  # past the microsecond-scale waits of a healthy run
                time.sleep(0 if it < 1 << 20 else 5e-5)


def fork_processes(target, worker_ids: Sequence[int]) -> list:
    """Fork one process per worker id running ``target(w)``.

    Requires the 'fork' start method and an x86-64 machine: the counter
    protocol issues no fences and is only sound under total store order.
    Warns once when other threads are running: a lock that one of them
    holds at the fork stays held for good in every helper.  It warns rather
    than refuses because interactive kernels always run threads.
    """
    machine = platform.machine()
    if machine not in _X86_64:
        raise RuntimeError(
            f"parallel strategies need an x86-64 machine (total store order), "
            f"got {machine!r}; use the serial strategy or a single worker"
        )
    try:
        ctx = mp.get_context("fork")
    except ValueError as exc:  # pragma: no cover - non-POSIX hosts
        raise RuntimeError(
            "parallel strategies need the 'fork' multiprocessing start method "
            "(POSIX only)"
        ) from exc
    threads = threading.active_count()
    if threads > 1:
        warnings.warn(
            f"forking helpers from a process with {threads} threads: "
            "a lock held by another thread at the fork stays held in the helpers, "
            "which can deadlock them",
            RuntimeWarning,
            stacklevel=3,
        )
    procs = []
    for w in worker_ids:
        p = ctx.Process(target=target, args=(w,), daemon=True)
        p.start()
        procs.append(p)
    return procs


def shutdown(procs) -> None:
    """Kill and reap the workers.

    SIGKILL, because a stopped process leaves SIGTERM pending and would
    never be joined.  A worker already reaped is not signalled again.
    """
    for p in procs:
        p.kill()
    for p in procs:
        p.join()
