"""Shared-memory scaffolding for the fork-based worker engines.

Workers are long-lived processes forked from the solving process.  They
communicate through a single anonymous shared mmap carved into numpy views:
monotonic int64 counters act as the message channels (a counter advancing
past n publishes the slot contents for step n), and float64 regions hold the
rhs history, the states and the per-step partial sums.  Read-only data such
as the weight table is inherited through fork instead.

Counter protocol: the data for a step is always written *before* the counter
store that announces it, and every counter has a single writer at any time.
This relies on the total-store-order semantics of x86-64 (and the cache
coherence of a single host); no fences are issued from Python.
"""

from __future__ import annotations

import mmap
import time
from typing import Sequence

import multiprocessing as mp

import numpy as np

from ..core import SolverStepError, StrategyTimeoutError

# control-word indices shared by both engines
ERR = 0        # 0 ok, 1 non-finite step, 2 worker exception, 3 watchdog
ERR_STEP = 1
MSG_LEN = 2

_CACHE_LINE = 64
_MSG_BYTES = 512
_SPIN_MASK = 255  # spin iterations between slow-path checks

DEFAULT_WATCHDOG_S = 60.0
RING = 256  # partial-sum slots per sender; senders may lead the consumer by this many steps


class _Abort(Exception):
    """Internal: raised inside spin loops when the shared error flag is set."""


class SharedArena:
    """One anonymous shared mapping, carved sequentially into numpy views."""

    def __init__(self, n_bytes: int):
        self._mm = mmap.mmap(-1, n_bytes)
        self._offset = 0
        self._size = n_bytes

    def _take(self, n_bytes: int, align: int = _CACHE_LINE) -> int:
        start = -(-self._offset // align) * align
        end = start + n_bytes
        if end > self._size:
            raise RuntimeError("shared arena overflow")
        self._offset = end
        return start

    def int64(self, count: int) -> np.ndarray:
        off = self._take(8 * count)
        arr = np.frombuffer(self._mm, dtype=np.int64, count=count, offset=off)
        arr[:] = 0
        return arr

    def f64(self, shape: Sequence[int]) -> np.ndarray:
        count = int(np.prod(shape))
        off = self._take(8 * count)
        return np.frombuffer(self._mm, dtype=np.float64, count=count, offset=off).reshape(shape)

    def bytes_region(self, count: int) -> np.ndarray:
        off = self._take(count)
        arr = np.frombuffer(self._mm, dtype=np.uint8, count=count, offset=off)
        arr[:] = 0
        return arr

    def counters(self, count: int) -> np.ndarray:
        """`count` monotonic counters padded to one cache line each."""
        off = self._take(_CACHE_LINE * count)
        arr = np.frombuffer(
            self._mm, dtype=np.int64, count=count * (_CACHE_LINE // 8), offset=off
        ).reshape(count, _CACHE_LINE // 8)
        arr[:] = 0
        return arr[:, 0]


def arena_size(*regions: int) -> int:
    """Total bytes for the given region sizes, padded for alignment."""
    return sum(-(-r // _CACHE_LINE) * _CACHE_LINE for r in regions) + 4 * _CACHE_LINE


def report_error(ctrl: np.ndarray, msgbuf: np.ndarray, kind: int, step: int, text: str) -> None:
    """Publish an error from any process; first writer wins."""
    if ctrl[ERR] != 0:
        return
    data = text.encode("utf-8", "replace")[: _MSG_BYTES - 1]
    msgbuf[: len(data)] = np.frombuffer(data, dtype=np.uint8)
    ctrl[MSG_LEN] = len(data)
    ctrl[ERR_STEP] = step
    ctrl[ERR] = kind


def read_error_message(ctrl: np.ndarray, msgbuf: np.ndarray) -> str:
    n = int(ctrl[MSG_LEN])
    return bytes(msgbuf[:n]).decode("utf-8", "replace")


def raise_shared_error(ctrl: np.ndarray, msgbuf: np.ndarray, h: float) -> None:
    """Map the shared error state to the public exception types."""
    kind = int(ctrl[ERR])
    step = int(ctrl[ERR_STEP])
    msg = read_error_message(ctrl, msgbuf)
    if kind == 1:
        raise SolverStepError(msg or "rhs returned a non-finite value", step=step, t=(step + 1) * h)
    if kind == 2:
        raise SolverStepError(f"worker failed: {msg}", step=step, t=(step + 1) * h)
    if kind == 3:
        raise StrategyTimeoutError(msg or "parallel strategy watchdog expired")
    raise RuntimeError(f"unknown shared error kind {kind}: {msg}")


def spin_tick(
    ctrl: np.ndarray, msgbuf: np.ndarray, deadline: float, waited_iters: int, label: str
) -> None:
    """Slow path of a spin loop: abort on shared errors, time out, and yield.

    Call every few hundred iterations; pure spinning between calls keeps the
    fast path at sub-microsecond latency.  Yielding starts only after the
    wait is clearly long: when every worker has its own core the awaited
    value arrives within microseconds, and an eager sched_yield would hand
    the core to an unrelated process and turn a microsecond wait into a
    scheduler timeslice.
    """
    if ctrl[ERR] != 0:
        raise _Abort()
    if time.monotonic() >= deadline:
        report_error(ctrl, msgbuf, 3, -1, f"no progress while waiting for {label}")
        raise _Abort()
    if waited_iters > 1 << 11:  # past the microsecond-scale waits of a healthy run
        time.sleep(0 if waited_iters < 1 << 20 else 5e-5)


def wait_for(
    ctrl: np.ndarray,
    msgbuf: np.ndarray,
    timeout_s: float,
    counters: np.ndarray,
    i: int,
    target: int,
    label: str,
) -> None:
    """Spin until ``counters[i] >= target``: the receive side of the protocol.

    Raises :class:`_Abort` on the shared error flag, and reports a watchdog
    error after ``timeout_s`` seconds without the awaited value (``math.inf``
    waits for as long as the error flag stays clear).
    """
    it = 0
    deadline = 0.0
    while counters[i] < target:
        it += 1
        if not it & _SPIN_MASK:
            if deadline == 0.0:
                deadline = time.monotonic() + timeout_s
            spin_tick(ctrl, msgbuf, deadline, it, label)


def fork_processes(target, worker_ids: Sequence[int]) -> list:
    """Fork one process per worker id; requires the 'fork' start method."""
    try:
        ctx = mp.get_context("fork")
    except ValueError as exc:  # pragma: no cover - non-POSIX hosts
        raise RuntimeError(
            "parallel strategies need the 'fork' multiprocessing start method "
            "(POSIX only)"
        ) from exc
    procs = []
    for w in worker_ids:
        p = ctx.Process(target=target, args=(w,), daemon=True)
        p.start()
        procs.append(p)
    return procs


def shutdown(procs, ctrl: np.ndarray, msgbuf: np.ndarray, grace_s: float = 5.0) -> None:
    """Join workers, escalating to terminate if they ignore the stop flag."""
    deadline = time.monotonic() + grace_s
    for p in procs:
        p.join(timeout=max(0.0, deadline - time.monotonic()))
    for p in procs:
        if p.is_alive():
            p.terminate()
            p.join()
