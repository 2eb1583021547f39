"""Single-threaded BLAS context shared by all solve loops.

The history sums are many small-to-medium matrix products; letting the BLAS
spawn its own threads makes timings erratic, breaks run-to-run bitwise
reproducibility guarantees across machines with different pool sizes, and is
unsafe to combine with fork-based workers.  Every solve therefore runs with
one BLAS thread, pinned by what the process has loaded: every OpenBLAS in its
memory map through its own thread count, else threadpoolctl (MKL, BLIS,
Accelerate) if it imports, else nothing.
"""

from __future__ import annotations

import contextlib
import functools
import sys


def mapped_openblas() -> tuple:
    """(path, thread count) of each OpenBLAS in the process's memory map, in path order.

    The count is ``blas_cpu_number``, read by every BLAS call.  It is written
    directly: openblas_set_num_threads restarts the thread pool after a fork,
    and the new threads spin for a while on the CPUs the solve needs.
    """
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split(None, 5)[-1].strip() for line in maps if "openblas" in line.lower()})
    except OSError:
        return ()
    found = []
    for path in paths:
        try:
            found.append((path, ctypes.c_int.in_dll(ctypes.CDLL(path), "blas_cpu_number")))
        except (OSError, ValueError):  # e.g. "(deleted)" since it was loaded
            pass
    return tuple(found)


# (len(sys.modules) after the last read of the map, what it found)
_last_read = (-1, ())


def openblas() -> tuple:
    """:func:`mapped_openblas`, read again only when a module was imported since.

    A library is mapped by an import (scipy.linalg maps its own OpenBLAS),
    so a process that imports nothing between solves reads the map once.
    """
    global _last_read
    if _last_read[0] != len(sys.modules):
        found = mapped_openblas()
        _last_read = (len(sys.modules), found)
    return _last_read[1]


@functools.cache
def threadpool_controller():
    """threadpoolctl's controller, built on first use, or None if it does not import."""
    try:
        from threadpoolctl import ThreadpoolController
    except ImportError:
        return None
    return ThreadpoolController()


@contextlib.contextmanager
def single_threaded_blas():
    counts = [count for _, count in openblas()]
    old = [count.value for count in counts]
    controller = None if counts else threadpool_controller()
    with controller.limit(limits=1, user_api="blas") if controller else contextlib.nullcontext():
        for count in counts:
            count.value = 1
        try:
            yield
        finally:
            for count, value in zip(counts, old):
                count.value = value
