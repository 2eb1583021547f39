"""Single-threaded BLAS context shared by all solve loops.

The history sums are many small-to-medium matrix products; letting the BLAS
spawn its own threads makes timings erratic, breaks run-to-run bitwise
reproducibility guarantees across machines with different pool sizes, and is
unsafe to combine with fork-based workers.  Every solve therefore runs under
a limits=1 context; parallelism in this package comes only from its own
worker processes.  threadpoolctl is declared but may be absent; a loaded
OpenBLAS, found in the process's memory map on first use, is then pinned
through its own calls, and any other BLAS keeps its thread count.
"""

from __future__ import annotations

import contextlib
import functools


@functools.cache
def openblas():
    """(path, thread count) of the loaded OpenBLAS, or None.

    The count is its ``blas_cpu_number``, which every BLAS call reads.  It
    is written directly: openblas_set_num_threads restarts the thread pool
    after a fork, and the new threads spin for a while on the CPUs that
    the solve and its helpers need.
    """
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split(None, 5)[-1].strip() for line in maps if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            return path, ctypes.c_int.in_dll(ctypes.CDLL(path), "blas_cpu_number")
        except (OSError, ValueError):  # e.g. "(deleted)" since it was loaded
            continue
    return None


try:
    from threadpoolctl import ThreadpoolController

    _controller = ThreadpoolController()

    def single_threaded_blas():
        return _controller.limit(limits=1)

except ImportError:

    @contextlib.contextmanager
    def single_threaded_blas():
        blas = openblas()
        if blas is None:
            yield
            return
        threads = blas[1]
        old, threads.value = threads.value, 1
        try:
            yield
        finally:
            threads.value = old
