import ctypes
import importlib
import importlib.util
import sys
import time

import numpy as np
import pytest

from fodeabm import _threads, serial, solve_block_parallel, solve_serial

from conftest import linear_problem


def test_fallback_without_threadpoolctl(monkeypatch):
    """Without threadpoolctl the context pins OpenBLAS to one thread and restores it."""
    problem = linear_problem(0.7, -1.0, y0=(1.0, 0.5, -2.0))
    grid = problem.grid(300)
    ref = solve_serial(problem, grid)
    monkeypatch.setitem(sys.modules, "threadpoolctl", None)  # import raises ImportError
    try:
        fallback = importlib.reload(_threads)
        blas = fallback.openblas()
        if blas is None:
            pytest.skip("no OpenBLAS in the process map")
        # the library's own getter, so the pin is read as OpenBLAS reads it
        lib = ctypes.CDLL(blas[0])
        get = getattr(lib, "scipy_openblas_get_num_threads64_", None) or lib.openblas_get_num_threads
        get.restype = ctypes.c_int
        threads = blas[1]
        before, threads.value = threads.value, 2  # a restore to see on a one-CPU host too
        try:
            with fallback.single_threaded_blas():
                inside = get()
            after = get()
        finally:
            threads.value = before
        monkeypatch.setattr(serial, "single_threaded_blas", fallback.single_threaded_blas)
        got = solve_serial(problem, grid)
    finally:
        monkeypatch.undo()
        importlib.reload(_threads)
    assert (inside, after) == (1, 2)
    assert np.array_equal(got.states, ref.states)


def test_panel_solve_runs_one_blas_thread(force_panel):
    """No BLAS thread runs during a solve, not even after a parallel solve's fork.

    A panel product is large enough for a threaded BLAS.  Resetting the
    thread count through openblas_set_num_threads after a fork would start
    a new pool whose threads spin on into the next solve.
    """
    if _threads.openblas() is None and importlib.util.find_spec("threadpoolctl") is None:
        pytest.skip("no threadpoolctl and no OpenBLAS in the process map: nothing pins the BLAS")
    problem = linear_problem(0.9, -1.0, y0=np.linspace(0.5, 1.5, 64))
    grid = problem.grid(3000)
    solve_block_parallel(problem, grid, 2)
    cpu, start = time.process_time(), time.perf_counter()
    solve_serial(problem, grid)
    wall, cpu = time.perf_counter() - start, time.process_time() - cpu
    assert cpu <= 1.1 * wall, f"process CPU {cpu:.3f}s over wall {wall:.3f}s"
