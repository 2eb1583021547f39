import contextlib
import importlib
import sys

import numpy as np

from fodeabm import _threads, serial, solve_serial

from conftest import linear_problem


def test_fallback_without_threadpoolctl(monkeypatch):
    """Without threadpoolctl the BLAS context is a no-op and solves are unchanged."""
    problem = linear_problem(0.7, -1.0, y0=(1.0, 0.5, -2.0))
    grid = problem.grid(300)
    ref = solve_serial(problem, grid)
    monkeypatch.setitem(sys.modules, "threadpoolctl", None)  # import raises ImportError
    try:
        fallback = importlib.reload(_threads)
        assert isinstance(fallback.single_threaded_blas(), contextlib.nullcontext)
        monkeypatch.setattr(serial, "single_threaded_blas", fallback.single_threaded_blas)
        got = solve_serial(problem, grid)
    finally:
        monkeypatch.undo()
        importlib.reload(_threads)
    assert np.array_equal(got.states, ref.states)
