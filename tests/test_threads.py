import contextlib
import ctypes
import os
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

from fodeabm import _threads, solve_block_parallel, solve_serial
from fodeabm._threads import single_threaded_blas

from conftest import host_line, linear_problem

SRC = Path(__file__).resolve().parents[1] / "src"

# the memory-map scan itself, uncached and out of reach of a patched openblas()
scan_openblas = _threads.mapped_openblas


def openblas_calls(path: str):
    """OpenBLAS's own (get, set) thread-count functions, named as threadpoolctl looks them up."""
    lib = ctypes.CDLL(path)
    for prefix in ("", "scipy_"):
        for suffix in ("", "64_", "_64"):
            name = f"{prefix}openblas_{{}}_num_threads{suffix}"
            if hasattr(lib, name.format("get")):
                get = getattr(lib, name.format("get"))
                get.restype = ctypes.c_int
                return get, getattr(lib, name.format("set"))
    raise LookupError(f"no thread-count functions in {path}")


@pytest.fixture
def fresh_controller():
    """threadpoolctl is looked up again on the next pin, and again after the test."""
    _threads.threadpool_controller.cache_clear()
    yield
    _threads.threadpool_controller.cache_clear()


@pytest.fixture
def standin_threadpoolctl(monkeypatch, fresh_controller):
    """An importable stand-in ``threadpoolctl`` that records its calls in ``.calls``.

    Its ``ThreadpoolController().limit(...)`` is a context manager.  With
    ``.set_openblas`` true it does for OpenBLAS what threadpoolctl does: on
    entry it sets each mapped library's count to the limit through the
    library's own setter, and on exit it restores the old count.
    """
    module = types.ModuleType("threadpoolctl")
    module.calls, module.set_openblas = [], False

    class ThreadpoolController:
        def __init__(self):
            module.calls.append("controller")

        @contextlib.contextmanager
        def limit(self, limits=None, user_api=None):
            module.calls.append(("limit", limits, user_api))
            libs = [openblas_calls(path) for path, _ in scan_openblas()] if module.set_openblas else []
            old = [get() for get, _ in libs]
            for _, set_threads in libs:
                set_threads(limits)
            try:
                yield
            finally:
                for (_, set_threads), n in zip(libs, old):
                    set_threads(n)

    module.ThreadpoolController = ThreadpoolController
    monkeypatch.setitem(sys.modules, "threadpoolctl", module)
    return module


@pytest.fixture
def no_threadpoolctl(monkeypatch, fresh_controller):
    monkeypatch.setitem(sys.modules, "threadpoolctl", None)  # import raises ImportError


def assert_pins_every_openblas():
    """Each mapped OpenBLAS's own getter reads 1 inside the context and its old count after.

    The old count is raised by one first, so the restore shows on a one-CPU
    host too.  A solve under the pin is bitwise the unpinned one.
    """
    blas = _threads.openblas()
    if not blas:
        pytest.skip("no OpenBLAS in the process map")
    problem = linear_problem(0.7, -1.0, y0=(1.0, 0.5, -2.0))
    grid = problem.grid(300)
    ref = solve_serial(problem, grid)
    getters = [openblas_calls(path)[0] for path, _ in blas]
    before = [count.value for _, count in blas]
    for _, count in blas:
        count.value += 1
    try:
        raised = [get() for get in getters]
        with single_threaded_blas():
            inside = [get() for get in getters]
        after = [get() for get in getters]
        got = solve_serial(problem, grid)
    finally:
        for (_, count), n in zip(blas, before):
            count.value = n
    assert inside == [1] * len(blas)
    assert after == raised == [n + 1 for n in before]
    assert np.array_equal(got.states, ref.states)
    return blas


def test_fallback_without_threadpoolctl(no_threadpoolctl):
    """Without threadpoolctl the context pins every mapped OpenBLAS to one thread and restores it."""
    blas = assert_pins_every_openblas()
    assert any("numpy" in path for path, _ in blas)


def test_openblas_pinned_directly_with_threadpoolctl_importable(standin_threadpoolctl):
    """With OpenBLAS mapped, the pin is the same direct write: threadpoolctl is never used."""
    assert_pins_every_openblas()
    assert standin_threadpoolctl.calls == []


def test_every_mapped_openblas_is_pinned(standin_threadpoolctl):
    """numpy's and scipy's OpenBLAS are both pinned, not only the first by path order."""
    pytest.importorskip("scipy.linalg")  # maps scipy's own OpenBLAS
    blas = assert_pins_every_openblas()
    assert {"numpy.libs", "scipy.libs"} <= {Path(path).parent.name for path, _ in blas}
    assert standin_threadpoolctl.calls == []


def run_fresh(code: str) -> str:
    """Standard output of ``code`` run in a fresh interpreter on this tree's sources."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_openblas_imported_after_a_solve_is_pinned():
    """An OpenBLAS that an import maps after the first solve is pinned by the next one."""
    pytest.importorskip("scipy.linalg")
    code = """
import ctypes
from pathlib import Path
import fodeabm
from fodeabm._threads import single_threaded_blas
problem = fodeabm.FractionalProblem(0.5, 1, fodeabm.rhs_linear(-1.0), [1.0], 1.0)
fodeabm.solve_serial(problem, problem.grid(100))
import scipy.linalg
with open("/proc/self/maps") as maps:
    paths = {line.split(None, 5)[-1].strip() for line in maps if "openblas" in line}
(path,) = [p for p in paths if Path(p).parent.name == "scipy.libs"]
count = ctypes.c_int.in_dll(ctypes.CDLL(path), "blas_cpu_number")
count.value = 2  # above 1 on a one-CPU host too
with single_threaded_blas():
    print(count.value)
print(count.value)
"""
    assert run_fresh(code).split() == ["1", "2"]


def test_map_read_once_over_back_to_back_solves():
    """A process that imports nothing between solves reads its memory map once."""
    code = """
import fodeabm
from fodeabm import _threads
reads = []
scan = _threads.mapped_openblas
_threads.mapped_openblas = lambda: reads.append(1) or scan()
problem = fodeabm.FractionalProblem(0.5, 1, fodeabm.rhs_linear(-1.0), [1.0], 1.0)
for _ in range(50):
    fodeabm.solve_serial(problem, problem.grid(100))
print(len(reads))
"""
    assert run_fresh(code).split() == ["1"]


def test_threadpoolctl_pins_a_blas_that_is_not_openblas(standin_threadpoolctl, monkeypatch):
    """With no OpenBLAS found, threadpoolctl limits the BLAS API to one thread."""
    libs = [openblas_calls(path) for path, _ in scan_openblas()]
    monkeypatch.setattr(_threads, "openblas", lambda: ())
    standin_threadpoolctl.set_openblas = True
    before = [get() for get, _ in libs]
    with single_threaded_blas():
        inside = [get() for get, _ in libs]
    with single_threaded_blas():
        pass
    assert standin_threadpoolctl.calls == ["controller"] + [("limit", 1, "blas")] * 2
    assert inside == [1] * len(libs)
    assert [get() for get, _ in libs] == before


def test_no_pin_without_openblas_or_threadpoolctl(no_threadpoolctl, monkeypatch):
    """With neither, the context changes nothing and the solve is bitwise unchanged."""
    problem = linear_problem(0.7, -1.0, y0=(1.0, 0.5, -2.0))
    grid = problem.grid(300)
    ref = solve_serial(problem, grid)
    monkeypatch.setattr(_threads, "openblas", lambda: ())
    counts = [count.value for _, count in scan_openblas()]
    with single_threaded_blas():
        inside = [count.value for _, count in scan_openblas()]
    assert inside == counts
    assert _threads.threadpool_controller() is None
    assert np.array_equal(solve_serial(problem, grid).states, ref.states)


def test_import_does_not_import_threadpoolctl(tmp_path):
    """``import fodeabm`` decides nothing: threadpoolctl, though importable, stays unimported."""
    (tmp_path / "threadpoolctl.py").write_text("class ThreadpoolController:\n    pass\n")
    code = "import sys, fodeabm; loaded = 'threadpoolctl' in sys.modules; import threadpoolctl; print(loaded)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tmp_path), str(SRC)]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False"]


def test_panel_solve_runs_one_blas_thread(force_panel):
    """No BLAS thread runs during a solve, not even after a parallel solve's fork.

    A panel product is large enough for a threaded BLAS.  Resetting the
    thread count through openblas_set_num_threads after a fork would start
    a new pool whose threads spin on into the next solve; in some processes
    that shows only from the second block -> serial round on, so each of
    several rounds is gated.
    """
    if not _threads.openblas() and _threads.threadpool_controller() is None:
        pytest.skip("no threadpoolctl and no OpenBLAS in the process map: nothing pins the BLAS")
    problem = linear_problem(0.9, -1.0, y0=np.linspace(0.5, 1.5, 64))
    grid = problem.grid(3000)
    rounds = []
    for _ in range(3):
        solve_block_parallel(problem, grid, 2)
        cpu, start = time.process_time(), time.perf_counter()
        solve_serial(problem, grid)
        rounds.append((time.process_time() - cpu, time.perf_counter() - start))
    report = ", ".join(f"CPU {cpu:.3f}s / wall {wall:.3f}s" for cpu, wall in rounds)
    assert all(cpu <= 1.1 * wall for cpu, wall in rounds), f"per round {report}; {host_line()}"
