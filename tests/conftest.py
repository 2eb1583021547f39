import os
from typing import NamedTuple

import numpy as np
import pytest

from fodeabm import FractionalProblem, _threads, make_partition, owner, serial
from fodeabm.parallel import reduction
from fodeabm.systems import rhs_constant, rhs_hindmarsh_rose, rhs_linear, rhs_power_law

# Criterion 5 as documented: a host with 4 usable cores, Hindmarsh-Rose at
# alpha=0.9, N=50000, reduction chunk 1024.
SPEEDUP_DOC_WORKERS = 4
SPEEDUP_DOC_STEPS = 50000
SPEEDUP_CHUNK = 1024
SPEEDUP_DOC_MIN = {"block": 1.5, "reduction": 1.8}

# Criterion 6 times the history contraction of a linear system this wide on
# these doubling grids: its history and weights, (d+2)*8*N bytes, stay
# inside a 2 MiB L2 up to the last grid.
CRITERION_6_DIM = 3
CRITERION_6_STEPS = (10000, 20000, 40000)

# Criterion 8 solves Hindmarsh-Rose (d=3) twice on this grid; its history,
# 2.29 MiB, is just above a 2 MiB L2.
CRITERION_8_STEPS = 100_000


def _cgroup_cpu_quota() -> float | None:
    """CPUs granted by the cgroup CPU quota (v2 ``cpu.max``, else v1 CFS), or None."""
    try:
        with open("/sys/fs/cgroup/cpu.max") as f:
            quota, period = f.read().split()[:2]
        return None if quota == "max" else int(quota) / int(period)
    except (OSError, ValueError):
        pass
    try:
        with open("/sys/fs/cgroup/cpu/cpu.cfs_quota_us") as f:
            quota = int(f.read())
        with open("/sys/fs/cgroup/cpu/cpu.cfs_period_us") as f:
            period = int(f.read())
    except (OSError, ValueError):
        return None
    return None if quota <= 0 or period <= 0 else quota / period


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set, capped by a cgroup quota.

    A fractional quota is rounded down, since a worker on the missing
    fraction of a core is throttled, not parallel.
    """
    if hasattr(os, "sched_getaffinity"):
        n = len(os.sched_getaffinity(0))
    else:
        n = os.cpu_count() or 1
    quota = _cgroup_cpu_quota()
    if quota is not None:
        n = min(n, max(1, int(quota)))
    return n


def block_ceiling(n_steps: int, workers: int) -> float:
    """Work-model speedup of the block engine: history terms over its critical path.

    Step n sums 2n+1 history terms (predictor k=0..n, corrector k=1..n).
    The owner of step n sums the part inside its own block while every lower
    block sends a partial over its whole block; the step waits for the
    largest of these.  rhs evaluation and assembly are ignored.
    """
    plan = make_partition(n_steps, workers)
    lo = np.array([b[0] for b in plan.blocks])
    hi = np.array([b[1] for b in plan.blocks])
    sent = (hi - lo) + (hi - np.maximum(lo, 1))
    largest_lower = np.concatenate(([0], np.maximum.accumulate(sent)[:-1]))
    n = np.arange(n_steps)
    own = np.fromiter((owner(plan, k) for k in range(n_steps)), dtype=np.int64, count=n_steps)
    local = (n + 1 - lo[own]) + (n + 1 - np.maximum(lo[own], 1))
    crit = np.maximum(local, largest_lower[own]).sum()
    return float((2 * n + 1).sum() / crit)


def reduction_ceiling(n_steps: int, workers: int, chunk: int = SPEEDUP_CHUNK) -> float:
    """Work-model speedup of the reduction engine under an even chunk split.

    Step n's 2n+1 history terms fall in m = n // chunk + 1 chunks; the
    busiest worker takes ceil(m / P) of them.  rhs evaluation and the
    coordinator's assembly are ignored.
    """
    n = np.arange(n_steps)
    m = n // chunk + 1
    terms = 2 * n + 1
    return float(terms.sum() / (terms * (-(-m // workers)) / m).sum())


_CEILINGS = {"block": block_ceiling, "reduction": reduction_ceiling}


class SpeedupGate(NamedTuple):
    minimum: float
    ceiling: float
    source: str


def speedup_thresholds(workers: int, n_steps: int = SPEEDUP_DOC_STEPS) -> dict[str, SpeedupGate]:
    """Criterion 5's per-strategy speedup gate at P = ``workers``.

    At P=4 the gate is the documented row.  At any other P it demands the
    same share g of the work-model gain that the documented row demands at
    P=4:  min(P) = 1 + g * (ceiling(P) - 1),  g = (doc_min - 1) / (ceiling(4) - 1),
    with ceiling(4) taken at the documented N.  Any P >= 2 thus needs a
    speedup above 1 and below the ceiling.
    """
    gates = {}
    for strategy, ceiling in _CEILINGS.items():
        c = ceiling(n_steps, workers)
        doc_min = SPEEDUP_DOC_MIN[strategy]
        if workers == SPEEDUP_DOC_WORKERS:
            gates[strategy] = SpeedupGate(doc_min, c, "documented P=4 row")
        else:
            g = (doc_min - 1) / (ceiling(SPEEDUP_DOC_STEPS, SPEEDUP_DOC_WORKERS) - 1)
            gates[strategy] = SpeedupGate(1 + g * (c - 1), c, f"derived, g={g:.3f} of the P=4 row")
    return gates


def blas_pin() -> str:
    """The pin ``single_threaded_blas()`` uses in this process, and the BLAS it acts on."""
    blas = _threads.openblas()
    if blas:
        with _threads.single_threaded_blas():
            threads = "/".join(str(count.value) for _, count in blas)
        paths = ", ".join(os.path.basename(path) for path, _ in blas)
        return f"direct write on {len(blas)} OpenBLAS ({paths}), {threads} thread(s) inside"
    if _threads.threadpool_controller() is not None:
        return "threadpoolctl (no OpenBLAS in the process map)"
    return "none (no OpenBLAS in the process map, no threadpoolctl)"


def host_line() -> str:
    """The BLAS pin, the L2 size and the panel widths.

    Timing tests print it, so a timing failure can be read without a rerun.
    """
    widths = {
        f"criterion 5 (d=3, N={SPEEDUP_DOC_STEPS})": serial._panel_width(3, SPEEDUP_DOC_STEPS),
        f"criterion 6 (d={CRITERION_6_DIM}, N={CRITERION_6_STEPS[-1]})": serial._panel_width(
            CRITERION_6_DIM, CRITERION_6_STEPS[-1]
        ),
        f"criterion 8 (d=3, N={CRITERION_8_STEPS})": serial._panel_width(3, CRITERION_8_STEPS),
    }
    return (
        f"BLAS pin: {blas_pin()}; L2 {serial._l2_bytes()} bytes; "
        "panel width K " + ", ".join(f"{shape} {k}" for shape, k in widths.items())
    )


def pytest_report_header(config):
    return "fodeabm: " + host_line()


def pytest_addoption(parser):
    group = parser.getgroup("fodeabm acceptance")
    group.addoption(
        "--speedup-block-min",
        type=float,
        default=None,
        help="block-strategy speedup threshold (default: documented P=4 row, "
        "or derived from the work model at the P run)",
    )
    group.addoption(
        "--speedup-reduction-min",
        type=float,
        default=None,
        help="reduction-strategy speedup threshold (default: documented P=4 row, "
        "or derived from the work model at the P run)",
    )
    group.addoption(
        "--speedup-workers",
        type=int,
        default=min(SPEEDUP_DOC_WORKERS, usable_cpus()),
        help="worker count for the speedup criterion (default: min(4, usable CPUs))",
    )
    group.addoption(
        "--speedup-steps",
        type=int,
        default=SPEEDUP_DOC_STEPS,
        help="N for the speedup criterion",
    )


@pytest.fixture
def force_panel(monkeypatch):
    """Every PeceStep built in the test uses panels of ``serial.PANEL`` steps."""
    monkeypatch.setattr(serial, "_panel_width", lambda dim, n_steps: serial.PANEL)
    return serial.PANEL


@pytest.fixture
def force_helpers(monkeypatch):
    """block and reduction fork their helpers however small their share."""
    monkeypatch.setattr(reduction, "_HELPER_FLOOR", 0)


def min_helper_share(n_steps: int, dim: int, workers: int, chunk: int) -> int:
    """The smallest helper share, in term-dims, of a reduction-engine solve."""
    table = reduction._span_table(n_steps, workers, chunk)
    return int(reduction._helper_work(table, workers, chunk, dim)[1][1:].min())


def sums_written(n: int) -> None:
    """``PeceStep.run``'s hook for a caller that has written step n's sums into ``S``."""


def sup_rel_dev(a: np.ndarray, b: np.ndarray) -> float:
    """Sup-norm relative deviation with a tiny floor against zero entries."""
    return float(np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-30)))


def constant_problem(value=(0.0,), y0=(3.0,), alpha=0.5, t_end=1.0):
    value = np.asarray(value, dtype=float)
    return FractionalProblem(
        alpha=alpha, dim=len(value), rhs=rhs_constant(value), y0=y0, t_end=t_end
    )


def power_problem(alpha=0.5, beta=2.0, t_end=1.0):
    return FractionalProblem(
        alpha=alpha, dim=1, rhs=rhs_power_law(alpha, beta), y0=[0.0], t_end=t_end
    )


def linear_problem(alpha=0.5, lam=-1.0, y0=(1.0,), t_end=1.0):
    y0 = np.asarray(y0, dtype=float)
    return FractionalProblem(
        alpha=alpha, dim=len(y0), rhs=rhs_linear(lam), y0=y0, t_end=t_end
    )


def hr_problem(alpha=0.9, t_end=40.0, y0=(0.1, 0.2, 0.2)):
    return FractionalProblem(
        alpha=alpha, dim=3, rhs=rhs_hindmarsh_rose(), y0=y0, t_end=t_end
    )


@pytest.fixture
def make_constant():
    return constant_problem


@pytest.fixture
def make_power():
    return power_problem


@pytest.fixture
def make_linear():
    return linear_problem


@pytest.fixture
def make_hr():
    return hr_problem
