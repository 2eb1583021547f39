"""Acceptance criteria, one test per criterion.

Each test prints a PASS/FAIL line with its measured quantities so a plain
``pytest -s tests/test_acceptance.py`` reads as a checklist.  Criterion 5
(parallel speedup) is machine dependent: it runs P = min(4, usable CPUs)
workers and gates each strategy at that P (the documented row at P=4, a
work-model derivation below it).  Worker count, N and thresholds can be set
with pytest options (--speedup-workers, --speedup-steps,
--speedup-block-min, --speedup-reduction-min).
"""

import importlib.util
import math
import random
import statistics
import time

import numpy as np
import pytest

from fodeabm import (
    make_partition,
    mittag_leffler,
    owner,
    precompute_weights,
    solve_block_parallel,
    solve_reduction_parallel,
    solve_serial,
)
from fodeabm.bench import run_cell
from fodeabm.checks import power_law_study

from conftest import (
    SPEEDUP_CHUNK,
    SPEEDUP_DOC_STEPS,
    block_ceiling,
    constant_problem,
    hr_problem,
    linear_problem,
    power_problem,
    speedup_thresholds,
    sup_rel_dev,
    usable_cpus,
)

HR_ENVELOPE = {"x": 5.0, "y": 25.0, "z": 10.0}


def _report(name: str, passed: bool, detail: str) -> None:
    print(f"{'PASS' if passed else 'FAIL'}  {name}: {detail}")


def test_criterion_1_weight_sanity():
    t0 = time.perf_counter()
    table = precompute_weights(1.0, 10_000)
    dev_b = float(np.max(np.abs(table.b - 1.0)))
    dev_a = float(np.max(np.abs(table.a - 1.0)))
    dev_c = float(np.max(np.abs(table.c - 0.5)))
    elapsed = time.perf_counter() - t0
    ok = dev_b <= 1e-14 and dev_a <= 1e-14 and dev_c <= 1e-14 and elapsed < 1.0
    _report(
        "criterion 1 (weight sanity at alpha=1)",
        ok,
        f"max devs b={dev_b:.2e} a={dev_a:.2e} c={dev_c:.2e}, {elapsed:.2f}s",
    )
    assert dev_b <= 1e-14 and dev_a <= 1e-14 and dev_c <= 1e-14
    assert elapsed < 1.0


def test_criterion_2_analytic_convergence():
    t0 = time.perf_counter()
    lines = []
    all_ok = True
    for alpha in (0.3, 0.5, 0.8, 1.0):
        report, terminal = power_law_study(alpha, n_list=(500, 1000, 2000))
        bound = min(2.0, 1.0 + alpha) - 0.2
        max_err = max(e for _, e in report.errors)
        exact = max_err <= 1e-13  # alpha=1 integrates t^2 exactly; order unobservable
        ok = (exact or report.observed_order >= bound) and terminal <= 1e-2
        all_ok &= ok
        lines.append(
            f"alpha={alpha:g}: order={report.observed_order:.2f}"
            f"{' (roundoff-exact)' if exact else ''} terminal={terminal:.1e}"
        )
    elapsed = time.perf_counter() - t0
    _report("criterion 2 (analytic convergence)", all_ok, "; ".join(lines) + f", {elapsed:.1f}s")
    assert all_ok
    assert elapsed < 30.0


def test_criterion_3_mittag_leffler_cross_check():
    t0 = time.perf_counter()
    # validate the series oracle against the independent closed form first
    for z in (-2.0, -1.0, -0.5, 0.5, 1.0):
        want = math.exp(z * z) * math.erfc(-z)
        assert mittag_leffler(0.5, z) == pytest.approx(want, rel=1e-13)
    problem = linear_problem(alpha=0.5, lam=-1.0)
    traj = solve_serial(problem, problem.grid(4000))
    err = abs(traj.states[-1, 0] - mittag_leffler(0.5, -1.0))
    elapsed = time.perf_counter() - t0
    ok = err <= 1e-3
    _report("criterion 3 (Mittag-Leffler cross-check)", ok, f"|y_N - E| = {err:.2e}, {elapsed:.1f}s")
    assert ok
    assert elapsed < 10.0


def test_criterion_4_strategy_equivalence():
    t0 = time.perf_counter()
    n_steps = 4096
    cases = [
        ("constant", constant_problem(value=(0.5,), y0=(1.0,), alpha=0.5, t_end=1.0), 1e-10),
        ("power-law", power_problem(0.5), 1e-10),
        ("linear", linear_problem(0.5, -1.0), 1e-10),
        ("hindmarsh-rose", hr_problem(alpha=0.9, t_end=40.0), 1e-8),
    ]
    lines = []
    all_ok = True
    for name, problem, tol in cases:
        grid = problem.grid(n_steps)
        ref = solve_serial(problem, grid)
        worst = 0.0
        for workers in (2, 4):
            blk = solve_block_parallel(problem, grid, workers)
            worst = max(worst, sup_rel_dev(blk.states, ref.states))
            for chunk in (64, 1024):
                red = solve_reduction_parallel(problem, grid, workers, chunk)
                worst = max(worst, sup_rel_dev(red.states, ref.states))
        ok = worst <= tol
        all_ok &= ok
        lines.append(f"{name}: worst dev {worst:.1e} (tol {tol:g})")
    # degenerate configurations must be bitwise identical to serial
    problem = power_problem(0.5)
    grid = problem.grid(n_steps)
    ref = solve_serial(problem, grid)
    blk1 = solve_block_parallel(problem, grid, 1)
    red1 = solve_reduction_parallel(problem, grid, 2, chunk=n_steps)
    bitwise = np.array_equal(blk1.states, ref.states) and np.array_equal(red1.states, ref.states)
    all_ok &= bitwise
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 4 (strategy equivalence)",
        all_ok,
        "; ".join(lines) + f"; degenerate bitwise={bitwise}, {elapsed:.1f}s",
    )
    assert all_ok
    assert elapsed < 60.0


def test_criterion_5_thresholds_follow_work_model():
    """The P=4 row is the documented one; other P get the same share of the work-model gain."""
    four = speedup_thresholds(4)
    assert (four["block"].minimum, four["reduction"].minimum) == (1.5, 1.8)
    assert block_ceiling(SPEEDUP_DOC_STEPS, 2) == pytest.approx(4 / 3, rel=1e-4)
    assert block_ceiling(SPEEDUP_DOC_STEPS, 4) == pytest.approx(16 / 7, rel=1e-4)
    for workers in range(2, 9):
        for strategy, gate in speedup_thresholds(workers).items():
            assert 1.0 < gate.minimum < gate.ceiling, (strategy, workers, gate)
    two = speedup_thresholds(2)
    assert two["block"].minimum == pytest.approx(1 + 7 / 18 / 3, rel=1e-3)
    assert two["reduction"].minimum == pytest.approx(1.28, abs=0.01)


@pytest.mark.skipif(usable_cpus() < 2, reason="fewer than 2 usable CPUs: no parallel hardware to measure")
def test_criterion_5_speedup(request):
    """Parallel speedup over serial at the worker count actually run.

    Documented for P=4 (4 usable cores): block >= 1.5, reduction >= 1.8 at
    N=50000, chunk 1024.  With fewer usable CPUs P defaults to their number
    and the thresholds come from ``speedup_thresholds``.  Serial, block and
    reduction run in interleaved triples, so host drift between solves hits
    all three alike, and the gate is the median of the per-triple ratios.
    """
    option = request.config.getoption
    workers = option("--speedup-workers")
    n_steps = option("--speedup-steps")
    gates = speedup_thresholds(workers, n_steps)
    for strategy in gates:
        explicit = option(f"--speedup-{strategy}-min")
        if explicit is not None:
            gates[strategy] = gates[strategy]._replace(minimum=explicit, source=f"--speedup-{strategy}-min")
    t0 = time.perf_counter()
    problem = hr_problem(alpha=0.9, t_end=500.0)
    grid = problem.grid(n_steps)
    solvers = {
        "serial": lambda: solve_serial(problem, grid),
        "block": lambda: solve_block_parallel(problem, grid, workers),
        "reduction": lambda: solve_reduction_parallel(problem, grid, workers, SPEEDUP_CHUNK),
    }
    first_states = {}

    def timed(strategy):
        """Wall and process CPU seconds of one solve; its repeats must match bitwise."""
        cpu, start = time.process_time(), time.perf_counter()
        states = solvers[strategy]().states.tobytes()
        wall, cpu = time.perf_counter() - start, time.process_time() - cpu
        assert states == first_states.setdefault(strategy, states), (
            f"nondeterministic {strategy} trajectories across repetitions (N={n_steps}, P={workers})"
        )
        return wall, cpu

    for strategy in solvers:  # warm-up triple, not timed
        timed(strategy)
    triples = [{strategy: timed(strategy) for strategy in solvers} for _ in range(3)]
    ratios = {s: [t["serial"][0] / t[s][0] for t in triples] for s in gates}
    speedup = {s: statistics.median(r) for s, r in ratios.items()}
    serial_walls = [t["serial"][0] for t in triples]
    serial_cpu_frac = sum(t["serial"][1] for t in triples) / sum(serial_walls)
    elapsed = time.perf_counter() - t0
    ok = all(speedup[s] >= gate.minimum for s, gate in gates.items())
    blas = "yes" if importlib.util.find_spec("threadpoolctl") else "no (threadpoolctl not installed)"
    lines = [
        f"{s} per-triple {', '.join(f'{r:.2f}' for r in ratios[s])} median {speedup[s]:.2f}, "
        f"need {gate.minimum:.2f} ({gate.source}), work-model ceiling {gate.ceiling:.2f}"
        for s, gate in gates.items()
    ]
    context = f"usable CPUs {usable_cpus()}, N={n_steps} P={workers} chunk={SPEEDUP_CHUNK}"
    _report(
        "criterion 5 (speedup at desk scale)",
        ok,
        f"{context}; " + "; ".join(lines)
        + f"; serial median {statistics.median(serial_walls):.2f}s, cpu/wall {serial_cpu_frac:.2f}, "
        f"BLAS clamped to 1 thread: {blas}, {elapsed:.0f}s",
    )
    assert elapsed < 600.0
    for line, (strategy, gate) in zip(lines, gates.items()):
        assert speedup[strategy] >= gate.minimum, f"{context}: {line}"


def test_criterion_6_quadratic_scaling():
    # The ratios track the O(N^2) law only while the history work outweighs
    # the interpreter's fixed per-step cost and the grids cross at most one
    # cache-regime boundary.  The fused history kernel made d=5 too cheap
    # for that (ratios 3.28 and 2.40).  d=12 is the largest dimension whose
    # history (d*N*8 bytes) still fits a 2 MiB L2 at N=2e4 and whose
    # products stay in OpenBLAS's small-matrix path (2*d*n <= 1e6) up to
    # N=4e4; the history is then about half of a step's time at N=1e4 and
    # most of it above.  At d=13 N=2e4 straddles L2 (first ratio 2.7-4.9),
    # and at d=14-28 one ratio reached 5.2-7.5 on a 2-core host.
    dim = 12
    t0 = time.perf_counter()
    problem = linear_problem(alpha=0.5, lam=-1.0, y0=np.ones(dim), t_end=10.0)
    times = {}
    for n in (10000, 20000, 40000):
        times[n], _ = run_cell(problem, "serial", n, repetitions=5)
    r1 = times[20000] / times[10000]
    r2 = times[40000] / times[20000]
    elapsed = time.perf_counter() - t0
    ok = 3.0 <= r1 <= 5.0 and 3.0 <= r2 <= 5.0
    _report(
        "criterion 6 (O(N^2) scaling law)",
        ok,
        f"d={dim}, times {times[10000]:.2f}/{times[20000]:.2f}/{times[40000]:.2f}s, "
        f"ratios {r1:.2f}, {r2:.2f} (need [3, 5]), {elapsed:.0f}s",
    )
    assert elapsed < 300.0
    assert 3.0 <= r1 <= 5.0
    assert 3.0 <= r2 <= 5.0


def test_criterion_7_idle_fraction():
    t0 = time.perf_counter()
    n_steps, workers = 20000, 4
    problem = hr_problem(alpha=0.9, t_end=200.0)
    stats = {}
    solve_block_parallel(problem, problem.grid(n_steps), workers, stats=stats)
    fractions = stats["idle_steps"] / n_steps
    want = np.arange(workers) / workers
    dev = float(np.max(np.abs(fractions - want)))
    elapsed = time.perf_counter() - t0
    ok = dev <= 0.05
    _report(
        "criterion 7 (idle fraction)",
        ok,
        f"measured {np.round(fractions, 4).tolist()} vs p/P {want.tolist()}, "
        f"max dev {dev:.3f}, {elapsed:.1f}s",
    )
    assert ok
    assert elapsed < 120.0


def test_criterion_8_hindmarsh_rose_long_run():
    t0 = time.perf_counter()
    problem = hr_problem(alpha=0.9, t_end=1000.0)
    grid = problem.grid(100_000)
    a = solve_serial(problem, grid)
    b = solve_serial(problem, grid)
    finite = bool(np.isfinite(a.states).all())
    in_env = (
        float(np.max(np.abs(a.states[:, 0]))) <= HR_ENVELOPE["x"]
        and float(np.max(np.abs(a.states[:, 1]))) <= HR_ENVELOPE["y"]
        and float(np.max(np.abs(a.states[:, 2]))) <= HR_ENVELOPE["z"]
    )
    identical = np.array_equal(a.states, b.states)
    elapsed = time.perf_counter() - t0
    ok = finite and in_env and identical
    _report(
        "criterion 8 (Hindmarsh-Rose long run)",
        ok,
        f"finite={finite}, |x|<= {np.max(np.abs(a.states[:, 0])):.2f}, "
        f"|y|<= {np.max(np.abs(a.states[:, 1])):.2f}, |z|<= {np.max(np.abs(a.states[:, 2])):.2f}, "
        f"bitwise repeat={identical}, {elapsed:.0f}s",
    )
    assert ok
    assert elapsed < 120.0


def test_criterion_9_property_suites():
    t0 = time.perf_counter()
    rng = random.Random(987654321)
    violations = 0
    for _ in range(10_000):
        n = rng.randint(1, 100_000)
        p = rng.randint(1, min(n, 128))
        plan = make_partition(n, p)
        if plan.blocks[0][0] != 0 or plan.blocks[-1][1] != n:
            violations += 1
            continue
        prev_hi = 0
        for lo, hi in plan.blocks:
            if lo != prev_hi or hi < lo:
                violations += 1
                break
            prev_hi = hi
        for k in (0, n // 2, n - 1):
            w = owner(plan, k)
            lo, hi = plan.blocks[w]
            if not lo <= k < hi:
                violations += 1
                break
    # solver determinism across repeated runs, all strategies
    problem = linear_problem(0.6, -1.0)
    grid = problem.grid(256)
    for solve in (
        lambda: solve_serial(problem, grid).states,
        lambda: solve_block_parallel(problem, grid, 3).states,
        lambda: solve_reduction_parallel(problem, grid, 2, 32).states,
    ):
        if not np.array_equal(solve(), solve()):
            violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0
    _report(
        "criterion 9 (determinism and partition soundness)",
        ok,
        f"{violations} violations over 10000 sampled (N, P) pairs, {elapsed:.1f}s",
    )
    assert violations == 0
    assert elapsed < 60.0
