import multiprocessing
import os
import platform
import random
import signal
import threading
import time
import warnings

import numpy as np
import pytest

from fodeabm import (
    FractionalProblem,
    GridSpec,
    SolverStepError,
    StrategyTimeoutError,
    make_partition,
    owner,
    solve_block_parallel,
    solve_reduction_parallel,
    solve_serial,
)

from fodeabm.parallel import _shm, reduction
from fodeabm.serial import BLOCK, PeceStep
from fodeabm.systems import rhs_constant

from conftest import (
    constant_problem,
    hr_problem,
    linear_problem,
    min_helper_share,
    power_problem,
    sup_rel_dev,
)

# The solves here are small, so below the helper floor block and reduction
# would run serial's loop; they fork their helpers anyway, so the helper
# sums, error paths and stats are tested.  TestHelperFloor sets the floor.
pytestmark = pytest.mark.usefixtures("force_helpers")

SHIPPED_FLOOR = reduction._HELPER_FLOOR


class TestPartition:
    def test_even_split(self):
        plan = make_partition(6, 3)
        assert plan.blocks == ((0, 2), (2, 4), (4, 6))
        assert plan.block_size == 2

    def test_truncated_last_block(self):
        plan = make_partition(7, 3)
        assert plan.blocks == ((0, 3), (3, 6), (6, 7))

    def test_paper_scale_partition(self):
        plan = make_partition(100000, 64)
        assert plan.block_size == 1563
        # covering and disjoint
        assert plan.blocks[0][0] == 0
        assert plan.blocks[-1][1] == 100000
        for (a0, a1), (b0, b1) in zip(plan.blocks, plan.blocks[1:]):
            assert a1 == b0

    def test_empty_tail_blocks(self):
        plan = make_partition(5, 4)
        assert plan.blocks == ((0, 2), (2, 4), (4, 5), (5, 5))

    def test_validation(self):
        with pytest.raises(ValueError):
            make_partition(3, 4)
        with pytest.raises(ValueError):
            make_partition(0, 1)
        with pytest.raises(ValueError):
            make_partition(4, 0)

    def test_owner_examples(self):
        plan6 = make_partition(6, 3)
        assert owner(plan6, 0) == 0
        assert owner(plan6, 5) == 2
        plan7 = make_partition(7, 3)
        assert owner(plan7, 6) == 2

    def test_owner_bounds(self):
        plan = make_partition(6, 3)
        with pytest.raises(IndexError):
            owner(plan, 6)
        with pytest.raises(IndexError):
            owner(plan, -1)

    def test_work_conservation_per_step(self):
        # at step n the senders below the owner cover their full blocks and
        # the owner covers [lo, n]; together that is exactly n+1 multiply-adds
        rng = random.Random(5150)
        for _ in range(200):
            n_steps = rng.randint(2, 5000)
            workers = rng.randint(1, min(n_steps, 16))
            plan = make_partition(n_steps, workers)
            for n in rng.sample(range(n_steps), min(8, n_steps)):
                q = owner(plan, n)
                sender_terms = sum(hi - lo for lo, hi in plan.blocks[:q])
                owner_terms = n - plan.blocks[q][0] + 1
                assert sender_terms + owner_terms == n + 1

    def test_partition_properties_sampled(self):
        rng = random.Random(20240817)
        for _ in range(500):
            n = rng.randint(1, 100000)
            p = rng.randint(1, min(n, 96))
            plan = make_partition(n, p)
            assert plan.blocks[0][0] == 0
            assert plan.blocks[-1][1] == n
            for (a0, a1), (b0, b1) in zip(plan.blocks, plan.blocks[1:]):
                assert a0 <= a1 == b0 <= b1
            for k in rng.sample(range(n), min(16, n)):
                w = owner(plan, k)
                lo, hi = plan.blocks[w]
                assert lo <= k < hi


class TestBlockStrategy:
    def test_single_worker_bitwise_serial(self):
        problem = power_problem(0.5)
        grid = problem.grid(600)
        ref = solve_serial(problem, grid)
        got = solve_block_parallel(problem, grid, 1)
        assert np.array_equal(got.states, ref.states)
        assert np.array_equal(got.f_cache, ref.f_cache)

    def test_constant_stays_constant(self):
        problem = constant_problem(value=(0.0,), y0=(3.0,))
        got = solve_block_parallel(problem, problem.grid(128), 4)
        assert (got.states == 3.0).all()

    @pytest.mark.parametrize("workers", [2, 3])
    def test_matches_serial(self, workers):
        for problem in (power_problem(0.5), linear_problem(0.7, -1.0)):
            grid = problem.grid(512)
            ref = solve_serial(problem, grid)
            got = solve_block_parallel(problem, grid, workers)
            assert sup_rel_dev(got.states, ref.states) <= 1e-10

    def test_empty_tail_block_run(self):
        problem = linear_problem(0.5, -1.0)
        grid = problem.grid(5)
        ref = solve_serial(problem, grid)
        got = solve_block_parallel(problem, grid, 4)
        assert sup_rel_dev(got.states, ref.states) <= 1e-12

    def test_deterministic_across_runs(self):
        problem = hr_problem(t_end=10.0)
        grid = problem.grid(512)
        a = solve_block_parallel(problem, grid, 3)
        b = solve_block_parallel(problem, grid, 3)
        assert np.array_equal(a.states, b.states)

    # (1001, 3) ends on a short block, (7, 7) has blocks of one step
    @pytest.mark.parametrize("n, workers", [(1000, 4), (1001, 3), (7, 7), (20, 2)])
    def test_instrumentation_counters(self, n, workers):
        problem = linear_problem(0.5, -1.0)
        stats = {}
        solve_block_parallel(problem, problem.grid(n), workers, stats=stats)
        plan = make_partition(n, workers)
        idle = stats["idle_steps"]
        msgs = stats["partial_sums_sent"]
        for w in range(workers):
            assert idle[w] == plan.blocks[w][0]
        # worker 0 assembles every step and sends nothing; helper w sends one
        # predictor and one corrector partial of block w-1 per step above it
        assert msgs[0] == 0
        for w in range(1, workers):
            assert msgs[w] == 2 * (n - plan.blocks[w - 1][1])

    def test_step_error_propagates_with_index(self):
        def exploding(t, y):
            return (float("inf"),) if t > 0.55 else (1.0,)

        problem = FractionalProblem(alpha=0.6, dim=1, rhs=exploding, y0=[0.0], t_end=1.0)
        with pytest.raises(SolverStepError) as err:
            solve_block_parallel(problem, problem.grid(20), 2)
        assert err.value.step == 11  # t_{n+1} = 0.60 is the first time past 0.55

    def test_worker_bounds(self):
        problem = constant_problem()
        for workers in (0, 5):
            with pytest.raises(ValueError, match=rf"n_workers must lie in \[1, 4\], got {workers}"):
                solve_block_parallel(problem, problem.grid(4), workers)


class TestReductionStrategy:
    def test_single_chunk_bitwise_serial(self):
        problem = power_problem(0.5)
        grid = problem.grid(600)
        ref = solve_serial(problem, grid)
        for workers in (1, 2):
            got = solve_reduction_parallel(problem, grid, workers, chunk=600)
            assert np.array_equal(got.states, ref.states)
            assert np.array_equal(got.f_cache, ref.f_cache)

    def test_constant_exact(self):
        problem = constant_problem(value=(0.0, 0.0, 0.0), y0=(1.0, 2.0, 3.0))
        got = solve_reduction_parallel(problem, problem.grid(100), 2, chunk=16)
        assert (got.states == np.array([1.0, 2.0, 3.0])).all()

    @pytest.mark.parametrize("workers,chunk", [(1, 64), (2, 64), (2, 128), (3, 32)])
    def test_matches_serial(self, workers, chunk):
        problem = linear_problem(0.7, -1.0)
        grid = problem.grid(512)
        ref = solve_serial(problem, grid)
        got = solve_reduction_parallel(problem, grid, workers, chunk)
        assert sup_rel_dev(got.states, ref.states) <= 1e-10

    def test_chunk_determinism_across_worker_counts(self):
        # span boundaries depend on (n, chunk, P), so each worker count sums
        # the same terms in its own grouping; the runs agree to roundoff
        problem = linear_problem(0.7, -1.0)
        grid = problem.grid(700)
        ref = solve_reduction_parallel(problem, grid, 1, chunk=64)
        for workers in (2, 3):
            got = solve_reduction_parallel(problem, grid, workers, chunk=64)
            assert sup_rel_dev(got.states, ref.states) <= 1e-13
        chaotic = hr_problem(t_end=10.0)
        gridc = chaotic.grid(700)
        refc = solve_reduction_parallel(chaotic, gridc, 1, chunk=64)
        for workers in (2, 3):
            got = solve_reduction_parallel(chaotic, gridc, workers, chunk=64)
            assert sup_rel_dev(got.states, refc.states) <= 1e-9

    def test_deterministic_across_runs(self):
        problem = hr_problem(t_end=10.0)
        grid = problem.grid(512)
        a = solve_reduction_parallel(problem, grid, 3, chunk=64)
        b = solve_reduction_parallel(problem, grid, 3, chunk=64)
        assert np.array_equal(a.states, b.states)

    def test_step_error_propagates(self):
        def exploding(t, y):
            return (float("nan"),) if t > 0.5 else (1.0,)

        problem = FractionalProblem(alpha=0.6, dim=1, rhs=exploding, y0=[0.0], t_end=1.0)
        with pytest.raises(SolverStepError) as err:
            solve_reduction_parallel(problem, problem.grid(10), 2, chunk=4)
        assert err.value.step == 5

    def test_parameter_validation(self):
        problem = constant_problem()
        grid = problem.grid(8)
        with pytest.raises(ValueError):
            solve_reduction_parallel(problem, grid, 0)
        with pytest.raises(ValueError):
            solve_reduction_parallel(problem, grid, 2, chunk=0)
        with pytest.raises(ValueError):
            solve_reduction_parallel(problem, grid, 9)

    def test_stats_schema(self):
        problem = linear_problem(0.5, -1.0)
        stats, chunk = {}, 32
        solve_reduction_parallel(problem, problem.grid(300), 2, chunk=chunk, stats=stats)
        assert sorted(stats) == ["idle_steps", "partial_sums_sent"]
        # the helper's span is empty while the history has a single chunk
        assert stats["idle_steps"].tolist() == [0, chunk]
        assert stats["partial_sums_sent"][1] > 0


class TestPanelHistory:
    """Both engines on the panel path, forced on; N is not a multiple of it."""

    def test_degenerate_configurations_bitwise_serial(self, force_panel):
        problem = linear_problem(0.7, -1.0, y0=(1.0, 0.5, -2.0))
        grid = problem.grid(600)
        ref = solve_serial(problem, grid)
        for got in (
            solve_block_parallel(problem, grid, 1),
            solve_reduction_parallel(problem, grid, 1, chunk=64),
            solve_reduction_parallel(problem, grid, 2, chunk=600),
        ):
            assert np.array_equal(got.states, ref.states)
            assert np.array_equal(got.f_cache, ref.f_cache)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_block_matches_serial(self, force_panel, workers):
        # block = ceil(N/P) is no multiple of the panel width, so panels
        # straddle the block edges
        for problem in (power_problem(0.5), linear_problem(0.7, -1.0, y0=(1.0, 0.5, -2.0))):
            grid = problem.grid(601)
            ref = solve_serial(problem, grid)
            got = solve_block_parallel(problem, grid, workers)
            assert sup_rel_dev(got.states, ref.states) <= 1e-10

    @pytest.mark.parametrize("workers,chunk", [(2, 24), (2, 40), (3, 56)])
    def test_reduction_matches_serial(self, force_panel, workers, chunk):
        problem = linear_problem(0.7, -1.0, y0=(1.0, 0.5, -2.0))
        grid = problem.grid(601)
        ref = solve_serial(problem, grid)
        got = solve_reduction_parallel(problem, grid, workers, chunk)
        assert sup_rel_dev(got.states, ref.states) <= 1e-10

    def test_hindmarsh_rose_within_criterion_4_tolerance(self, force_panel):
        problem = hr_problem(t_end=40.0)
        grid = problem.grid(2000)
        ref = solve_serial(problem, grid)
        for got in (solve_block_parallel(problem, grid, 2), solve_reduction_parallel(problem, grid, 2, 100)):
            assert sup_rel_dev(got.states, ref.states) <= 1e-8


def refuse_fork(*args, **kwargs):
    raise AssertionError("a helper was forked")


class TestHelperFloor:
    """A helper is forked only when its share of the history pays for it."""

    @pytest.mark.parametrize(
        "n_steps, workers, chunk",
        [(2000, 2, 1024), (2000, 2, 1000), (700, 3, 64), (1000, 4, 250), (5, 4, 2), (4096, 5, 100)],
    )
    def test_share_table_matches_brute_force(self, n_steps, workers, chunk):
        dim = 3
        steps = np.zeros(workers, np.int64)
        share = np.zeros(workers, np.int64)
        bias = round(reduction._BIAS_TERMS / chunk)
        for n in range(n_steps):
            for w, (j0, j1) in enumerate(reduction._spans(n // chunk + 1, workers, bias)):
                if j1 > j0:
                    steps[w] += 1
                    share[w] += (j1 - j0) * chunk * dim
        table = reduction._span_table(n_steps, workers, chunk)
        got = reduction._helper_work(table, workers, chunk, dim)
        assert got[0].tolist() == steps.tolist() and got[1].tolist() == share.tolist()

    def test_shipped_floor_separates_the_workloads(self):
        # the benchmark's short-many solves are below it; hr-long,
        # wide-linear and criteria 5 and 7 fork
        block = lambda n, p: make_partition(n, p).block_size  # noqa: E731
        below = [(2000, 1, 2, 1024), (2000, 1, 2, block(2000, 2))]
        above = [
            (20000, 3, 2, 1024), (20000, 3, 2, block(20000, 2)),
            (5000, 64, 2, 1024), (5000, 64, 2, block(5000, 2)),
            (50000, 3, 2, 1024), (50000, 3, 2, block(50000, 2)),
            (20000, 3, 4, block(20000, 4)),
        ]
        assert all(min_helper_share(*case) < SHIPPED_FLOOR for case in below)
        assert all(min_helper_share(*case) >= SHIPPED_FLOOR for case in above)

    @pytest.mark.parametrize(
        "solve",
        [
            lambda problem, grid, stats: solve_block_parallel(problem, grid, 2, stats=stats),
            lambda problem, grid, stats: solve_reduction_parallel(problem, grid, 3, 64, stats=stats),
        ],
        ids=["block", "reduction"],
    )
    def test_below_floor_is_serial_without_a_fork(self, solve, monkeypatch):
        monkeypatch.setattr(reduction, "_HELPER_FLOOR", SHIPPED_FLOOR)
        monkeypatch.setattr(_shm, "fork_processes", refuse_fork)
        for problem, n_steps in ((power_problem(0.5), 2000), (hr_problem(t_end=10.0), 700)):
            grid = problem.grid(n_steps)
            ref = solve_serial(problem, grid)
            stats = {}
            got = solve(problem, grid, stats)
            assert got.states.tobytes() == ref.states.tobytes()
            assert got.f_cache.tobytes() == ref.f_cache.tobytes()
            workers = len(stats["idle_steps"])
            assert stats["idle_steps"].tolist() == [0] + [n_steps] * (workers - 1)
            assert stats["partial_sums_sent"].tolist() == [0] * workers

    @pytest.mark.parametrize("workers, chunk", [(2, 300), (3, 64)])
    def test_decision_flips_at_the_floor(self, workers, chunk, monkeypatch):
        problem = linear_problem(0.6, -1.0, y0=(1.0, 2.0))
        grid = problem.grid(1000)
        floor = min_helper_share(grid.n_steps, problem.dim, workers, chunk)
        monkeypatch.setattr(reduction, "_HELPER_FLOOR", floor)
        stats = {}
        forked = solve_reduction_parallel(problem, grid, workers, chunk, stats=stats)
        assert (stats["partial_sums_sent"][1:] > 0).all()
        assert multiprocessing.active_children() == []
        monkeypatch.setattr(reduction, "_HELPER_FLOOR", floor + 1)
        monkeypatch.setattr(_shm, "fork_processes", refuse_fork)
        stats = {}
        alone = solve_reduction_parallel(problem, grid, workers, chunk, stats=stats)
        assert stats["partial_sums_sent"].tolist() == [0] * workers
        assert alone.states.tobytes() == solve_serial(problem, grid).states.tobytes()
        assert sup_rel_dev(forked.states, alone.states) <= 1e-12


STRATEGY_SOLVES = {
    "serial": solve_serial,
    "block": lambda problem, grid: solve_block_parallel(problem, grid, 2),
    "reduction": lambda problem, grid: solve_reduction_parallel(problem, grid, 2, chunk=4),
}

every_strategy = pytest.mark.parametrize(
    "solve", list(STRATEGY_SOLVES.values()), ids=list(STRATEGY_SOLVES)
)

parallel_strategies = pytest.mark.parametrize(
    "solve",
    [
        solve_block_parallel,
        lambda problem, grid, workers, **kw: solve_reduction_parallel(problem, grid, workers, 64, **kw),
    ],
    ids=["block", "reduction"],
)


def rhs_of_t(t, y):
    # f depends on t only, so every strategy's rhs cache is bitwise serial's
    return (t, 1.0 - t, t * t)


@every_strategy
def test_trajectory_hands_over_read_only_buffers(solve):
    problem = FractionalProblem(alpha=0.6, dim=3, rhs=rhs_of_t, y0=[1.0, 2.0, 3.0], t_end=1.0)
    grid = problem.grid(40)
    ref = solve_serial(problem, grid)
    traj = solve(problem, grid)
    assert multiprocessing.active_children() == []
    for arr in (traj.states, traj.f_cache):
        with pytest.raises(ValueError):
            arr[1] = 0.0
    # a later solve maps and frees its own memory; this history stays
    solve(linear_problem(0.6, -1.0, y0=(1.0, 2.0)), grid)
    assert traj.f_cache.tobytes() == ref.f_cache.tobytes()


def test_trajectory_shares_the_step_buffers():
    problem = linear_problem(0.6, -1.0, y0=(1.0, 2.0))
    grid = problem.grid(10)
    step = PeceStep(problem, grid)
    step.run(0, grid.n_steps)
    traj = step.trajectory()
    assert np.shares_memory(traj.states, step.Y) and np.shares_memory(traj.f_cache, step.fT)
    with pytest.raises(ValueError):  # the step has ended
        step.run(0, 1)


@every_strategy
def test_scalar_rhs_result_is_step_error(solve):
    # a scalar would broadcast into both components if the length went unchecked
    def rhs(t, y):
        return -y if t < 0.52 else float(-y[0])

    problem = FractionalProblem(alpha=0.6, dim=2, rhs=rhs, y0=[1.0, 2.0], t_end=1.0)
    with pytest.raises(SolverStepError) as err:
        solve(problem, problem.grid(20))
    assert err.value.step == 10  # t_{n+1} = 0.55 is the first time past 0.52
    assert "values, expected 2" in str(err.value)


@every_strategy
def test_scalar_rhs_counts_as_one_value(solve):
    def solved(rhs):
        problem = FractionalProblem(alpha=0.6, dim=1, rhs=rhs, y0=[1.0], t_end=1.0)
        traj = solve(problem, problem.grid(20))
        return traj.states.tobytes() + traj.f_cache.tobytes()

    assert solved(lambda t, y: -y[0]) == solved(lambda t, y: (-y[0],))


@every_strategy
@pytest.mark.parametrize(
    "dim, rhs, reason",
    [
        (2, rhs_constant([0.0]), "rhs returned 1 values, expected 2"),
        (3, lambda t, y: -y.reshape(3, 1), "rhs evaluation failed: ValueError"),
        (1, lambda t, y: (float("nan"),), "rhs returned a non-finite value"),
        (2, lambda t, y: (1.0, 2.0, 3.0), "rhs returned 3 values, expected 2"),
    ],
    ids=["short", "column", "nonfinite", "long"],
)
def test_malformed_f0_is_step_error(solve, dim, rhs, reason):
    # f(0, y0) is checked like every later evaluation, not reshaped; the
    # count is checked before the store, so a wrong length is named as such
    problem = FractionalProblem(alpha=0.6, dim=dim, rhs=rhs, y0=np.ones(dim), t_end=1.0)
    with pytest.raises(SolverStepError) as err:
        solve(problem, problem.grid(20))
    assert err.value.step == 0 and err.value.t == 0.0
    assert err.value.reason.startswith(reason)


@pytest.mark.parametrize(
    "solve, threshold, step",
    [
        (solve, threshold, step)
        for threshold, step in ((0.52, 10), (-1.0, 0))
        for solve in STRATEGY_SOLVES.values()
    ],
    # the first case keeps the bare strategy ids; "t0" fails on f(0, y0)
    ids=[name + suffix for suffix in ("", "-t0") for name in STRATEGY_SOLVES],
)
def test_raising_rhs_is_step_error(solve, threshold, step):
    def rhs(t, y):
        if t > threshold:
            raise TypeError("rhs gave up")
        return -y

    problem = FractionalProblem(alpha=0.6, dim=2, rhs=rhs, y0=[1.0, 2.0], t_end=1.0)
    with pytest.raises(SolverStepError) as err:
        solve(problem, problem.grid(20))
    assert err.value.step == step
    assert isinstance(err.value.__cause__, TypeError)


def rhs_changed_at(step, h, evaluation, value):
    """-y, except at the predictor's (0) or corrector's (1) evaluation of ``step``.

    There it returns ``value(y)``; both evaluations of step n are the calls
    at t = (n+1) h, the predictor's first.
    """
    calls = []

    def rhs(t, y):
        if t == (step + 1) * h:
            calls.append(t)
            if len(calls) == evaluation + 1:
                return value(y)
        return -y

    return rhs


def _raise(y):
    raise ValueError("rhs gave up")


# a stored inf enters the history products of the rest of its block, where
# numpy warns, before the block's finiteness check raises the step error
@pytest.mark.filterwarnings("ignore:invalid value encountered in dot:RuntimeWarning")
@every_strategy
@pytest.mark.parametrize("evaluation", [0, 1], ids=["predictor", "corrector"])
@pytest.mark.parametrize(
    "value, reason",
    [
        (_raise, "rhs evaluation failed: ValueError: rhs gave up"),
        (lambda y: (1.0, 2.0, 3.0), "rhs returned 3 values, expected 2"),
        (lambda y: 1.0, "rhs returned 1 values, expected 2"),
        (lambda y: (0.0, float("nan")), "rhs returned a non-finite value"),
        (lambda y: (-float("inf"), 0.0), "rhs returned a non-finite value"),
    ],
    ids=["raises", "long", "scalar", "nan", "inf"],
)
def test_bad_rhs_at_either_evaluation_is_step_error(solve, evaluation, value, reason):
    grid = GridSpec.from_horizon(1.0, 20)
    rhs = rhs_changed_at(10, grid.h, evaluation, value)
    problem = FractionalProblem(alpha=0.6, dim=2, rhs=rhs, y0=[1.0, 2.0], t_end=1.0)
    with pytest.raises(SolverStepError) as err:
        solve(problem, grid)
    assert (err.value.step, err.value.t, err.value.reason) == (10, 11 * grid.h, reason)


@every_strategy
@pytest.mark.parametrize("evaluation", [0, 1], ids=["predictor", "corrector"])
def test_rhs_values_accepted_at_either_evaluation(solve, evaluation):
    # a scalar at d=1, and a finite value whose square overflows the
    # finiteness check's dot product
    for dim, value in ((1, lambda y: float(-y[0])), (2, lambda y: (1e200, -1e200))):
        grid = GridSpec.from_horizon(1.0, 20)
        rhs = rhs_changed_at(10, grid.h, evaluation, value)
        problem = FractionalProblem(alpha=0.6, dim=dim, rhs=rhs, y0=np.ones(dim), t_end=1.0)
        with np.errstate(over="ignore"):
            traj = solve(problem, grid)
        assert np.isfinite(traj.states).all()
        if dim == 2 and evaluation == 1:
            assert traj.f_cache[11].tolist() == [1e200, -1e200]


@every_strategy
def test_rhs_failing_mid_panel_is_step_error(solve, force_panel):
    # step 21 lies inside the second panel, whose far part is already formed
    def rhs(t, y):
        if t > 0.54:
            raise TypeError("rhs gave up")
        return -y

    problem = FractionalProblem(alpha=0.6, dim=2, rhs=rhs, y0=[1.0, 2.0], t_end=1.0)
    with pytest.raises(SolverStepError) as err:
        solve(problem, problem.grid(40))
    assert err.value.step == 21 and 21 % force_panel not in (0, force_panel - 1)
    assert isinstance(err.value.__cause__, TypeError)


NAN = float("nan")


@every_strategy
@pytest.mark.parametrize(
    "step", [0, BLOCK, 2 * BLOCK - 1, 2 * BLOCK], ids=["step0", "first", "last", "next"]
)
@pytest.mark.parametrize("evaluation", [0, 1], ids=["predictor", "corrector"])
@pytest.mark.parametrize(
    "value, reason",
    [
        (_raise, "rhs evaluation failed: ValueError: rhs gave up"),
        (lambda y: (NAN, 0.0), "rhs returned a non-finite value"),
    ],
    ids=["raises", "nan"],
)
def test_failure_at_block_edges_is_step_error(solve, step, evaluation, value, reason):
    # steps run in blocks of BLOCK, scanned at their ends: a failure is
    # reported at its own step wherever it falls in a block
    grid = GridSpec.from_horizon(1.0, 3 * BLOCK)
    rhs = rhs_changed_at(step, grid.h, evaluation, value)
    problem = FractionalProblem(alpha=0.6, dim=2, rhs=rhs, y0=[1.0, 2.0], t_end=1.0)
    with pytest.raises(SolverStepError) as err, np.errstate(invalid="ignore"):
        solve(problem, grid)
    assert (err.value.step, err.value.t, err.value.reason) == (step, (step + 1) * grid.h, reason)


@every_strategy
def test_non_finite_prediction_shows_in_the_state(solve):
    # the corrector's value ignores y, so the history stays finite and only
    # the state y_{11}, which weights the prediction positively, shows it
    grid = GridSpec.from_horizon(1.0, 20)
    calls = []

    def rhs(t, y):
        if t == 11 * grid.h:
            calls.append(t)
            if len(calls) == 1:
                return (NAN, 0.0)
        return (t, 1.0 - t)

    problem = FractionalProblem(alpha=0.6, dim=2, rhs=rhs, y0=[1.0, 2.0], t_end=1.0)
    with pytest.raises(SolverStepError) as err, np.errstate(invalid="ignore"):
        solve(problem, grid)
    assert (err.value.step, err.value.reason) == (10, "rhs returned a non-finite value")
    assert len(calls) == 2


def _refuse_non_finite(y):
    if not np.isfinite(y).all():
        raise ValueError("non-finite state")
    return -y


@every_strategy
@pytest.mark.parametrize("evaluation", [0, 1], ids=["predictor", "corrector"])
@pytest.mark.parametrize(
    "later",
    [_refuse_non_finite, lambda y: (1.0, 2.0, 3.0)],
    ids=["raises", "long"],
)
def test_earlier_non_finite_value_wins(solve, evaluation, later):
    # one of step 10's results is NaN, and the next evaluation, which sees
    # a NaN state, fails otherwise: the report is step 10's non-finite value
    calls = []

    def rhs(t, y):
        # call 0 is f(0, y0), calls 2n+1 and 2n+2 are step n's
        calls.append(t)
        i = len(calls) - 1
        if i == 21 + evaluation:
            return (NAN, 0.0)
        return later(y) if i > 21 + evaluation else -y

    problem = FractionalProblem(alpha=0.6, dim=2, rhs=rhs, y0=[1.0, 2.0], t_end=1.0)
    with pytest.raises(SolverStepError) as err, np.errstate(invalid="ignore"):
        solve(problem, problem.grid(20))
    assert (err.value.step, err.value.reason) == (10, "rhs returned a non-finite value")
    assert err.value.__cause__ is None


@every_strategy
def test_successful_solve_calls_rhs_once_per_evaluation(solve):
    # f(0, y0) and two evaluations a step: nothing is evaluated again
    grid = GridSpec.from_horizon(1.0, 3 * BLOCK + 5)
    calls = []

    def rhs(t, y):
        calls.append(t)
        return -y

    solve(FractionalProblem(alpha=0.6, dim=2, rhs=rhs, y0=[1.0, 2.0], t_end=1.0), grid)
    assert len(calls) == 2 * grid.n_steps + 1


@parallel_strategies
def test_watchdog_breaks_hang(solve, monkeypatch):
    # a helper that stops answering trips the coordinator's watchdog; at
    # N=2000 a helper stopped mid-run cannot have finished a ring ahead
    stopped = []

    def rhs(t, y):
        if t > 0.5 and not stopped:
            stopped.extend(p.pid for p in multiprocessing.active_children())
            for pid in stopped:
                os.kill(pid, signal.SIGSTOP)
        return -y

    problem = FractionalProblem(alpha=0.5, dim=1, rhs=rhs, y0=[1.0], t_end=1.0)
    monkeypatch.setattr(_shm, "WATCHDOG_S", 1.0)
    t0 = time.monotonic()
    try:
        with pytest.raises(StrategyTimeoutError):
            solve(problem, problem.grid(2000), 2)
    finally:
        for pid in stopped:
            try:
                os.kill(pid, signal.SIGCONT)
            except ProcessLookupError:
                pass
    assert stopped
    # the coordinator kills the stopped helper at once: no grace period
    assert time.monotonic() - t0 < 5.0
    assert multiprocessing.active_children() == []


@parallel_strategies
def test_killed_helper_is_step_error(solve):
    # a helper that dies is seen at the coordinator's next wait on it, not
    # after the watchdog (60 s by default)
    killed = []

    def rhs(t, y):
        if t > 0.5 and not killed:
            killed.extend(p.pid for p in multiprocessing.active_children())
            for pid in killed:
                os.kill(pid, signal.SIGKILL)
        return -y

    problem = FractionalProblem(alpha=0.5, dim=1, rhs=rhs, y0=[1.0], t_end=1.0)
    t0 = time.monotonic()
    with pytest.raises(SolverStepError, match="worker failed: helper 1 exited with code -9"):
        solve(problem, problem.grid(2000), 2)
    assert killed
    assert time.monotonic() - t0 < 5.0
    assert multiprocessing.active_children() == []


@parallel_strategies
def test_raising_helper_is_step_error(solve, monkeypatch):
    # the helper's exception ends it with exit code 1; the coordinator
    # reports the first step that needs the helper's partial
    problem = linear_problem(0.5, -1.0)
    grid = problem.grid(300)
    stats = {}
    solve(problem, grid, 2, stats=stats)
    first_helper_step = int(stats["idle_steps"][1])
    coordinator = os.getpid()
    history = PeceStep.history

    def failing(self, n, lo, hi, out):
        if os.getpid() != coordinator:
            raise RuntimeError("helper gave up")
        history(self, n, lo, hi, out)

    monkeypatch.setattr(PeceStep, "history", failing)
    with pytest.raises(SolverStepError, match="worker failed: helper 1 exited with code 1") as err:
        solve(problem, grid, 2)
    assert err.value.step == first_helper_step
    assert multiprocessing.active_children() == []


@parallel_strategies
def test_earlier_non_finite_value_wins_over_killed_helper(solve, monkeypatch):
    # the helper kills itself before it sends step m's partials, so the
    # coordinator finds it dead at step m; step m - 2's NaN, in the same
    # block, is what the solve reports
    problem = linear_problem(0.5, -1.0)
    grid = problem.grid(300)
    stats = {}
    solve(problem, grid, 2, stats=stats)
    m = int(stats["idle_steps"][1]) + 5
    assert (m - 2) // BLOCK == m // BLOCK
    coordinator = os.getpid()
    history = PeceStep.history

    def dying(self, n, lo, hi, out):
        if os.getpid() != coordinator and n >= m:
            os.kill(os.getpid(), signal.SIGKILL)
        history(self, n, lo, hi, out)

    monkeypatch.setattr(PeceStep, "history", dying)
    with pytest.raises(SolverStepError, match="worker failed: helper 1 exited with code -9") as err:
        solve(problem, grid, 2)
    assert err.value.step == m
    bad = FractionalProblem(
        alpha=0.5, dim=1, rhs=rhs_changed_at(m - 2, grid.h, 1, lambda y: (NAN,)), y0=[1.0], t_end=1.0
    )
    with pytest.raises(SolverStepError) as err, np.errstate(invalid="ignore"):
        solve(bad, grid, 2)
    assert (err.value.step, err.value.reason) == (m - 2, "rhs returned a non-finite value")
    assert multiprocessing.active_children() == []


def _gone(pid: int) -> bool:
    """True when the process has exited (reaped, or a zombie)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="needs /proc")
def test_killed_coordinator_leaves_no_helper():
    # helpers wait for the coordinator without a deadline; once it is killed
    # they are re-parented and must notice and exit
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)

    def coordinator():
        def rhs(t, y):
            if t > 0.5:
                send.send([p.pid for p in multiprocessing.active_children()])
                time.sleep(60.0)
            return -y

        problem = FractionalProblem(alpha=0.5, dim=1, rhs=rhs, y0=[1.0], t_end=1.0)
        solve_reduction_parallel(problem, problem.grid(200), 2, chunk=16)

    child = ctx.Process(target=coordinator)
    child.start()
    helpers = []
    try:
        assert recv.poll(30.0)
        helpers = recv.recv()
        assert helpers
        os.kill(child.pid, signal.SIGKILL)
        child.join(5.0)
        deadline = time.monotonic() + 5.0
        while not all(map(_gone, helpers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert all(map(_gone, helpers))
    finally:
        if child.is_alive():
            child.kill()
            child.join()
        for pid in helpers:
            if not _gone(pid):
                os.kill(pid, signal.SIGKILL)


@parallel_strategies
def test_non_x86_machine_refused(solve, monkeypatch):
    # the counter protocol issues no fences, so it needs total store order
    monkeypatch.setattr(platform, "machine", lambda: "aarch64")
    problem = linear_problem(0.5, -1.0)
    grid = problem.grid(64)
    with pytest.raises(RuntimeError, match="x86-64") as err:
        solve(problem, grid, 2)
    assert type(err.value) is RuntimeError
    # a single worker never forks
    assert np.array_equal(solve(problem, grid, 1).states, solve_serial(problem, grid).states)


@parallel_strategies
def test_fork_with_live_thread_warns(solve):
    # a lock held by another thread at the fork would stay held in a helper
    release = threading.Event()
    parked = threading.Thread(target=release.wait, daemon=True)
    parked.start()
    problem = linear_problem(0.5, -1.0)
    grid = problem.grid(64)
    try:
        with pytest.warns(RuntimeWarning, match="threads") as record:
            traj = solve(problem, grid, 2)
    finally:
        release.set()
        parked.join()
    assert len(record) == 1
    np.testing.assert_allclose(traj.states, solve_serial(problem, grid).states, rtol=1e-12)


@parallel_strategies
def test_fork_from_single_thread_is_silent(solve):
    problem = linear_problem(0.5, -1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        solve(problem, problem.grid(64), 2)
