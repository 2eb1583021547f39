import random
import time

import numpy as np
import pytest

from fodeabm import (
    FractionalProblem,
    SolverStepError,
    StrategyTimeoutError,
    idle_fraction,
    make_partition,
    owner,
    solve_block_parallel,
    solve_reduction_parallel,
    solve_serial,
)

from conftest import constant_problem, hr_problem, linear_problem, power_problem, sup_rel_dev


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

    def test_idle_fraction_examples(self):
        plan = make_partition(1000, 4)
        assert idle_fraction(plan, 0) == 0.0
        assert idle_fraction(plan, 3) == pytest.approx(0.75)
        assert idle_fraction(make_partition(10, 1), 0) == 0.0

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

    def test_instrumentation_counters(self):
        problem = linear_problem(0.5, -1.0)
        n, workers = 1000, 4
        stats = {}
        solve_block_parallel(problem, problem.grid(n), workers, stats=stats)
        plan = stats["plan"]
        idle = stats["idle_steps"]
        msgs = stats["partial_sums_sent"]
        for w in range(workers):
            lo, hi = plan.blocks[w]
            assert idle[w] == lo
            # one predictor and one corrector partial per step above the block
            assert msgs[w] == (2 * (n - hi) if lo < hi else 0)

    def test_idle_matches_idle_fraction(self):
        problem = linear_problem(0.5, -1.0)
        n, workers = 800, 4
        stats = {}
        solve_block_parallel(problem, problem.grid(n), workers, stats=stats)
        plan = stats["plan"]
        for w in range(workers):
            assert stats["idle_steps"][w] / n == pytest.approx(idle_fraction(plan, w))

    def test_step_error_propagates_with_index(self):
        def exploding(t, y):
            return (float("inf"),) if t > 0.55 else (1.0,)

        problem = FractionalProblem(alpha=0.6, dim=1, rhs=exploding, y0=[0.0], t_end=1.0)
        with pytest.raises(SolverStepError) as err:
            solve_block_parallel(problem, problem.grid(20), 2)
        assert err.value.step == 11  # t_{n+1} = 0.60 is the first time past 0.55

    def test_watchdog_breaks_hang(self):
        def stuck(t, y):
            if t > 0.5:
                time.sleep(30.0)
            return (0.0,)

        problem = FractionalProblem(alpha=0.5, dim=1, rhs=stuck, y0=[0.0], t_end=1.0)
        t0 = time.monotonic()
        with pytest.raises(StrategyTimeoutError):
            solve_block_parallel(problem, problem.grid(8), 2, watchdog_s=1.0)
        assert time.monotonic() - t0 < 20.0

    def test_worker_bounds(self):
        problem = constant_problem()
        with pytest.raises(ValueError):
            solve_block_parallel(problem, problem.grid(4), 5)


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
        stats = {}
        solve_reduction_parallel(problem, problem.grid(300), 2, chunk=32, stats=stats)
        assert stats["chunk"] == 32
        assert (stats["idle_steps"] == 0).all()
        assert stats["partial_sums_sent"][1] > 0


@pytest.mark.parametrize(
    "solve",
    [
        solve_serial,
        lambda problem, grid: solve_block_parallel(problem, grid, 2),
        lambda problem, grid: solve_reduction_parallel(problem, grid, 2, chunk=4),
    ],
    ids=["serial", "block", "reduction"],
)
def test_scalar_rhs_result_is_step_error(solve):
    # a scalar would broadcast into both components if the length went unchecked
    def rhs(t, y):
        return -y if t < 0.52 else float(-y[0])

    problem = FractionalProblem(alpha=0.6, dim=2, rhs=rhs, y0=[1.0, 2.0], t_end=1.0)
    with pytest.raises(SolverStepError) as err:
        solve(problem, problem.grid(20))
    assert err.value.step == 10  # t_{n+1} = 0.55 is the first time past 0.52
    assert "values, expected 2" in str(err.value)
