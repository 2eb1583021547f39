import math

import numpy as np
import pytest

from fodeabm import FractionalProblem, GridSpec, SolverStepError, solve_serial
from fodeabm.serial import PeceStep
from fodeabm.systems import rhs_constant

from conftest import constant_problem, linear_problem, power_problem

SQRT01_B0 = 0.35682482323055422291  # sqrt(0.1) / Gamma(1.5)


def brute_force_predictor(problem, grid, traj, n):
    """Direct transcription of the predictor sum with scalar arithmetic."""
    h = grid.h
    alpha = problem.alpha
    acc = np.zeros(problem.dim)
    for k in range(n + 1):
        bk = ((n - k + 1) ** alpha - (n - k) ** alpha) / math.gamma(alpha + 1.0)
        acc += bk * traj.f_cache[k]
    return problem.y0 + h**alpha * acc


def brute_force_corrector(problem, grid, traj, n, y_pred):
    h = grid.h
    alpha = problem.alpha
    ga2 = math.gamma(alpha + 2.0)
    cn = (n ** (alpha + 1) - (n - alpha) * (n + 1) ** alpha) / ga2
    acc = cn * traj.f_cache[0].astype(float)
    for k in range(1, n + 1):
        m = n - k
        ak = ((m + 2) ** (alpha + 1) - 2 * (m + 1) ** (alpha + 1) + m ** (alpha + 1)) / ga2
        acc = acc + ak * traj.f_cache[k]
    fP = np.asarray(problem.rhs((n + 1) * h, np.asarray(y_pred)), dtype=float)
    acc = acc + fP / ga2
    return problem.y0 + h**alpha * acc


def step_over(problem, grid, traj, n):
    """A PeceStep whose history holds the first n+1 rows of ``traj``'s rhs cache."""
    step = PeceStep(problem, grid)
    step.fT[:, : n + 1] = traj.f_cache[: n + 1].T
    return step


def advance_over(problem, grid, traj, n):
    """Run step n of the shared kernel on ``traj``'s history: (yP, y_{n+1})."""
    step = step_over(problem, grid, traj, n)
    yP = step.advance(n, step.history(n, 0, n + 1))
    return yP, step.Y[n + 1]


class TestStepOperations:
    def test_zero_rhs_keeps_initial_state(self):
        problem = constant_problem(value=(0.0,), y0=(3.0,))
        grid = problem.grid(8)
        traj = solve_serial(problem, grid)
        for n in range(8):
            yP, _ = advance_over(problem, grid, traj, n)
            assert yP == pytest.approx([3.0])
        assert (traj.states == 3.0).all()

    def test_classic_euler_first_step(self):
        # alpha=1, dy=1, h=0.1: predictor and corrector both give exactly 0.1
        problem = constant_problem(value=(1.0,), y0=(0.0,), alpha=1.0)
        grid = problem.grid(10)
        traj = solve_serial(problem, grid)
        yP, y1 = advance_over(problem, grid, traj, 0)
        assert yP[0] == pytest.approx(0.1, abs=1e-15)
        assert y1[0] == pytest.approx(0.1, abs=1e-15)

    def test_half_order_single_term_sum(self):
        # D^0.5 y = 1, h=0.1: first predicted value is h^0.5 * b_0
        problem = constant_problem(value=(1.0,), y0=(0.0,), alpha=0.5)
        grid = problem.grid(10)
        traj = solve_serial(problem, grid)
        yP, _ = advance_over(problem, grid, traj, 0)
        assert yP[0] == pytest.approx(SQRT01_B0, rel=1e-14)

    def test_predictor_matches_brute_force(self):
        problem = linear_problem(alpha=0.6, lam=-1.0)
        grid = problem.grid(40)
        traj = solve_serial(problem, grid)
        for n in (0, 1, 7, 25, 39):
            got, _ = advance_over(problem, grid, traj, n)
            want = brute_force_predictor(problem, grid, traj, n)
            np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_corrector_matches_brute_force(self):
        # rhs depends on t only, so the three-term structure is fully exposed
        problem = FractionalProblem(
            alpha=0.5, dim=1, rhs=lambda t, y: (t,), y0=[0.0], t_end=1.0
        )
        grid = problem.grid(10)
        traj = solve_serial(problem, grid)
        for n in (0, 1, 5, 9):
            yP, got = advance_over(problem, grid, traj, n)
            want = brute_force_corrector(problem, grid, traj, n, yP)
            np.testing.assert_allclose(got, want, rtol=1e-13)

    def test_corrector_rejects_non_finite_prediction(self):
        problem = linear_problem(alpha=0.5, lam=-1.0)
        grid = problem.grid(4)
        traj = solve_serial(problem, grid)
        step = step_over(problem, grid, traj, 1)
        S = step.history(1, 0, 2)
        S[0, 0] = float("nan")
        with pytest.raises(SolverStepError) as err:
            step.advance(1, S)
        assert err.value.step == 1


class TestSolveSerial:
    def test_constant_preservation_bitwise(self):
        problem = constant_problem(value=(0.0, 0.0), y0=(3.0, -1.5))
        traj = solve_serial(problem, problem.grid(64))
        assert (traj.states == np.array([3.0, -1.5])).all()
        assert (traj.f_cache == 0.0).all()

    def test_exact_for_constant_rhs_alpha_one(self):
        problem = constant_problem(value=(2.5,), y0=(1.0,), alpha=1.0, t_end=2.0)
        grid = problem.grid(100)
        traj = solve_serial(problem, grid)
        want = 1.0 + 2.5 * grid.times()
        np.testing.assert_allclose(traj.states[:, 0], want, rtol=1e-12)

    def test_power_law_terminal_error(self):
        traj = solve_serial(power_problem(0.5), power_problem(0.5).grid(1000))
        assert abs(traj.states[-1, 0] - 1.0) <= 5e-3

    def test_exponential_decay_alpha_one(self):
        problem = linear_problem(alpha=1.0, lam=-1.0)
        traj = solve_serial(problem, problem.grid(1000))
        assert abs(traj.states[-1, 0] - math.exp(-1.0)) <= 1e-4

    def test_deterministic(self):
        problem = linear_problem(alpha=0.7, lam=-0.5)
        grid = problem.grid(200)
        a = solve_serial(problem, grid)
        b = solve_serial(problem, grid)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.f_cache, b.f_cache)

    def test_rebuild_from_step_operations(self):
        problem = linear_problem(alpha=0.5, lam=-1.0)
        N = 32
        grid = problem.grid(N)
        ref = solve_serial(problem, grid)
        states = [np.array(problem.y0)]
        fcache = [np.asarray(problem.rhs(0.0, problem.y0), dtype=float)]
        for n in range(N):
            partial = _PrefixTrajectory(grid, states, fcache)
            _, y1 = advance_over(problem, grid, partial, n)
            states.append(y1.copy())
            fcache.append(np.asarray(problem.rhs((n + 1) * grid.h, y1), dtype=float))
        np.testing.assert_allclose(np.vstack(states), ref.states, rtol=1e-13, atol=0)

    def test_non_finite_rhs_reports_step(self):
        def exploding(t, y):
            return (float("nan"),) if t > 0.5 else (1.0,)

        problem = FractionalProblem(alpha=0.8, dim=1, rhs=exploding, y0=[0.0], t_end=1.0)
        with pytest.raises(SolverStepError) as err:
            solve_serial(problem, problem.grid(10))
        # first rhs call past t=0.5 happens when forming t_{n+1} = 0.6
        assert err.value.step == 5
        assert err.value.t == pytest.approx(0.6)

    def test_raising_rhs_becomes_step_error(self):
        def bad(t, y):
            if t > 0.3:
                raise ValueError("boom")
            return (0.0,)

        problem = FractionalProblem(alpha=0.5, dim=1, rhs=bad, y0=[0.0], t_end=1.0)
        with pytest.raises(SolverStepError):
            solve_serial(problem, problem.grid(10))

    def test_trajectory_immutability_and_shape(self):
        problem = constant_problem()
        traj = solve_serial(problem, problem.grid(5))
        assert traj.states.shape == (6, 1)
        assert traj.f_cache.shape == (6, 1)
        with pytest.raises(ValueError):
            traj.states[0, 0] = 7.0

    def test_grid_must_span_problem_horizon(self):
        problem = constant_problem(t_end=1.0)
        with pytest.raises(ValueError):
            solve_serial(problem, GridSpec(n_steps=10, h=0.5))


class _PrefixTrajectory:
    """Minimal trajectory stand-in exposing the completed prefix."""

    def __init__(self, grid, states, fcache):
        self.grid = grid
        self.states = np.vstack(states)
        self.f_cache = np.vstack(fcache)


class TestProblemValidation:
    def test_alpha_range(self):
        for alpha in (0.0, -0.2, 1.0001):
            with pytest.raises(ValueError):
                FractionalProblem(alpha=alpha, dim=1, rhs=rhs_constant([0.0]), y0=[0.0], t_end=1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            FractionalProblem(alpha=0.5, dim=2, rhs=rhs_constant([0.0, 0.0]), y0=[0.0], t_end=1.0)

    def test_rhs_output_shape_checked(self):
        problem = FractionalProblem(
            alpha=0.5, dim=2, rhs=rhs_constant([0.0]), y0=[0.0, 0.0], t_end=1.0
        )
        with pytest.raises(ValueError):
            solve_serial(problem, problem.grid(4))

    def test_horizon_positive(self):
        with pytest.raises(ValueError):
            FractionalProblem(alpha=0.5, dim=1, rhs=rhs_constant([0.0]), y0=[0.0], t_end=0.0)

    def test_grid_times(self):
        g = GridSpec.from_horizon(2.0, 4)
        np.testing.assert_allclose(g.times(), [0.0, 0.5, 1.0, 1.5, 2.0])
