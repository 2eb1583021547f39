import math
import warnings

import numpy as np
import pytest

from fodeabm import FractionalProblem, GridSpec, SolverStepError, solve_serial
from fodeabm.core import precompute_weights
from fodeabm import serial
from fodeabm.serial import PeceStep
from fodeabm.systems import rhs_constant

from conftest import (
    CRITERION_6_DIM,
    constant_problem,
    linear_problem,
    power_problem,
    sums_written,
    sup_rel_dev,
)

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


# right-hand sides for the brute-force corrector checks
CORRECTOR_RHS = (lambda t, y: (t,), lambda t, y: (1.0 + t - y[0],))


def step_over(problem, grid, traj, n):
    """A PeceStep whose history holds the first n+1 rows of ``traj``'s rhs cache."""
    step = PeceStep(problem, grid)
    step.fT[:, : n + 1] = traj.f_cache[: n + 1].T
    return step


def advance_over(problem, grid, traj, n):
    """Run step n of the shared kernel on ``traj``'s history: (yP, y_{n+1})."""
    step = step_over(problem, grid, traj, n)
    step.run(n, n + 1)
    return step.yP, step.Y[n + 1]


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
        # the first rhs depends on t only, so the three-term structure is
        # fully exposed; the second has f_0 = 1, which the first zeroes
        for rhs in CORRECTOR_RHS:
            problem = FractionalProblem(alpha=0.5, dim=1, rhs=rhs, y0=[0.0], t_end=1.0)
            grid = problem.grid(10)
            traj = solve_serial(problem, grid)
            for n in (0, 1, 5, 9):
                yP, got = advance_over(problem, grid, traj, n)
                want = brute_force_corrector(problem, grid, traj, n, yP)
                np.testing.assert_allclose(got, want, rtol=1e-13)

    def test_corrector_tail_weights_bitwise(self):
        # CW[n] = h^alpha (c_n - a_n) weights f_0; every step weights fP with
        # h^alpha / Gamma(alpha+2) and its corrector sum S_c with 1
        for alpha, N in ((0.5, 10), (0.9, 333), (1.0, 7)):
            problem = linear_problem(alpha=alpha, lam=-1.0, y0=(1.0, 2.0))
            grid = problem.grid(N)
            table = precompute_weights(alpha, N)
            ha = grid.h**alpha
            step = PeceStep(problem, grid)
            assert step.CW.shape == (N + 1,)
            assert step.CW.tobytes() == (ha * (table.c - table.a)).tobytes()
            assert step._tail_weights[1:].tolist() == [ha / math.gamma(alpha + 2.0), 1.0]

    def test_step_buffer_layout(self):
        # G = [f_0, fP, S_c, S_p], column-major: every column is contiguous
        problem = linear_problem(alpha=0.6, lam=-1.0, y0=(1.0, 2.0, 3.0))
        grid = problem.grid(10)
        step = PeceStep(problem, grid)
        assert step.G.shape == (3, 4) and step.G.flags.f_contiguous
        assert np.shares_memory(step.S, step.G[:, 2:4]) and step.S.flags.f_contiguous
        assert np.shares_memory(step.fP, step.G[:, 1])
        assert step.G[:, 0].tolist() == step.fT[:, 0].tolist() == [-1.0, -2.0, -3.0]
        step.history(0, 0, 1, step.S)
        # S_c then S_p: f_0 weighted by h^alpha a_0, then by h^alpha b_0
        table = precompute_weights(0.6, 10)
        ha = grid.h**0.6
        assert step.S.tolist() == [[v * (ha * table.a[0]), v * (ha * table.b[0])] for v in (-1.0, -2.0, -3.0)]
        step.run(0, 1, sums_written)
        assert np.shares_memory(step.yP, step.G[:, 3])

    def test_corrector_rejects_non_finite_prediction(self):
        problem = linear_problem(alpha=0.5, lam=-1.0)
        grid = problem.grid(4)
        traj = solve_serial(problem, grid)
        step = step_over(problem, grid, traj, 1)
        step.history(1, 0, 2, step.S)
        step.S[0, 0] = float("nan")
        with pytest.raises(SolverStepError) as err:
            step.run(1, 2, sums_written)
        assert err.value.step == 1


class TestPanelHistory:
    """The panel path, forced on: N is not a multiple of the panel width."""

    def test_predictor_matches_brute_force(self, force_panel):
        problem = linear_problem(alpha=0.6, lam=-1.0, y0=(1.0, -0.5))
        grid = problem.grid(2 * force_panel + 9)
        traj = solve_serial(problem, grid)
        for n in (0, 1, force_panel - 1, force_panel, force_panel + 5, 2 * force_panel + 8):
            got, _ = advance_over(problem, grid, traj, n)
            want = brute_force_predictor(problem, grid, traj, n)
            np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_corrector_matches_brute_force(self, force_panel):
        for rhs in CORRECTOR_RHS:
            problem = FractionalProblem(alpha=0.5, dim=1, rhs=rhs, y0=[0.0], t_end=1.0)
            grid = problem.grid(3 * force_panel - 5)
            traj = solve_serial(problem, grid)
            for n in (0, force_panel, force_panel + 3, 2 * force_panel + 1, 3 * force_panel - 6):
                yP, got = advance_over(problem, grid, traj, n)
                want = brute_force_corrector(problem, grid, traj, n, yP)
                np.testing.assert_allclose(got, want, rtol=1e-13)

    def test_ranges_add_up_to_the_whole_history(self, force_panel):
        # any split of 0..n, as the parallel engines make, sums to the
        # whole history; a far part is kept per range, not per step
        problem = linear_problem(alpha=0.7, lam=-1.0, y0=(1.0, 2.0, 3.0))
        grid = problem.grid(100)
        traj = solve_serial(problem, grid)
        step = step_over(problem, grid, traj, grid.n_steps)
        whole, below, above = (np.empty((3, 2)) for _ in range(3))
        for n in range(grid.n_steps):
            step.history(n, 0, n + 1, whole)
            for cut in {0, n // 3, n // 2 + 1, n - n % force_panel}:
                step.history(n, 0, cut, below)
                step.history(n, cut, n + 1, above)
                np.testing.assert_allclose(below + above, whole, rtol=1e-12, atol=1e-15)

    def test_sums_fill_the_given_buffer(self, force_panel):
        # history writes its sums, whatever the buffer held, on either path
        problem = linear_problem(alpha=0.7, lam=-1.0, y0=(1.0, 2.0))
        grid = problem.grid(3 * force_panel)
        traj = solve_serial(problem, grid)
        step = step_over(problem, grid, traj, grid.n_steps)
        for n in (0, force_panel - 1, force_panel, 2 * force_panel + 3):
            want = np.empty((2, 2))
            step.history(n, 0, n + 1, want)
            for out in (np.full((2, 2), np.nan), np.full((2, 4), np.nan, order="F")[:, 1:3]):
                step.history(n, 0, n + 1, out)
                assert out.tobytes() == want.tobytes()

    def test_panel_solve_matches_unpanelled(self, force_panel, monkeypatch):
        problem = linear_problem(alpha=0.8, lam=-1.0, y0=np.linspace(0.5, 1.5, 5))
        grid = problem.grid(300)
        panelled = solve_serial(problem, grid)
        monkeypatch.setattr(serial, "_panel_width", lambda dim, n_steps: 1)
        assert sup_rel_dev(panelled.states, solve_serial(problem, grid).states) <= 1e-13

    def test_rule_keeps_fitting_histories_unpanelled(self, monkeypatch):
        # hr-long, short-many, criterion 5 (HR, N=5e4) and criterion 6 fit
        # a 2 MiB L2 and run the unpanelled product; wide-linear does not.
        # Above L2, panels are for wide histories only: criterion 8 (HR,
        # N=1e5) stays unpanelled, d = 8, 16 and 64 panel
        shapes = {
            (3, 20000): 1, (1, 2000): 1, (3, 50000): 1, (CRITERION_6_DIM, 40000): 1,
            (3, 100_000): 1, (8, 50_000): 16, (16, 20_000): 16, (64, 5000): 16,
        }
        monkeypatch.setattr(serial, "_l2_bytes", lambda: 2 << 20)
        assert {shape: serial._panel_width(*shape) for shape in shapes} == shapes
        # an unreadable L2 size never panels
        monkeypatch.setattr(serial, "_l2_bytes", lambda: 0)
        assert {serial._panel_width(*shape) for shape in shapes} == {1}


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
        with pytest.raises(SolverStepError) as err:
            solve_serial(problem, problem.grid(4))
        assert err.value.step == 0
        assert "1 values, expected 2" in str(err.value)

    def test_horizon_positive(self):
        with pytest.raises(ValueError):
            FractionalProblem(alpha=0.5, dim=1, rhs=rhs_constant([0.0]), y0=[0.0], t_end=0.0)

    def test_grid_times(self):
        g = GridSpec.from_horizon(2.0, 4)
        np.testing.assert_allclose(g.times(), [0.0, 0.5, 1.0, 1.5, 2.0])


def evaluating(d):
    """A d-dimensional PeceStep whose rhs returns ``value[0]``, and ``value``.

    Steps 0-2 have run on finite values, so step 3 is the next to run.
    """
    value = [np.full(d, 0.5)]
    problem = FractionalProblem(
        alpha=0.5, dim=d, rhs=lambda t, y: value[0], y0=np.zeros(d), t_end=1.0
    )
    step = PeceStep(problem, problem.grid(8))
    step.run(0, 3)
    return step, value


class TestAllFinite:
    """The block scan of ``PeceStep.run``, over rows of Y and strided fT columns."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_in_every_position(self, bad):
        for d in (1, 3, 7):
            for i in range(d):
                step, value = evaluating(d)
                assert not step.fT[:, 4].flags.c_contiguous or d == 1
                vec = np.full(d, 0.5)
                vec[i] = bad
                value[0] = vec
                with pytest.raises(SolverStepError) as err, np.errstate(invalid="ignore"):
                    step.run(3, 8)
                assert (err.value.step, err.value.reason) == (3, "rhs returned a non-finite value")

    def test_finite_vectors(self):
        step, value = evaluating(3)
        value[0] = np.linspace(-2.0, 2.0, 3 * 9).reshape(3, 9)[:, 4]
        step.run(3, 8)
        for k in range(4, 9):
            assert step.fT[:, k].tolist() == value[0].tolist()

    def test_overflowing_square_decided_exactly(self):
        # 1e200 squared overflows; no square is formed, so the value passes
        step, value = evaluating(3)
        value[0] = np.full(3, 1e200)
        with np.errstate(over="ignore"):
            assert math.isinf(value[0].dot(value[0]))
        step.run(3, 8)
        assert step.fT[:, 8].tolist() == [1e200] * 3

    def test_overflowing_square_warns_once(self):
        # the scan forms no dot product, so an accepted 1e200 warns nothing
        step, value = evaluating(3)
        value[0] = (1e200,) * 3
        with warnings.catch_warnings(record=True) as caught, np.errstate(over="warn"):
            warnings.simplefilter("always")
            step.run(3, 8)
        assert caught == []

    def test_state_overflowing_from_finite_results_is_step_error(self):
        # every rhs result is finite, but y_18 = 1.8 * 1e308 overflows; the
        # scan reads the states, so step 17 fails
        problem = FractionalProblem(alpha=1.0, dim=1, rhs=lambda t, y: (1e308,), y0=[0.0], t_end=10.0)
        with pytest.raises(SolverStepError) as err, np.errstate(all="ignore"):
            solve_serial(problem, problem.grid(100))
        assert (err.value.step, err.value.reason) == (17, "rhs returned a non-finite value")
