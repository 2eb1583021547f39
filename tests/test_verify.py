import math

import numpy as np
import pytest

from fodeabm import (
    ConvergenceReport,
    exact_power_law,
    make_partition,
    mittag_leffler,
    observed_order,
    solve_serial,
)
from fodeabm.bench import write_csv
from fodeabm.checks import (
    EQUIV_STEPS,
    check_constant_forcing,
    check_linear_mittag_leffler,
    check_power_law_orders,
    check_strategy_equivalence,
    power_law_study,
)
from fodeabm.parallel import reduction

from conftest import linear_problem, min_helper_share

E_HALF_MINUS_ONE = 0.42758357615580700441  # e * erfc(1)
E_HALF_PLUS_ONE = 5.0089800807622834663    # e * erfc(-1)
HALF_POW_1_5 = 0.3535533905932737622       # 1/(2*sqrt(2))


class TestMittagLeffler:
    def test_exponential_case(self):
        assert mittag_leffler(1.0, 1.0) == pytest.approx(math.e, rel=1e-14)

    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.9, 1.0])
    def test_unit_at_zero(self, alpha):
        assert mittag_leffler(alpha, 0.0) == 1.0

    def test_closed_form_half_order(self):
        # E_{1/2}(z) = exp(z^2) * erfc(-z); erfc comes from libm, independent
        # of the series under test
        for z in (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0):
            want = math.exp(z * z) * math.erfc(-z)
            assert mittag_leffler(0.5, z) == pytest.approx(want, rel=1e-13)
        assert mittag_leffler(0.5, -1.0) == pytest.approx(E_HALF_MINUS_ONE, rel=1e-13)
        assert mittag_leffler(0.5, 1.0) == pytest.approx(E_HALF_PLUS_ONE, rel=1e-13)

    def test_matches_exp_on_grid(self):
        # the alternating series loses accuracy in proportion to its condition
        # number e^{2|z|}; for z >= -2.5 that still sits below 1e-13 relative
        for z in np.linspace(-5.0, 5.0, 101):
            got = mittag_leffler(1.0, float(z))
            want = math.exp(z)
            bound = max(1e-13, 8 * math.exp(2 * abs(z)) * 2.3e-16)
            assert abs(got - want) / abs(want) <= bound

    def test_strict_accuracy_mild_arguments(self):
        for z in np.linspace(-2.5, 5.0, 76):
            got = mittag_leffler(1.0, float(z))
            want = math.exp(z)
            assert abs(got - want) / abs(want) <= 1e-13

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75, 1.0])
    def test_monotone_in_z(self, alpha):
        # the alternating series is only trustworthy while its condition
        # number exp(|z|^(1/alpha)) stays moderate; below that z the double
        # precision sum is pure cancellation noise
        z_lo = -min(5.0, 25.0 ** alpha)
        zs = np.linspace(z_lo, 5.0, 101)
        vals = [mittag_leffler(alpha, float(z)) for z in zs]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            mittag_leffler(0.5, 10.5)
        with pytest.raises(ValueError):
            mittag_leffler(0.0, 1.0)
        with pytest.raises(ValueError):
            mittag_leffler(1.2, 1.0)

    def test_overflowing_argument_returns_inf(self):
        # E_0.3(10) ~ exp(10^(1/0.3)) exceeds double range
        assert mittag_leffler(0.3, 10.0) == math.inf


class TestExactPowerLaw:
    def test_values(self):
        assert exact_power_law(2.0, 0.0) == 0.0
        assert exact_power_law(2.0, 1.0) == 1.0
        assert exact_power_law(1.5, 0.5) == pytest.approx(HALF_POW_1_5, rel=1e-15)

    def test_domain(self):
        with pytest.raises(ValueError):
            exact_power_law(0.0, 1.0)
        with pytest.raises(ValueError):
            exact_power_law(2.0, -0.1)


class TestObservedOrder:
    def test_exact_factor_four(self):
        assert observed_order([(100, 1e-2), (200, 2.5e-3)]) == pytest.approx(2.0, abs=1e-12)

    def test_no_convergence(self):
        assert observed_order([(100, 1e-2), (200, 1e-2)]) == pytest.approx(0.0, abs=1e-12)

    def test_three_point_fit(self):
        # errors exactly proportional to h^1.5
        errs = [(n, (1.0 / n) ** 1.5) for n in (100, 200, 400)]
        assert observed_order(errs) == pytest.approx(1.5, abs=1e-12)

    def test_degenerate_data(self):
        with pytest.raises(ValueError):
            observed_order([(100, 1e-2)])
        with pytest.raises(ValueError):
            observed_order([(100, 1e-2), (200, 0.0)])
        with pytest.raises(ValueError):
            observed_order([(200, 1e-2), (100, 1e-3)])


class TestConvergenceReport:
    def test_csv_bytes(self, tmp_path):
        # a report's rows as verify writes them, through the one CSV writer:
        # 17 digits, quoting, nan as "nan"
        rep = ConvergenceReport(alpha=0.3, problem="linear, lam=-1", errors=((100, 0.1), (200, 1e-300)))
        path = tmp_path / "report.csv"
        rows = [(rep.alpha, rep.problem, n, e, rep.observed_order) for n, e in rep.errors]
        write_csv(path, ["alpha", "problem", "N", "sup_error", "observed_order"], rows)
        assert path.read_bytes() == (
            b"alpha,problem,N,sup_error,observed_order\n"
            b'0.29999999999999999,"linear, lam=-1",100,0.10000000000000001,nan\n'
            b'0.29999999999999999,"linear, lam=-1",200,1e-300,nan\n'
        )

    def test_invariants(self):
        with pytest.raises(ValueError):
            ConvergenceReport(alpha=0.5, problem="x", errors=((200, 1e-2), (100, 1e-3)))


class TestSolverAgainstOracles:
    def test_linear_problem_converges_to_mittag_leffler(self):
        problem = linear_problem(alpha=0.5, lam=-1.0)
        traj = solve_serial(problem, problem.grid(1000))
        assert abs(traj.states[-1, 0] - E_HALF_MINUS_ONE) <= 1e-5

    def test_power_law_order_near_theory(self):
        report, terminal = power_law_study(0.5)
        assert report.observed_order >= 1.3
        assert terminal <= 1e-2

    def test_check_wrappers_pass(self):
        results, reports = check_power_law_orders()
        assert all(r.passed for r in results)
        assert reports[0].problem.startswith("power-law")
        assert check_linear_mittag_leffler().passed
        assert check_constant_forcing().passed


class TestStrategyEquivalenceCheck:
    NAMES = ["block strategy P=2", "reduction strategy P=2 chunk=1024"]

    def test_runs_at_the_smallest_n_where_both_strategies_fork(self):
        def forks(n_steps):
            return all(
                min_helper_share(n_steps, 1, 2, chunk) >= reduction._HELPER_FLOOR
                for chunk in (make_partition(n_steps, 2).block_size, 1024)
            )

        assert forks(EQUIV_STEPS) and not forks(EQUIV_STEPS - 1)

    def test_passes_with_helper_partials(self):
        results = check_strategy_equivalence()
        assert [r.name for r in results] == self.NAMES
        assert all(r.passed for r in results), results
        assert all("0 helper partials" not in r.detail for r in results)

    def test_fails_when_no_helper_is_forked(self, monkeypatch):
        # the parallel strategy is then the serial solver compared with itself
        monkeypatch.setattr(reduction, "_HELPER_FLOOR", float("inf"))
        results = check_strategy_equivalence()
        assert [r.name for r in results] == self.NAMES
        assert not any(r.passed for r in results)
        assert all("sup rel dev 0.000e+00, 0 helper partials" == r.detail for r in results)


class TestMutationDetection:
    """The verification suite must catch a wrong weight convention.

    Mutations are exercised on the linear problem: its rhs depends on the
    state, so a corrupted predictor or a dropped corrector term visibly
    derails the solution (a t-only forcing would mask a predictor bug).
    """

    def test_flipped_predictor_sign_fails_verification(self, monkeypatch):
        import fodeabm.core as core
        import fodeabm.serial as serial

        real = core.precompute_weights

        def sabotaged(alpha, n_steps):
            table = real(alpha, n_steps)
            n = np.arange(n_steps + 1, dtype=np.float64)
            bad_b = ((n + 1.0) ** alpha + n ** alpha) / math.gamma(alpha + 1.0)
            return core.WeightTable(alpha=alpha, b=bad_b, a=table.a, c=table.c)

        monkeypatch.setattr(serial, "precompute_weights", sabotaged)
        # the "+" convention is not a consistent quadrature; the check fails
        assert not check_linear_mittag_leffler().passed

    def test_missing_first_node_term_fails_verification(self, monkeypatch):
        import fodeabm.core as core
        import fodeabm.serial as serial

        real = core.precompute_weights

        def sabotaged(alpha, n_steps):
            table = real(alpha, n_steps)
            return core.WeightTable(
                alpha=alpha, b=table.b, a=table.a, c=np.zeros(n_steps + 1)
            )

        monkeypatch.setattr(serial, "precompute_weights", sabotaged)
        assert not check_constant_forcing().passed
