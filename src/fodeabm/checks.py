"""Executable verification suite behind ``fodeabm verify`` and the tests.

Each check solves a problem whose exact solution is known analytically and
compares against the independent oracles in :mod:`fodeabm.verify`.  A check
returns a :class:`CheckResult`; the CLI exits non-zero if any fails.  The
suite is fixed: its problems, grids and tolerances are the constants below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bench import solve_strategy
from .core import FractionalProblem
from .parallel.reduction import CHUNK
from .serial import Trajectory, solve_serial
from .systems import rhs_linear, rhs_power_law
from .verify import ConvergenceReport, mittag_leffler

__all__ = [
    "CheckResult",
    "power_law_study",
    "check_power_law_orders",
    "check_linear_mittag_leffler",
    "check_strategy_equivalence",
    "run_verification_suite",
]

# the scheme's theoretical accuracy order is min(2, 1+alpha)
ORDER_SLACK = 0.2
TERMINAL_TOL = 1e-2
ML_TOL = 1e-3
EQUIV_TOL = 1e-10
# below this sup error the solution is exact to roundoff and no order is observable
ROUNDOFF_FLOOR = 1e-13

# The suite's fixed problems and grids.  Every problem runs on [0, T_END].
T_END = 1.0
# the power-law study: orders ALPHAS, exact solution t^BETA, refined grids
ALPHAS = (0.3, 0.5, 0.8, 1.0)
BETA = 2.0
POWER_LAW_STEPS = (500, 1000, 2000)
# the constant-forcing, Mittag-Leffler and strategy-equivalence order
ALPHA = 0.5
CONSTANT_STEPS = 500
ML_LAM = -1.0
ML_STEPS = 4000
EQUIV_WORKERS = 2


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _power_problem(alpha: float, beta: float = BETA) -> FractionalProblem:
    return FractionalProblem(
        alpha=alpha, dim=1, rhs=rhs_power_law(alpha, beta), y0=[0.0], t_end=T_END
    )


def power_law_study(alpha: float) -> tuple[ConvergenceReport, float]:
    """Solve the power-law problem on the grids ``POWER_LAW_STEPS``.

    Returns the convergence report (sup errors against the exact t^BETA) and
    the terminal absolute error on the finest grid.
    """
    problem = _power_problem(alpha)
    errors = []
    terminal = math.nan
    for n in POWER_LAW_STEPS:
        grid = problem.grid(n)
        traj = solve_serial(problem, grid)
        exact = grid.times() ** BETA
        err = float(np.max(np.abs(traj.states[:, 0] - exact)))
        errors.append((n, max(err, 1e-300)))
        terminal = abs(float(traj.states[-1, 0]) - T_END ** BETA)
    return ConvergenceReport.from_errors(alpha, f"power-law beta={BETA:g}", errors), terminal


def check_power_law_orders() -> tuple[list[CheckResult], list[ConvergenceReport]]:
    """Observed order >= min(2, 1+alpha) - slack, terminal error <= 1e-2.

    One check per alpha in ``ALPHAS``.  At alpha = 1 the corrector integrates the power-law forcing exactly, so
    sup errors sit at roundoff and no order can be observed; errors below the
    roundoff floor count as a pass.
    """
    results = []
    reports = []
    for alpha in ALPHAS:
        report, terminal = power_law_study(alpha)
        reports.append(report)
        bound = min(2.0, 1.0 + alpha) - ORDER_SLACK
        max_err = max(e for _, e in report.errors)
        exact_to_roundoff = max_err <= ROUNDOFF_FLOOR
        order_ok = exact_to_roundoff or report.observed_order >= bound
        terminal_ok = terminal <= TERMINAL_TOL
        detail = (
            f"order={report.observed_order:.3f} (bound {bound:.2f}"
            f"{', exact to roundoff' if exact_to_roundoff else ''}), "
            f"terminal={terminal:.3e}"
        )
        results.append(
            CheckResult(f"power-law order alpha={alpha:g}", order_ok and terminal_ok, detail)
        )
    return results, reports


def check_constant_forcing() -> CheckResult:
    """beta = alpha gives constant forcing and the exact solution t^alpha.

    The product-trapezoid weights integrate a constant forcing exactly, so
    any dropped or corrupted corrector term shows up as an O(1) error here
    rather than hiding behind discretisation error.
    """
    problem = _power_problem(ALPHA, beta=ALPHA)
    grid = problem.grid(CONSTANT_STEPS)
    traj = solve_serial(problem, grid)
    exact = grid.times() ** ALPHA
    err = float(np.max(np.abs(traj.states[:, 0] - exact)))
    return CheckResult(
        f"constant-forcing exactness alpha={ALPHA:g}",
        err <= 1e-10,
        f"sup error {err:.3e} (roundoff expected)",
    )


def check_linear_mittag_leffler() -> CheckResult:
    """Terminal value of the linear problem against the series oracle."""
    problem = FractionalProblem(
        alpha=ALPHA, dim=1, rhs=rhs_linear(ML_LAM), y0=[1.0], t_end=T_END
    )
    traj = solve_serial(problem, problem.grid(ML_STEPS))
    z = ML_LAM * T_END ** ALPHA
    err = abs(float(traj.states[-1, 0]) - mittag_leffler(ALPHA, z))
    return CheckResult(
        "linear Mittag-Leffler",
        err <= ML_TOL,
        f"|y_N - E_{ALPHA:g}({z:g})| = {err:.3e} (tol {ML_TOL:g})",
    )


def _sup_rel_dev(a: Trajectory, b: Trajectory) -> float:
    scale = np.maximum(np.abs(b.states), 1e-30)
    return float(np.max(np.abs(a.states - b.states) / scale))


# the smallest N at which every helper of block (P=2) and of reduction (P=2,
# chunk CHUNK) has a share of a d=1 history above the helper floor
EQUIV_STEPS = 14143


def check_strategy_equivalence() -> list[CheckResult]:
    """Both parallel strategies against the serial oracle on the power-law problem.

    A strategy whose stats show that no helper was forked fails: below the
    helper floor it would be the serial solver compared with itself.
    """
    problem = _power_problem(ALPHA)
    ref = solve_serial(problem, problem.grid(EQUIV_STEPS))
    out = []
    for name, strategy in (
        (f"block strategy P={EQUIV_WORKERS}", "block"),
        (f"reduction strategy P={EQUIV_WORKERS} chunk={CHUNK}", "reduction"),
    ):
        stats = {}
        traj = solve_strategy(problem, strategy, EQUIV_STEPS, EQUIV_WORKERS, CHUNK, stats)
        dev = _sup_rel_dev(traj, ref)
        partials = int(stats["partial_sums_sent"].sum())
        out.append(
            CheckResult(
                name,
                dev <= EQUIV_TOL and partials > 0,
                f"sup rel dev {dev:.3e}, {partials} helper partials",
            )
        )
    return out


def run_verification_suite() -> tuple[list[CheckResult], list[ConvergenceReport]]:
    """The full analytic suite: orders, exactness, Mittag-Leffler, equivalence."""
    results, reports = check_power_law_orders()
    results.append(check_constant_forcing())
    results.append(check_linear_mittag_leffler())
    results.extend(check_strategy_equivalence())
    return results, reports
