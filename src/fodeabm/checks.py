"""Executable verification suite behind ``fodeabm verify`` and the tests.

Each check solves a problem whose exact solution is known analytically and
compares against the independent oracles in :mod:`fodeabm.verify`.  A check
returns a :class:`CheckResult`; the CLI exits non-zero if any fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import FractionalProblem
from .parallel import solve_block_parallel, solve_reduction_parallel
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


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _power_problem(alpha: float, beta: float = 2.0, t_end: float = 1.0) -> FractionalProblem:
    return FractionalProblem(
        alpha=alpha, dim=1, rhs=rhs_power_law(alpha, beta), y0=[0.0], t_end=t_end
    )


def power_law_study(
    alpha: float, n_list=(500, 1000, 2000), beta: float = 2.0, t_end: float = 1.0
) -> tuple[ConvergenceReport, float]:
    """Solve the power-law problem on refined grids.

    Returns the convergence report (sup errors against the exact t^beta) and
    the terminal absolute error on the finest grid.
    """
    problem = _power_problem(alpha, beta, t_end)
    errors = []
    terminal = math.nan
    for n in n_list:
        grid = problem.grid(n)
        traj = solve_serial(problem, grid)
        exact = grid.times() ** beta
        err = float(np.max(np.abs(traj.states[:, 0] - exact)))
        errors.append((n, max(err, 1e-300)))
        terminal = abs(float(traj.states[-1, 0]) - t_end ** beta)
    return ConvergenceReport.from_errors(alpha, f"power-law beta={beta:g}", errors), terminal


def check_power_law_orders(
    alphas=(0.3, 0.5, 0.8, 1.0), n_list=(500, 1000, 2000)
) -> tuple[list[CheckResult], list[ConvergenceReport]]:
    """Observed order >= min(2, 1+alpha) - slack, terminal error <= 1e-2.

    At alpha = 1 the corrector integrates the power-law forcing exactly, so
    sup errors sit at roundoff and no order can be observed; errors below the
    roundoff floor count as a pass.
    """
    results = []
    reports = []
    for alpha in alphas:
        report, terminal = power_law_study(alpha, n_list)
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


def check_constant_forcing(alpha: float = 0.5, n_steps: int = 500) -> CheckResult:
    """beta = alpha gives constant forcing and the exact solution t^alpha.

    The product-trapezoid weights integrate a constant forcing exactly, so
    any dropped or corrupted corrector term shows up as an O(1) error here
    rather than hiding behind discretisation error.
    """
    problem = _power_problem(alpha, beta=alpha)
    grid = problem.grid(n_steps)
    traj = solve_serial(problem, grid)
    exact = grid.times() ** alpha
    err = float(np.max(np.abs(traj.states[:, 0] - exact)))
    return CheckResult(
        f"constant-forcing exactness alpha={alpha:g}",
        err <= 1e-10,
        f"sup error {err:.3e} (roundoff expected)",
    )


def check_linear_mittag_leffler(
    n_steps: int = 4000, lam: float = -1.0, alpha: float = 0.5, t_end: float = 1.0
) -> CheckResult:
    """Terminal value of the linear problem against the series oracle."""
    problem = FractionalProblem(
        alpha=alpha, dim=1, rhs=rhs_linear(lam), y0=[1.0], t_end=t_end
    )
    traj = solve_serial(problem, problem.grid(n_steps))
    exact = mittag_leffler(alpha, lam * t_end ** alpha)
    err = abs(float(traj.states[-1, 0]) - exact)
    return CheckResult(
        "linear Mittag-Leffler",
        err <= ML_TOL,
        f"|y_N - E_{alpha:g}({lam * t_end ** alpha:g})| = {err:.3e} (tol {ML_TOL:g})",
    )


def _sup_rel_dev(a: Trajectory, b: Trajectory) -> float:
    scale = np.maximum(np.abs(b.states), 1e-30)
    return float(np.max(np.abs(a.states - b.states) / scale))


# the smallest N at which every helper of block (P=2) and of reduction (P=2,
# chunk CHUNK) has a share of a d=1 history above the helper floor
EQUIV_STEPS = 14143


def check_strategy_equivalence(
    n_steps: int = EQUIV_STEPS, n_workers: int = 2, chunk: int = CHUNK
) -> list[CheckResult]:
    """Both parallel strategies against the serial oracle on the power-law problem.

    A strategy whose stats show that no helper was forked fails: below the
    helper floor it would be the serial solver compared with itself.
    """
    problem = _power_problem(0.5)
    grid = problem.grid(n_steps)
    ref = solve_serial(problem, grid)
    out = []
    for name, solve, extra in (
        (f"block strategy P={n_workers}", solve_block_parallel, ()),
        (f"reduction strategy P={n_workers} chunk={chunk}", solve_reduction_parallel, (chunk,)),
    ):
        stats = {}
        dev = _sup_rel_dev(solve(problem, grid, n_workers, *extra, stats=stats), ref)
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
