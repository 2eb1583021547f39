"""fodeabm: fractional-order initial value problems via the ABM predictor-corrector.

Solves D^alpha y = f(t, y) for Caputo orders alpha in (0, 1] on a uniform
grid, with a serial reference solver and two parallel history-summation
strategies (block-partitioned workers and chunked deterministic reduction),
plus analytic verification oracles and a benchmark harness.
"""

from .core import (
    FractionalProblem,
    GridSpec,
    SolverStepError,
    StrategyTimeoutError,
    WeightTable,
    corrector_weight_a,
    corrector_weight_c,
    precompute_weights,
    predictor_weight,
)
from .parallel import (
    PartitionPlan,
    make_partition,
    owner,
    solve_block_parallel,
    solve_reduction_parallel,
)
from .serial import Trajectory, solve_serial
from .systems import (
    HindmarshRoseParams,
    rhs_constant,
    rhs_hindmarsh_rose,
    rhs_linear,
    rhs_power_law,
)
from .verify import ConvergenceReport, exact_power_law, mittag_leffler, observed_order

__version__ = "0.1.0"

__all__ = [
    "FractionalProblem",
    "GridSpec",
    "WeightTable",
    "Trajectory",
    "PartitionPlan",
    "ConvergenceReport",
    "HindmarshRoseParams",
    "SolverStepError",
    "StrategyTimeoutError",
    "predictor_weight",
    "corrector_weight_a",
    "corrector_weight_c",
    "precompute_weights",
    "solve_serial",
    "make_partition",
    "owner",
    "solve_block_parallel",
    "solve_reduction_parallel",
    "rhs_constant",
    "rhs_power_law",
    "rhs_linear",
    "rhs_hindmarsh_rose",
    "mittag_leffler",
    "exact_power_law",
    "observed_order",
]
