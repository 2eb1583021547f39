"""Benchmark workloads: seeded inputs, the three strategies, and output checks.

Inputs are built only through the public API (``FractionalProblem``/``grid``
and the ``fodeabm.systems`` factories); outputs are judged by the serial
solver of the same input and by the analytic oracles of ``fodeabm.verify``.
Every workload runs the parallel strategies with two workers, which matches
the two cores of the host the baseline was recorded on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from fodeabm import (
    FractionalProblem,
    GridSpec,
    solve_block_parallel,
    solve_reduction_parallel,
    solve_serial,
)
from fodeabm.systems import rhs_hindmarsh_rose, rhs_linear, rhs_power_law
from fodeabm.verify import exact_power_law, mittag_leffler

WORKERS = 2
CHUNK = 1024

SOLVERS = {
    "serial": solve_serial,
    "block": lambda problem, grid: solve_block_parallel(problem, grid, WORKERS),
    "reduction": lambda problem, grid: solve_reduction_parallel(problem, grid, WORKERS, CHUNK),
}
STRATEGIES = tuple(SOLVERS)  # the order every triple runs in

# smoke mode divides every step count (and the HR horizon, to keep its step
# size) by this factor; the oracle tolerances still hold at the smaller N
SMOKE_FACTOR = 10


@dataclass(frozen=True)
class Input:
    """One generated problem instance and the oracle that judges its states."""

    label: str
    problem: FractionalProblem
    grid: GridSpec
    oracle: Callable[[np.ndarray], str | None]


@dataclass(frozen=True)
class Workload:
    name: str
    n_steps: int
    # parallel vs serial of the same input: "scaled" compares the max-abs
    # deviation against max |state|, "elementwise" each entry on its own
    cross: str
    cross_tol: float
    build: Callable[[np.random.Generator, int], list[Input]]


def _no_oracle(states: np.ndarray) -> str | None:
    return None


def _hr_long(rng: np.random.Generator, n_steps: int) -> list[Input]:
    y0 = np.array([0.1, 0.2, 0.2]) + rng.uniform(-1e-3, 1e-3, 3)
    t_end = 500.0 * n_steps / 20000
    problem = FractionalProblem(0.9, 3, rhs_hindmarsh_rose(), y0, t_end)
    return [Input("hr", problem, problem.grid(n_steps), _no_oracle)]


def _short_many(rng: np.random.Generator, n_steps: int) -> list[Input]:
    # a pool of orders cycled through the run, so every input is solved
    # repeatedly and repeats can be checked for bitwise equality
    out = []
    for alpha in rng.uniform(0.3, 1.0, 8):
        problem = FractionalProblem(alpha, 1, rhs_power_law(alpha, 2.0), [0.0], 1.0)

        def oracle(states: np.ndarray) -> str | None:
            err = abs(states[-1, 0] - exact_power_law(2.0, 1.0))
            return None if err <= 1e-2 else f"terminal error {err:.3g} vs t^2 exceeds 1e-2"

        out.append(Input(f"powerlaw-a{alpha:.4f}", problem, problem.grid(n_steps), oracle))
    return out


def _wide_linear(rng: np.random.Generator, n_steps: int) -> list[Input]:
    y0 = rng.uniform(0.5, 1.5, 64)
    problem = FractionalProblem(0.9, 64, rhs_linear(-1.0), y0, 1.0)

    def oracle(states: np.ndarray) -> str | None:
        err = float(np.max(np.abs(states[-1] - y0 * mittag_leffler(0.9, -1.0))))
        return None if err <= 1e-6 else f"terminal error {err:.3g} vs y0*E_0.9(-1) exceeds 1e-6"

    return [Input("linear64", problem, problem.grid(n_steps), oracle)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("hr-long", 20000, "scaled", 1e-8, _hr_long),
        Workload("short-many", 2000, "elementwise", 1e-10, _short_many),
        Workload("wide-linear", 5000, "elementwise", 1e-10, _wide_linear),
    )
}


def make_inputs(name: str, seed: int, smoke: bool = False) -> list[Input]:
    """The workload's inputs; the same (name, seed, smoke) gives the same inputs."""
    wl = WORKLOADS[name]
    n_steps = wl.n_steps // SMOKE_FACTOR if smoke else wl.n_steps
    return wl.build(np.random.default_rng(seed), n_steps)


def fixed_cost_input(n_steps: int) -> Input:
    """A power-law solve so short that fork, arena and teardown dominate it."""
    problem = FractionalProblem(0.9, 1, rhs_power_law(0.9, 2.0), [0.0], 1.0)
    return Input(f"fixed-n{n_steps}", problem, problem.grid(n_steps), _no_oracle)


def cross_check(wl: Workload, states: np.ndarray, ref: np.ndarray) -> str | None:
    """Deviation of a parallel trajectory from the serial one of the same input."""
    dev = np.abs(states - ref)
    if wl.cross == "scaled":
        rel = float(dev.max() / np.abs(ref).max())
    else:
        scale = np.maximum(np.abs(states), np.abs(ref))
        rel = float(np.max(np.divide(dev, scale, out=np.zeros_like(dev), where=scale > 0)))
    return None if rel <= wl.cross_tol else f"deviation {rel:.3g} from serial exceeds {wl.cross_tol:g}"
