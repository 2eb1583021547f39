"""Analytic oracles and convergence-order estimation.

These routines never call the solver internals they are used to check: the
Mittag-Leffler series is the exact solution of the linear test problem, the
power law t^beta is exact for the power-law forcing, and the observed order
comes from a straight log-log fit of errors against the step size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "mittag_leffler",
    "exact_power_law",
    "observed_order",
    "ConvergenceReport",
]

_ML_MAX_TERMS = 20000


def mittag_leffler(alpha: float, z: float) -> float:
    """E_alpha(z) by its power series with compensated summation.

    Terms are evaluated in log space, so partial terms never overflow even
    when they peak far above the result.  Validated for 0 < alpha <= 1 and
    |z| <= 10; the series conditioning degrades beyond that, so larger
    arguments are rejected.  E_1 coincides with exp, E_alpha(0) = 1.
    """
    alpha = float(alpha)
    z = float(z)
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha!r}")
    if not math.isfinite(z) or abs(z) > 10.0:
        raise ValueError(f"|z| <= 10 required (series validity), got {z!r}")
    if z == 0.0:
        return 1.0
    log_az = math.log(abs(z))
    negative = z < 0.0
    total = 0.0
    comp = 0.0  # Kahan compensation
    for k in range(_ML_MAX_TERMS):
        try:
            term = math.exp(k * log_az - math.lgamma(alpha * k + 1.0))
        except OverflowError:
            return -math.inf if (negative and k & 1) else math.inf
        if negative and k & 1:
            term = -term
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if k >= 5 and abs(term) < 1e-16 * abs(total):
            return total
    raise ArithmeticError(
        f"Mittag-Leffler series did not converge in {_ML_MAX_TERMS} terms "
        f"for alpha={alpha}, z={z}"
    )


def exact_power_law(beta: float, t: float) -> float:
    """t^beta for beta > 0, t >= 0 (exact solution of the power-law problem)."""
    beta = float(beta)
    t = float(t)
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    if t < 0.0:
        raise ValueError("t must be non-negative")
    return t ** beta


def observed_order(errors: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(error) against log(h), h proportional to 1/N.

    ``errors`` holds (N, sup_error) pairs with strictly increasing N and
    positive errors; two pairs give the classical two-point order estimate.
    """
    if len(errors) < 2:
        raise ValueError("need at least two (N, error) pairs")
    ns = [int(n) for n, _ in errors]
    es = [float(e) for _, e in errors]
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("N values must be strictly increasing")
    if any(not math.isfinite(e) or e <= 0.0 for e in es):
        raise ValueError("errors must be positive and finite")
    log_h = np.log([1.0 / n for n in ns])
    log_e = np.log(es)
    slope = np.polyfit(log_h, log_e, 1)[0]
    return float(slope)


@dataclass(frozen=True)
class ConvergenceReport:
    """Grid-refinement study for one problem at one fractional order."""

    alpha: float
    problem: str
    errors: tuple[tuple[int, float], ...]
    observed_order: float = field(default=float("nan"))

    @classmethod
    def from_errors(cls, alpha: float, problem: str, errors) -> "ConvergenceReport":
        errors = tuple((int(n), float(e)) for n, e in errors)
        return cls(
            alpha=alpha,
            problem=problem,
            errors=errors,
            observed_order=observed_order(list(errors)),
        )

    def __post_init__(self):
        ns = [n for n, _ in self.errors]
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise ValueError("N values must be strictly increasing")
        if any(e < 0.0 for _, e in self.errors):
            raise ValueError("errors must be non-negative")
