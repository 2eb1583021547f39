"""Problem data model and quadrature weights for the fractional ABM scheme.

The solver integrates D^alpha y = f(t, y) on [0, T] for a Caputo derivative of
order alpha in (0, 1].  Everything downstream consumes three weight sequences
(predictor weights ``b``, corrector interior weights ``a``, corrector
first-node weights ``c``) that depend only on alpha and the step index, so
they are precomputed once per solve as flat arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "FractionalProblem",
    "GridSpec",
    "WeightTable",
    "SolverStepError",
    "StrategyTimeoutError",
    "predictor_weight",
    "corrector_weight_a",
    "corrector_weight_c",
    "precompute_weights",
]

RhsFunction = Callable[[float, np.ndarray], "np.ndarray | tuple | list"]

# relative tolerance of a grid's h*N against the problem's t_end
SPAN_RTOL = 1e-12


class SolverStepError(RuntimeError):
    """A time step produced a non-finite value or a failing rhs evaluation.

    Carries the failing step index ``step``, grid time ``t`` and the bare
    ``reason``.
    """

    def __init__(self, message: str, step: int, t: float):
        super().__init__(f"{message} (step {step}, t={t:.17g})")
        self.reason = message
        self.step = step
        self.t = t


class StrategyTimeoutError(RuntimeError):
    """A parallel strategy made no progress before its watchdog expired."""


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not math.isfinite(alpha) or not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha!r}")
    return alpha


def _b(alpha: float, n: np.ndarray) -> np.ndarray:
    return ((n + 1.0) ** alpha - n ** alpha) / math.gamma(alpha + 1.0)


def _a(alpha: float, n: np.ndarray) -> np.ndarray:
    p = alpha + 1.0
    return ((n + 2.0) ** p - 2.0 * (n + 1.0) ** p + n ** p) / math.gamma(alpha + 2.0)


def _c(alpha: float, n: np.ndarray) -> np.ndarray:
    p = alpha + 1.0
    return (n ** p - (n - alpha) * (n + 1.0) ** alpha) / math.gamma(alpha + 2.0)


def _single(formula, alpha: float, n: int) -> float:
    alpha = _check_alpha(alpha)
    if n < 0:
        raise ValueError("n must be non-negative")
    # evaluated through a length-1 array so the result is bitwise identical
    # to the bulk fill (numpy's vector pow differs from scalar pow by 1 ulp)
    return float(formula(alpha, np.array([float(n)]))[0])


def predictor_weight(alpha: float, n: int) -> float:
    """Predictor weight b_n = ((n+1)^alpha - n^alpha) / Gamma(alpha+1).

    At alpha = 1 this reduces to the classical rectangle-rule weight 1.
    """
    return _single(_b, alpha, n)


def corrector_weight_a(alpha: float, n: int) -> float:
    """Interior corrector weight
    a_n = ((n+2)^(alpha+1) - 2(n+1)^(alpha+1) + n^(alpha+1)) / Gamma(alpha+2).
    """
    return _single(_a, alpha, n)


def corrector_weight_c(alpha: float, n: int) -> float:
    """First-node corrector weight
    c_n = (n^(alpha+1) - (n - alpha)(n+1)^alpha) / Gamma(alpha+2).

    c_0 = alpha / Gamma(alpha+2) exactly.
    """
    return _single(_c, alpha, n)


@dataclass(frozen=True)
class WeightTable:
    """Precomputed weight arrays b, a, c for indices 0..N."""

    alpha: float
    b: np.ndarray
    a: np.ndarray
    c: np.ndarray


def precompute_weights(alpha: float, n_steps: int) -> WeightTable:
    """Fill a :class:`WeightTable` for n = 0..n_steps.

    Each entry is bitwise identical to the corresponding single-call weight
    function (both paths evaluate the same formula and libm ``pow``).  The
    fill is a vectorised O(N) pass; entries are independent of one another.
    """
    alpha = _check_alpha(alpha)
    n_steps = int(n_steps)
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    n = np.arange(n_steps + 1, dtype=np.float64)
    b, a, c = _b(alpha, n), _a(alpha, n), _c(alpha, n)
    for arr in (b, a, c):
        arr.setflags(write=False)
    return WeightTable(alpha=alpha, b=b, a=a, c=c)


@dataclass(frozen=True)
class GridSpec:
    """Uniform time grid with N steps of size h; grid point t_n = n*h."""

    n_steps: int
    h: float

    def __post_init__(self):
        if int(self.n_steps) < 1:
            raise ValueError("n_steps must be >= 1")
        if not math.isfinite(self.h) or self.h <= 0.0:
            raise ValueError(f"step size must be finite and positive, got {self.h!r}")
        object.__setattr__(self, "n_steps", int(self.n_steps))
        object.__setattr__(self, "h", float(self.h))

    @classmethod
    def from_horizon(cls, t_end: float, n_steps: int) -> "GridSpec":
        n_steps = int(n_steps)
        if n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        return cls(n_steps=n_steps, h=float(t_end) / n_steps)

    def times(self) -> np.ndarray:
        """All grid points t_0..t_N."""
        return np.arange(self.n_steps + 1, dtype=np.float64) * self.h

    def spans(self, t_end: float) -> bool:
        """True when h*N reproduces t_end to within roundoff (``SPAN_RTOL``)."""
        return abs(self.h * self.n_steps - t_end) <= SPAN_RTOL * abs(t_end)


@dataclass(frozen=True)
class FractionalProblem:
    """An initial value problem D^alpha y = f(t, y), y(0) = y0, on [0, t_end].

    alpha is restricted to (0, 1], so the single initial value y0 is the only
    initial datum needed.  ``rhs(t, y)`` must return ``dim`` finite values
    (a scalar counts as one); every evaluation is checked, f(0, y0) included.
    Finiteness is checked once per block of ``serial.BLOCK`` steps, so after
    a non-finite result the rhs may be called with non-finite states for up
    to ``BLOCK - 1`` more steps before the solve fails at that result's
    step.  The rhs is never called twice for one evaluation.
    """

    alpha: float
    dim: int
    rhs: RhsFunction
    y0: np.ndarray = field(repr=False)
    t_end: float

    def __post_init__(self):
        _check_alpha(self.alpha)
        object.__setattr__(self, "alpha", float(self.alpha))
        dim = int(self.dim)
        if dim < 1:
            raise ValueError("dim must be >= 1")
        object.__setattr__(self, "dim", dim)
        y0 = np.array(self.y0, dtype=np.float64).reshape(-1)
        if y0.shape != (dim,):
            raise ValueError(f"y0 must have exactly {dim} entries, got shape {y0.shape}")
        if not np.isfinite(y0).all():
            raise ValueError("y0 must be finite")
        y0.setflags(write=False)
        object.__setattr__(self, "y0", y0)
        t_end = float(self.t_end)
        if not math.isfinite(t_end) or t_end <= 0.0:
            raise ValueError(f"t_end must be finite and positive, got {t_end!r}")
        object.__setattr__(self, "t_end", t_end)

    def grid(self, n_steps: int) -> GridSpec:
        """Uniform grid over this problem's horizon."""
        return GridSpec.from_horizon(self.t_end, n_steps)
