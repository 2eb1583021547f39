"""Right-hand sides: analytic test problems and the Hindmarsh-Rose neuron.

Every factory returns a plain ``f(t, y)`` callable suitable for
:class:`~fodeabm.core.FractionalProblem`.  The analytic problems carry known
exact solutions (see :mod:`fodeabm.verify`) and exist to check the solver;
the Hindmarsh-Rose model is the demonstration system with bursting dynamics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "HindmarshRoseParams",
    "rhs_constant",
    "rhs_power_law",
    "rhs_linear",
    "rhs_hindmarsh_rose",
    "SYSTEM_NAMES",
]


def rhs_constant(value) -> callable:
    """f(t, y) = value (dimension taken from the value vector)."""
    vec = np.array(value, dtype=np.float64).reshape(-1)
    if not np.isfinite(vec).all():
        raise ValueError("constant rhs value must be finite")
    vec.setflags(write=False)

    def f(t, y):
        return vec

    return f


def rhs_power_law(alpha: float, beta: float) -> callable:
    """Scalar forcing whose exact solution (with y0 = 0) is y(t) = t^beta.

    The Caputo derivative of t^beta has order alpha and coefficient
    Gamma(beta+1)/Gamma(beta+1-alpha).  beta below alpha would make the
    forcing singular at t = 0, so it is rejected; beta equal to alpha gives
    a constant forcing (the exact solution is then t^alpha).
    """
    alpha = float(alpha)
    beta = float(beta)
    if beta < alpha:
        raise ValueError(
            f"power-law forcing needs beta >= alpha, got beta={beta}, alpha={alpha}"
        )
    coef = math.gamma(beta + 1.0) / math.gamma(beta + 1.0 - alpha)
    expo = beta - alpha
    if expo == 0.0:
        return rhs_constant([coef])

    def f(t, y):
        return (coef * t ** expo if t > 0.0 else 0.0,)

    return f


def rhs_linear(lam: float) -> callable:
    """f(t, y) = lam * y; exact solution y0 * E_alpha(lam * t^alpha)."""
    lam = float(lam)
    if not math.isfinite(lam):
        raise ValueError("lam must be finite")

    def f(t, y):
        return lam * y

    return f


@dataclass(frozen=True)
class HindmarshRoseParams:
    """Constants of the three-variable Hindmarsh-Rose neuron model.

    Defaults are the standard literature values; ``r`` controls the slow
    adaptation variable and must stay positive.
    """

    a: float = 1.0
    b: float = 3.0
    c: float = 1.0
    d: float = 5.0
    r: float = 0.006
    s: float = 4.0
    x_rest: float = -1.6
    i_ext: float = 3.25

    def __post_init__(self):
        vals = (self.a, self.b, self.c, self.d, self.r, self.s, self.x_rest, self.i_ext)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("Hindmarsh-Rose parameters must be finite")
        if self.r <= 0.0:
            raise ValueError("r must be positive")


def rhs_hindmarsh_rose(params: HindmarshRoseParams | None = None) -> callable:
    """Membrane potential x, recovery y, adaptation z:

        dx = y - a x^3 + b x^2 - z + i_ext
        dy = c - d x^2 - y
        dz = r (s (x - x_rest) - z)

    Autonomous: the returned function ignores t.  The state may be any
    sequence of three numbers; the result is a tuple of three Python floats,
    computed in the same double-precision operations as on numpy scalars.
    """
    p = params or HindmarshRoseParams()
    a, b, c, d = p.a, p.b, p.c, p.d
    r, s, x_rest, i_ext = p.r, p.s, p.x_rest, p.i_ext

    def f(t, state):
        # Python floats: scalar arithmetic on them is several times cheaper
        # than on numpy scalars, and it rounds the same way
        if type(state) is not np.ndarray or state.dtype.char != "d":  # float64
            state = np.asarray(state, dtype=np.float64)
        x, y, z = state.tolist()
        x2 = x * x
        return (
            y - a * x2 * x + b * x2 - z + i_ext,
            c - d * x2 - y,
            r * (s * (x - x_rest) - z),
        )

    return f


SYSTEM_NAMES = ("constant", "power-law", "linear", "hindmarsh-rose")


# canonical initial state for CLI runs of the neuron model; chosen inside the
# bursting basin so long runs stay within the documented bounds
HR_DEFAULT_Y0 = (0.1, 0.2, 0.2)
