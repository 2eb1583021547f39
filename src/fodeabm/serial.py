"""The PECE step shared by every strategy, and the sequential solver built on it.

One step advances y_n -> y_{n+1} in PECE form:

    predict   yP = y0 + h^alpha * sum_{k=0..n} b_{n-k} f_k
    evaluate  fP = f(t_{n+1}, yP)
    correct   y  = y0 + h^alpha * (c_n f_0 + sum_{k=1..n} a_{n-k} f_k
                                   + fP / Gamma(alpha+2))
    evaluate  f_{n+1} = f(t_{n+1}, y)

The history sums run over every previous step, which is what makes the total
cost O(N^2).  Both sums read the same history f_0..f_n, so :class:`PeceStep`
forms them as one (d x n+1) @ (n+1 x 2) product against the reversed b and a
weights, scaled by h^alpha and stacked side by side.  Its corrector column
weights f_0 with a_n, so the assembly adds h^alpha (c_n - a_n) f_0.  Any range
of terms is then one product over both full columns, which lets the parallel
engines split k = 0..n into ranges and add the partial products.
``f_cache`` keeps f at accepted states only; the predictor evaluation fP is
transient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._threads import single_threaded_blas
from .core import (
    FractionalProblem,
    GridSpec,
    SolverStepError,
    _all_finite,
    precompute_weights,
)

__all__ = ["Trajectory", "PeceStep", "solve_serial"]


@dataclass(frozen=True)
class Trajectory:
    """Computed states y_0..y_N on a uniform grid, with the rhs cache.

    Row n of ``states`` is y_n; row n of ``f_cache`` is f(t_n, y_n) evaluated
    at the accepted state.  Both arrays are read-only.
    """

    grid: GridSpec
    states: np.ndarray
    f_cache: np.ndarray

    def __post_init__(self):
        n = self.grid.n_steps
        if self.states.shape != self.f_cache.shape or self.states.shape[0] != n + 1:
            raise ValueError(
                f"states/f_cache must both have shape ({n + 1}, d), got "
                f"{self.states.shape} and {self.f_cache.shape}"
            )
        for arr in (self.states, self.f_cache):
            arr.setflags(write=False)

    @property
    def t(self) -> np.ndarray:
        return self.grid.times()

    @property
    def dim(self) -> int:
        return self.states.shape[1]


def _length(value) -> int:
    """Number of values an rhs returned; 0 for a scalar."""
    try:
        return len(value)
    except TypeError:
        return 0


class PeceStep:
    """History kernel and step assembly over the states ``Y`` and history ``fT``.

    ``Y`` is (N+1, d) and ``fT`` is (d, N+1); both are allocated unless given,
    as the parallel engines give views of their shared memory.  Construction
    stores y_0 and f_0.  Step n is ``advance(n, S)`` where S is
    ``history(n, 0, n + 1)`` or the sum of ``history`` over ranges that
    partition 0..n.
    """

    def __init__(
        self,
        problem: FractionalProblem,
        grid: GridSpec,
        Y: np.ndarray | None = None,
        fT: np.ndarray | None = None,
    ):
        if not grid.spans(problem.t_end):
            raise ValueError(
                f"grid (h={grid.h!r}, N={grid.n_steps}) does not span t_end={problem.t_end!r}"
            )
        N = grid.n_steps
        d = problem.dim
        table = precompute_weights(problem.alpha, N)
        ha = grid.h ** problem.alpha
        W = np.empty((2, N + 1))
        W[0] = table.b[::-1]
        W[1] = table.a[::-1]
        W *= ha
        # row N-n+k of WT is h^alpha (b_{n-k}, a_{n-k}); the transposed view
        # of a row-major (2, N+1) array is the layout the BLAS reads fastest
        self.WT = W.T
        self.f0_weight = (ha * (table.c - table.a)).tolist()
        self.fP_weight = ha / math.gamma(problem.alpha + 2.0)
        self.grid = grid
        self.N = N
        self.dim = d
        self.h = grid.h
        self.y0_columns = np.column_stack((problem.y0, problem.y0))
        self.rhs = problem.rhs
        self.Y = np.empty((N + 1, d)) if Y is None else Y
        self.fT = np.empty((d, N + 1)) if fT is None else fT
        self.Y[0] = problem.y0
        self.fT[:, 0] = problem.eval_rhs0()
        self.f0 = self.fT[:, 0].copy()
        self.fbuf = np.empty(d)

    def history(self, n: int, lo: int, hi: int) -> np.ndarray:
        """Step n's predictor and corrector sums over k in [lo, hi), times h^alpha.

        Returns a (d, 2) array: column 0 the b-weighted, column 1 the
        a-weighted sum.
        """
        o = self.N - n
        return self.fT[:, lo:hi] @ self.WT[o + lo : o + hi]

    def _evaluate(self, n: int, t: float, y: np.ndarray) -> None:
        """f(t, y) into ``fbuf``, checked for failure, length and finiteness."""
        try:
            value = self.rhs(t, y)
            self.fbuf[:] = value
        except (ArithmeticError, ValueError) as exc:
            raise SolverStepError(f"rhs evaluation failed: {exc}", step=n, t=t) from exc
        # the store above broadcasts a scalar or a single value to all d entries
        if _length(value) != self.dim:
            raise SolverStepError(
                f"rhs returned {np.size(value)} values, expected {self.dim}", step=n, t=t
            )
        if not _all_finite(self.fbuf):
            raise SolverStepError("rhs returned a non-finite value", step=n, t=t)

    def advance(self, n: int, S: np.ndarray) -> np.ndarray:
        """Predict, evaluate, correct and evaluate step n from its sums S.

        S is overwritten: column 0 with the predicted state, column 1 with
        y_{n+1}.  Stores y_{n+1} and f_{n+1} and returns the predicted
        state.  Raises :class:`SolverStepError` for step n if an rhs
        evaluation raises an arithmetic or value error, returns other than
        ``dim`` values, or is non-finite.
        """
        t1 = (n + 1) * self.h
        S += self.y0_columns
        yP = S[:, 0]
        self._evaluate(n, t1, yP)
        y1 = S[:, 1]
        y1 += self.f0_weight[n] * self.f0
        y1 += self.fP_weight * self.fbuf
        self._evaluate(n, t1, y1)
        self.Y[n + 1] = y1
        self.fT[:, n + 1] = self.fbuf
        return yP

    def trajectory(self) -> Trajectory:
        """Copies of the states and the rhs cache as a :class:`Trajectory`."""
        return Trajectory(
            grid=self.grid, states=np.array(self.Y), f_cache=np.ascontiguousarray(self.fT.T)
        )


def solve_serial(problem: FractionalProblem, grid: GridSpec) -> Trajectory:
    """Integrate the problem over the full grid, one corrector pass per step.

    Deterministic: identical inputs give bitwise-identical trajectories.
    Raises :class:`SolverStepError` (with the failing step index and time) as
    soon as any rhs evaluation fails or produces a non-finite value.
    """
    step = PeceStep(problem, grid)
    with single_threaded_blas():
        for n in range(grid.n_steps):
            step.advance(n, step.history(n, 0, n + 1))
    return step.trajectory()
