"""The PECE step shared by every strategy, and the sequential solver built on it.

One step advances y_n -> y_{n+1} in PECE form:

    predict   yP = y0 + h^alpha * sum_{k=0..n} b_{n-k} f_k
    evaluate  fP = f(t_{n+1}, yP)
    correct   y  = y0 + h^alpha * (c_n f_0 + sum_{k=1..n} a_{n-k} f_k
                                   + fP / Gamma(alpha+2))
    evaluate  f_{n+1} = f(t_{n+1}, y)

The history sums run over every previous step, which is what makes the total
cost O(N^2).  Both sums read the same history f_0..f_n, so :class:`PeceStep`
forms them as one (d x n+1) @ (n+1 x 2) product against the reversed a and b
weights, scaled by h^alpha and stacked side by side.  Its corrector column
weights f_0 with a_n, so any range of terms is one product over both full
columns, which lets the parallel engines split k = 0..n into ranges and add
the partial products.  The step keeps one (d x 4) buffer G = [f_0, fP, S_c,
S_p]: the sums are written into its last two columns, and y_{n+1} is one
more product, G[:, 0:3] @ (h^alpha (c_n - a_n), h^alpha / Gamma(alpha+2), 1).
``f_cache`` keeps f at accepted states only; the predictor evaluation fP is
transient.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._threads import single_threaded_blas
from .core import FractionalProblem, GridSpec, SolverStepError, precompute_weights

__all__ = ["Trajectory", "PeceStep", "solve_serial"]


@dataclass(frozen=True)
class Trajectory:
    """Computed states y_0..y_N on a uniform grid, with the rhs cache.

    Row n of ``states`` is y_n; row n of ``f_cache`` is f(t_n, y_n) evaluated
    at the accepted state.  Both arrays are read-only; a solve hands over its
    own buffers, so ``f_cache`` is the transposed view of its history.
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


PANEL = 16  # steps per panel once the history outgrows L2


@functools.cache
def _l2_bytes() -> int:
    """cpu0's L2 cache size in bytes, as sysfs gives it; 0 if unreadable."""
    try:
        with open("/sys/devices/system/cpu/cpu0/cache/index2/size") as f:
            text = f.read().strip()
        return int(text.rstrip("KM")) << {"K": 10, "M": 20}.get(text[-1:], 0)
    except (OSError, ValueError):
        return 0


def _panel_width(dim: int, n_steps: int) -> int:
    """K: PANEL once the history, 8*dim*(N+1) bytes, exceeds L2, else 1."""
    return PANEL if 0 < _l2_bytes() < 8 * dim * (n_steps + 1) else 1


class PeceStep:
    """History kernel and step assembly over the states ``Y`` and history ``fT``.

    ``Y`` is (N+1, d); ``fT`` is (d, N+1), allocated unless given, as the
    parallel engines give a view of their shared memory.  Construction
    stores y_0 and f_0, so a failing f(0, y0) is :class:`SolverStepError` at
    step 0, checked like every later evaluation.  The step owns the
    column-major (d, 4) buffer ``G`` = [f_0, fP, S_c, S_p].  Step n writes
    its history sums into ``S``, the view ``G[:, 2:4]``, with
    ``history(n, 0, n + 1, S)`` or as the sum of ``history`` over ranges
    that partition 0..n, and then calls ``advance(n)``.
    """

    def __init__(
        self,
        problem: FractionalProblem,
        grid: GridSpec,
        fT: np.ndarray | None = None,
    ):
        if not grid.spans(problem.t_end):
            raise ValueError(
                f"grid (h={grid.h!r}, N={grid.n_steps}) does not span t_end={problem.t_end!r}"
            )
        N = grid.n_steps
        d = problem.dim
        K = _panel_width(d, N)
        table = precompute_weights(problem.alpha, N)
        ha = grid.h ** problem.alpha
        # row 2j+c of RT is h^alpha times the reversed a (c=0) or b (c=1)
        # weights shifted right by j: RT[2j+c, N-s+k] is step s+j's weight
        # of f_k, so one product over RT serves a whole panel of K steps
        RT = self.RT = np.empty((2 * K, N + 1))
        RT[0] = table.a[::-1]
        RT[1] = table.b[::-1]
        RT[:2] *= ha
        for j in range(1, K):
            RT[2 * j : 2 * j + 2, j:] = RT[:2, : N + 1 - j]
            RT[2 * j : 2 * j + 2, :j] = 0.0  # weights of steps past N
        # row N-n+k of WT is h^alpha (a_{n-k}, b_{n-k}); the transposed view
        # of a row-major (2, N+1) array is the layout the BLAS reads fastest
        self.WT = RT[:2].T
        self.K = K
        self._far = ((-1, 0, 0), None)  # ((panel start, lo, mid), far product)
        # CW[n] = h^alpha (c_n - a_n): step n's weight of f_0 beyond the a_n
        # that S_c gives it; its weight of fP is the same for every step
        self.CW = ha * (table.c - table.a)
        # G = [f_0, fP, S_c, S_p] column by column, so every column is a
        # contiguous vector and y_{n+1} = G[:, 0:3] @ (CW[n], fP weight, 1);
        # summed in this order, y_{n+1} rounds as (f_0, fP terms) + S_c
        G = self.G = np.empty((d, 4), order="F")
        self.S = G[:, 2:4]
        self.yP = G[:, 3]
        self.fP = G[:, 1]
        self._tail = G[:, 0:3]
        self._tail_weights = np.array([0.0, ha / math.gamma(problem.alpha + 2.0), 1.0])
        self.grid = grid
        self.N = N
        self.dim = d
        self.h = grid.h
        self.y0_columns = np.asfortranarray(np.column_stack((problem.y0, problem.y0)))
        self.rhs = problem.rhs
        self.Y = np.empty((N + 1, d))
        self.fT = np.empty((d, N + 1)) if fT is None else fT
        self.Y[0] = problem.y0
        self._evaluate(0, 0.0, problem.y0, self.fT[:, 0])
        G[:, 0] = self.fT[:, 0]

    def history(self, n: int, lo: int, hi: int, out: np.ndarray) -> None:
        """Step n's corrector and predictor sums over k in [lo, hi), times h^alpha.

        Writes the (d, 2) ``out``: column 0 the a-weighted (corrector),
        column 1 the b-weighted (predictor) sum.  With K > 1 the terms
        below step n's panel are one product per panel and range, kept for
        the panel's other steps and added into ``out`` in place.
        """
        o = self.N - n
        if self.K == 1 or (mid := min(hi, n - n % self.K)) <= lo:
            np.matmul(self.fT[:, lo:hi], self.WT[o + lo : o + hi], out=out)
            return
        j = n % self.K
        # one product is kept: every caller's lo and mid are non-decreasing
        # in n, so a replaced key never comes back
        key = (n - j, lo, mid)
        if self._far[0] != key:
            self._far = (key, self.RT[:, o + j + lo : o + j + mid] @ self.fT[:, lo:mid].T)
        # zeros when [mid, hi) is empty
        np.matmul(self.fT[:, mid:hi], self.WT[o + mid : o + hi], out=out)
        out += self._far[1][2 * j : 2 * j + 2].T

    def _evaluate(self, n: int, t: float, y: np.ndarray, out: np.ndarray) -> None:
        """f(t, y) into ``out``, checked for failure, length and finiteness."""
        try:
            value = self.rhs(t, y)
            try:
                count = len(value)
            except TypeError:
                count = 1  # a scalar
            # counted first: the store would broadcast a single value to all
            # d entries and blame any other wrong length on the call
            if count == self.dim:
                out[:] = value
        except Exception as exc:
            raise SolverStepError(
                f"rhs evaluation failed: {type(exc).__name__}: {exc}", step=n, t=t
            ) from exc
        if count != self.dim:
            raise SolverStepError(
                f"rhs returned {count} values, expected {self.dim}", step=n, t=t
            )
        # a finite dot product with itself proves out finite; any other is
        # decided exactly, since a finite square may overflow
        if not math.isfinite(out.dot(out)) and not np.isfinite(out).all():
            raise SolverStepError("rhs returned a non-finite value", step=n, t=t)

    def advance(self, n: int) -> np.ndarray:
        """Predict, evaluate, correct and evaluate step n from its sums in ``S``.

        Adds y_0 to both sums, so the last column of ``G`` becomes the
        predicted state, evaluated into ``fP``.  Forms y_{n+1} in row n+1 of
        ``Y`` as one product of ``G[:, 0:3]`` and evaluates f_{n+1} straight
        into column n+1 of ``fT``; returns the predicted state, a view of
        ``G``.  Raises :class:`SolverStepError` for step n, with the cause
        chained, if an rhs evaluation raises, returns other than ``dim``
        values, or is non-finite; column n+1 of ``fT`` may then hold the
        failing values.
        """
        t1 = (n + 1) * self.h
        self.S += self.y0_columns
        yP = self.yP
        self._evaluate(n, t1, yP, self.fP)
        w = self._tail_weights
        w[0] = self.CW[n]
        y1 = self.Y[n + 1]
        self._tail.dot(w, y1)
        self._evaluate(n, t1, y1, self.fT[:, n + 1])
        return yP

    def trajectory(self) -> Trajectory:
        """The states ``Y`` and the history ``fT`` as a :class:`Trajectory`, uncopied.

        This ends the step: the trajectory makes ``Y`` and its view of
        ``fT`` read-only, so no later step can be advanced.
        """
        return Trajectory(grid=self.grid, states=self.Y, f_cache=self.fT.T)


def solve_serial(problem: FractionalProblem, grid: GridSpec) -> Trajectory:
    """Integrate the problem over the full grid, one corrector pass per step.

    Deterministic: identical inputs give bitwise-identical trajectories.
    Raises :class:`SolverStepError` (with the failing step index and time) as
    soon as any rhs evaluation fails or produces a non-finite value.
    """
    step = PeceStep(problem, grid)
    advance, history, S = step.advance, step.history, step.S
    with single_threaded_blas():
        for n in range(grid.n_steps):
            history(n, 0, n + 1, S)
            advance(n)
    return step.trajectory()
