"""The PECE step shared by every strategy, and the sequential solver built on it.

One step takes y_n to y_{n+1} in PECE form:

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

Steps run in blocks of ``BLOCK``.  Within a block each rhs result is only
counted and stored; one scan after the block finds the first step whose
row of the states or column of the history is not finite.
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
# Panels pay only from this width on: just above L2, K=16 was slower than
# K=1 at d = 3, 4 and 6 and faster at d = 8 (README, Panel contraction)
PANEL_MIN_DIM = 8

# Steps between finiteness scans.  A failing solve runs at most BLOCK - 1
# steps past its failure; 64 is the smallest block within the noise of the
# best on short-many and hr-long serial (README, Checked blocks).
BLOCK = 64

NON_FINITE = "rhs returned a non-finite value"


def _rhs_failed(exc: Exception, n: int, t: float) -> SolverStepError:
    return SolverStepError(f"rhs evaluation failed: {type(exc).__name__}: {exc}", step=n, t=t)


def _miscounted(count: int, d: int, n: int, t: float) -> SolverStepError:
    return SolverStepError(f"rhs returned {count} values, expected {d}", step=n, t=t)


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
    """K: PANEL for at least PANEL_MIN_DIM components once the history,
    8*dim*(N+1) bytes, exceeds L2, else 1."""
    return PANEL if dim >= PANEL_MIN_DIM and 0 < _l2_bytes() < 8 * dim * (n_steps + 1) else 1


class PeceStep:
    """History kernel and step assembly over the states ``Y`` and history ``fT``.

    ``Y`` is (N+1, d); ``fT`` is (d, N+1), allocated unless given, as the
    parallel engines give a view of their shared memory.  Construction
    stores y_0 and f_0, so a failing f(0, y0) is :class:`SolverStepError` at
    step 0, checked like every later evaluation.  The step owns the
    column-major (d, 4) buffer ``G`` = [f_0, fP, S_c, S_p].  ``run(n0, n1)``
    runs steps [n0, n1); step n's history sums in ``S``, the view
    ``G[:, 2:4]``, are ``history(n, 0, n + 1, S)``, or whatever the caller's
    ``sums(n)`` writes there, such as the sum of ``history`` over ranges
    that partition 0..n.
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
        # summed in this order, y_{n+1} rounds as (f_0, fP terms) + S_c.
        # Zero-filled, so a failure before the first prediction finds a
        # finite fP
        G = self.G = np.zeros((d, 4), order="F")
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
        f0 = self.fT[:, 0]
        try:
            value = self.rhs(0.0, problem.y0)
            try:
                count = len(value)
            except TypeError:
                count = 1  # a scalar
            if count == d:
                f0[:] = value
        except Exception as exc:
            raise _rhs_failed(exc, 0, 0.0) from exc
        if count != d:
            raise _miscounted(count, d, 0, 0.0)
        if not np.isfinite(f0).all():
            raise SolverStepError(NON_FINITE, step=0, t=0.0)
        G[:, 0] = f0

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

    def run(self, n0: int, n1: int, sums=None) -> None:
        """Run steps [n0, n1) in blocks that end at multiples of ``BLOCK``.

        Step n writes its sums into ``S`` with ``sums(n)``, by default
        ``history(n, 0, n + 1, S)``, and adds y_0 to both, so the last
        column of ``G`` becomes the predicted state, evaluated into ``fP``.
        It forms y_{n+1} in row n+1 of ``Y`` as one product of
        ``G[:, 0:3]`` and evaluates f_{n+1} straight into column n+1 of
        ``fT``.  Each rhs result is counted, a scalar as one value, before
        it is stored; finiteness is scanned once per block.

        Raises :class:`SolverStepError` for step n if an rhs evaluation
        raises (with the cause chained) or returns other than ``dim``
        values, and with the non-finite reason for the first step of the
        block whose results are not all finite.  A step's non-finite predictor result
        shows in its row of ``Y``, where it has the positive weight
        h^alpha / Gamma(alpha+2).  The non-finite reason wins over any
        exception raised later in the block, ``sums``' own included; those
        leave ``run`` unchanged.  The steps after a non-finite result, up
        to the end of its block, call the rhs with non-finite states.
        """
        # everything a step touches is a local of this one frame; the two
        # evaluations are written out, as a call each cost 8% of a short solve
        rhs, d, h, CW = self.rhs, self.dim, self.h, self.CW
        Y, fT, S, y0c = self.Y, self.fT, self.S, self.y0_columns
        yP, fP, tail, w = self.yP, self.fP, self._tail, self._tail_weights
        history = self.history
        b0 = n0
        while b0 < n1:
            b1 = min(n1, b0 - b0 % BLOCK + BLOCK)
            try:
                for n in range(b0, b1):
                    if sums is None:
                        history(n, 0, n + 1, S)
                    else:
                        sums(n)
                    S += y0c
                    t1 = (n + 1) * h
                    try:
                        value = rhs(t1, yP)
                        try:
                            count = len(value)
                        except TypeError:
                            count = 1  # a scalar
                        # counted first: the store would broadcast a single
                        # value to all d entries and blame any other wrong
                        # length on the call
                        if count == d:
                            fP[:] = value
                    except Exception as exc:
                        raise _rhs_failed(exc, n, t1) from exc
                    if count != d:
                        raise _miscounted(count, d, n, t1)
                    w[0] = CW[n]
                    y1 = Y[n + 1]
                    tail.dot(w, y1)
                    try:
                        value = rhs(t1, y1)
                        try:
                            count = len(value)
                        except TypeError:
                            count = 1
                        if count == d:
                            fT[:, n + 1] = value
                    except Exception as exc:
                        raise _rhs_failed(exc, n, t1) from exc
                    if count != d:
                        raise _miscounted(count, d, n, t1)
            except Exception:
                # the steps before n stored all their results, and fP holds
                # step n's prediction if it was stored, else a checked one
                self._scan(b0, n)
                if not np.isfinite(fP).all():
                    raise SolverStepError(NON_FINITE, step=n, t=(n + 1) * h) from None
                raise
            self._scan(b0, b1)
            b0 = b1

    def _scan(self, n0: int, n1: int) -> None:
        """Raise the non-finite error of the first step in [n0, n1) whose
        row of ``Y`` or column of ``fT`` is not all finite."""
        rows, cols = self.Y[n0 + 1 : n1 + 1], self.fT[:, n0 + 1 : n1 + 1]
        if np.isfinite(rows).all() and np.isfinite(cols).all():
            return
        n = n0 + int((np.isfinite(rows).all(1) & np.isfinite(cols).all(0)).argmin())
        raise SolverStepError(NON_FINITE, step=n, t=(n + 1) * self.h) from None

    def trajectory(self) -> Trajectory:
        """The states ``Y`` and the history ``fT`` as a :class:`Trajectory`, uncopied.

        This ends the step: the trajectory makes ``Y`` and its view of
        ``fT`` read-only, so no later step can run.
        """
        return Trajectory(grid=self.grid, states=self.Y, f_cache=self.fT.T)


def solve_serial(problem: FractionalProblem, grid: GridSpec) -> Trajectory:
    """Integrate the problem over the full grid, one corrector pass per step.

    Deterministic: identical inputs give bitwise-identical trajectories.
    Raises :class:`SolverStepError` (with the failing step index and time)
    when any rhs evaluation fails or produces a non-finite value, at the
    latest at the end of that step's block.
    """
    step = PeceStep(problem, grid)
    with single_threaded_blas():
        step.run(0, grid.n_steps)
    return step.trajectory()
