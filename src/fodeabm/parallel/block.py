"""Block-partitioned parallel solver.

Worker p owns the contiguous steps [p*B, (p+1)*B) with B = ceil(N/P).  During
step n the owner's range [lo_owner, n] is summed where the step is assembled,
and every block below the owner contributes one partial over its whole block;
workers whose block lies above the owner are idle until the iteration
reaches it.  Lower blocks are re-scanned every step because the weights shift
with n, so total work stays O(N^2) by construction.

That is the reduction engine at chunk = B: step n has m = n // B + 1 <= P
chunks, so the coordinator keeps exactly the newest chunk (the owner's range)
and helper w takes chunk w - 1, which is block w - 1.  A helper's idle steps
are then the steps before its block, [0, blocks[w].lo), when the helpers
are forked; below the reduction engine's helper floor none is, and the
solve is the serial one.
"""

from __future__ import annotations

from ..core import FractionalProblem, GridSpec
from ..serial import Trajectory
from .partition import make_partition
from .reduction import solve_reduction_parallel

__all__ = ["solve_block_parallel"]


def solve_block_parallel(
    problem: FractionalProblem,
    grid: GridSpec,
    n_workers: int,
    *,
    stats: dict | None = None,
) -> Trajectory:
    """Solve with P block workers; equivalent to :func:`solve_serial`.

    With ``n_workers=1`` the result is bitwise identical to the serial
    solver.  ``stats``, when given, receives the reduction engine's
    per-worker instrumentation (``idle_steps`` is ``blocks[w].lo`` when the
    helpers are forked and N when they are not; worker 0 assembles every
    step and sends nothing).
    """
    plan = make_partition(grid.n_steps, n_workers)
    return solve_reduction_parallel(problem, grid, plan.n_workers, plan.block_size, stats=stats)
