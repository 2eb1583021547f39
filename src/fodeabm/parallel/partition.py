"""The block layout as a model: contiguous blocks of time steps per worker.

Worker p owns the step indices [p*B, (p+1)*B) clipped to [0, N), where
B = ceil(N/P).  Below the owner of step n each block sends a partial sum;
above it each worker sits idle, which is inherent to the block algorithm.
The benchmark's work model and the acceptance suite read this layout; the
solver builds none, as its engine's spans at chunk B are these blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["PartitionPlan", "make_partition", "owner"]


@dataclass(frozen=True)
class PartitionPlan:
    """Assignment of contiguous step blocks to workers.

    ``blocks[p]`` is the half-open index range [lo, hi) owned by worker p.
    Blocks are ascending and disjoint, and their union is {0,...,N-1}.  When
    ceil(N/P) rounding exhausts the steps early, trailing blocks are empty.
    """

    n_steps: int
    n_workers: int
    block_size: int
    blocks: tuple[tuple[int, int], ...]


def make_partition(n_steps: int, n_workers: int) -> PartitionPlan:
    """Split N steps into P contiguous blocks of ceil(N/P) steps each."""
    n_steps = int(n_steps)
    n_workers = int(n_workers)
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if n_workers < 1:
        raise ValueError("n_workers must be >= 1")
    if n_workers > n_steps:
        raise ValueError(
            f"n_workers={n_workers} exceeds n_steps={n_steps}; "
            "each worker needs at least one step"
        )
    block = -(-n_steps // n_workers)  # ceil(N/P)
    blocks = tuple(
        (min(p * block, n_steps), min((p + 1) * block, n_steps))
        for p in range(n_workers)
    )
    return PartitionPlan(
        n_steps=n_steps, n_workers=n_workers, block_size=block, blocks=blocks
    )


def owner(plan: PartitionPlan, n: int) -> int:
    """Index of the worker whose block contains step n."""
    if not 0 <= n < plan.n_steps:
        raise IndexError(f"step index {n} outside [0, {plan.n_steps})")
    return min(n // plan.block_size, plan.n_workers - 1)

