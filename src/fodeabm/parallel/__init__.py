"""Parallel history-summation strategies and the step partition model."""

from .block import solve_block_parallel
from .partition import PartitionPlan, idle_fraction, make_partition, owner
from .reduction import solve_reduction_parallel

__all__ = [
    "PartitionPlan",
    "make_partition",
    "owner",
    "idle_fraction",
    "solve_block_parallel",
    "solve_reduction_parallel",
]
