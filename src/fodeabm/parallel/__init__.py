"""Parallel history-summation strategies and the step partition model."""

from .block import solve_block_parallel
from .partition import PartitionPlan, make_partition, owner
from .reduction import solve_reduction_parallel

__all__ = [
    "PartitionPlan",
    "make_partition",
    "owner",
    "solve_block_parallel",
    "solve_reduction_parallel",
]
