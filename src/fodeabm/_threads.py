"""Single-threaded BLAS context shared by all solve loops.

The history sums are many small-to-medium matrix products; letting the BLAS
spawn its own threads makes timings erratic, breaks run-to-run bitwise
reproducibility guarantees across machines with different pool sizes, and is
unsafe to combine with fork-based workers.  Every solve therefore runs under
a limits=1 context; parallelism in this package comes only from its own
worker processes.
"""

from __future__ import annotations

import contextlib

try:
    from threadpoolctl import ThreadpoolController

    _controller = ThreadpoolController()

    def single_threaded_blas():
        return _controller.limit(limits=1)

except ImportError:
    # threadpoolctl is declared but may be absent.  The BLAS then keeps its
    # own thread count; a solve whose process CPU time exceeds its wall time
    # shows that the BLAS is using threads.

    def single_threaded_blas():
        return contextlib.nullcontext()
