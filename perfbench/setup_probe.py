"""Set-up cost as every CLI call or script pays it, in a fresh interpreter.

Usage: python3 setup_probe.py WORKLOAD SEED SMOKE(0|1)
Prints the seconds spent on ``import fodeabm`` plus building the workload's
problems and grids.
"""

import sys
import time
from pathlib import Path

t0 = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import fodeabm  # noqa: E402,F401

from workloads import make_inputs  # noqa: E402

make_inputs(sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1")
print(repr(time.perf_counter() - t0))
