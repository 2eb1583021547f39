"""fodeabm benchmark: one workload, one seed, every metric by name and unit.

    python3 perfbench/run.py --workload hr-long --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics: medians of per-solve wall times
from interleaved serial -> block -> reduction triples, fresh-interpreter
set-up time, peak RSS and the share of solves that succeeded.  ``--trace 1``
prints the per-layer metrics from a separate run that wraps the rhs and
times single layers from outside the library.  ``--smoke`` divides every
step count by ten.  The last stdout line is one JSON object.  The host
record, every solve (a root span, with its rhs child spans aggregated to a
count and a time when traced) and the other spans are kept in memory and
written at exit to ``.bench_out/<workload>-seed<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 11     # fresh interpreters per run (after one discarded warm-up)
WEIGHT_PROBES = 15    # direct precompute_weights calls per traced run
FIXED_PROBES = 9      # N=64 triples per traced run
FIXED_N = 64

END_TO_END_UNITS = {
    "setup_s": "s",
    "serial_solve_s": "s",
    "block_solve_s": "s",
    "reduction_solve_s": "s",
    "peak_rss_mib": "MiB",
    "ok_frac": "ratio",
}

PER_LAYER_UNITS = {
    "core.weights_s": "s",
    "systems.rhs_calls": "count",
    "systems.rhs_s": "s",
    "serial.self_s": "s",
    "serial.self_us_per_step": "us",
    "serial.history_gbps": "GB/s",
    "serial.cpu_s": "s",
    "serial.p90_s": "s",
    **{
        f"{s}.{name}": unit
        for s in ("block", "reduction")
        for name, unit in (
            ("fixed_s", "s"),
            ("handshake_us_per_step", "us"),
            ("cpu_s", "s"),
            ("useful_cpu_frac", "ratio"),
            ("speedup", "ratio"),
            ("ceiling", "ratio"),
            ("efficiency", "ratio"),
            ("p90_s", "s"),
        )
    },
    "trace.overhead_frac": "ratio",
}


def import_library():
    """Import fodeabm from this checkout's sources, and only from there."""
    if not (SRC / "fodeabm" / "__init__.py").is_file():
        sys.exit(f"perfbench: no fodeabm sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import fodeabm

    if Path(fodeabm.__file__).resolve().parent != SRC / "fodeabm":
        sys.exit(f"perfbench: fodeabm imported from {fodeabm.__file__}, not {SRC}")


def _read(path: str | Path) -> str | None:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def _cpu_max() -> str | None:
    """The cgroup CPU limit (v2 cpu.max, or v1 quota and period), read-only."""
    for line in (_read("/proc/self/cgroup") or "").splitlines():
        _, controllers, path = line.split(":", 2)
        if controllers == "":
            found = _read(f"/sys/fs/cgroup{path}/cpu.max")
        elif "cpu" in controllers.split(","):
            base = f"/sys/fs/cgroup/{controllers}{path}"
            quota, period = _read(f"{base}/cpu.cfs_quota_us"), _read(f"{base}/cpu.cfs_period_us")
            found = f"{quota} {period}" if quota and period else None
        else:
            continue
        if found:
            return found
    return None


def _blas() -> object:
    try:
        import threadpoolctl
    except ImportError:
        import numpy as np

        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"threadpoolctl": None, "numpy_blas": f"{blas.get('name')} {blas.get('version')}"}
    return threadpoolctl.threadpool_info()


def _commit() -> str:
    """HEAD's commit, read from .git without running git ("unknown" outside a clone)."""
    git = ROOT / ".git"
    head = _read(git / "HEAD") or "unknown"
    if head.startswith("ref: "):
        ref = head[5:]
        packed = [line.split()[0] for line in (_read(git / "packed-refs") or "").splitlines()
                  if line.endswith(" " + ref)]
        head = _read(git / ref) or (packed[0] if packed else "unknown")
    return head


def host_record(seed: int) -> dict:
    import numpy as np

    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cgroup_cpu_max": _cpu_max(),
        "loadavg_start": os.getloadavg(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "commit": _commit(),
        "seed": seed,
    }


def setup_times(workload: str, seed: int, smoke: bool) -> list[float]:
    """Fresh-interpreter set-up times; the first (cold file cache) is dropped."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(int(smoke))]
    times = []
    for _ in range(SETUP_PROBES + 1):
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times[1:]


def block_ceiling(n_steps: int, workers: int) -> float:
    """History terms over the block engine's per-step critical path.

    Per step the owner sums its local range while each lower block sends a
    partial; the step waits for the larger of the two.  rhs and assembly are
    ignored.
    """
    from fodeabm import make_partition, owner

    plan = make_partition(n_steps, workers)
    sizes = [(hi - lo) + (hi - max(lo, 1)) for lo, hi in plan.blocks]
    total = crit = 0
    for n in range(n_steps):
        o = owner(plan, n)
        lo = plan.blocks[o][0]
        local = (n + 1 - lo) + (n + 1 - max(lo, 1))
        total += 2 * n + 1
        crit += max([local] + sizes[:o])
    return total / crit


def reduction_ceiling(n_steps: int, workers: int, chunk: int) -> float:
    """History terms over the busiest worker's share under an even chunk split."""
    total = crit = 0.0
    for n in range(n_steps):
        m = n // chunk + 1
        total += 2 * n + 1
        crit += (2 * n + 1) * math.ceil(m / workers) / m
    return total / crit


def _values(samples, strategy, traced=False, value=lambda s: s.wall_s):
    """value() of the strategy's successful samples (of all, if none succeeded)."""
    ok = [s for s in samples if s.strategy == strategy and s.traced == traced]
    good = [value(s) for s in ok if s.error is None]
    return good or [value(s) for s in ok]


def untraced_run(args, wl, inputs):
    from harness import Checker, peak_rss_mib, quartiles, run_for
    from workloads import STRATEGIES

    checker = Checker(wl)
    checker.triple(inputs[0])  # warm-up, judged but not timed
    warm = len(checker.samples)
    rounds = run_for(args.seconds, lambda i: checker.triple(inputs[i % len(inputs)]))
    timed = checker.samples[warm:]
    metrics, spread = {}, {}
    for strategy in STRATEGIES:
        walls = _values(timed, strategy)
        spread[f"{strategy}_solve_s"] = (quartiles(walls), len(walls))
    metrics["peak_rss_mib"] = peak_rss_mib()  # before the set-up probes fork anything
    setups = setup_times(args.workload, args.seed, args.smoke)
    spread["setup_s"] = (quartiles(setups), len(setups))
    for name, ((_, med, _), _) in spread.items():
        metrics[name] = med
    attempted = len(checker.samples)
    metrics["ok_frac"] = 1.0 - len(checker.failures) / attempted
    info = {"rounds": rounds, "spread": spread}
    return metrics, checker, [], info


def traced_run(args, wl, inputs):
    from fodeabm import precompute_weights
    from harness import Checker, RhsTracer, p90, run_for, traced_input
    from workloads import CHUNK, STRATEGIES, WORKERS, WORKLOADS, fixed_cost_input

    t_start = time.perf_counter()
    spans = []
    n_steps = inputs[0].grid.n_steps
    dim = inputs[0].problem.dim
    alpha = inputs[0].problem.alpha

    weights = []
    for _ in range(WEIGHT_PROBES):
        t0 = time.perf_counter_ns()
        precompute_weights(alpha, n_steps)
        t1 = time.perf_counter_ns()
        weights.append((t1 - t0) / 1e9)
        spans.append({"name": "core.precompute_weights", "start_ns": t0, "end_ns": t1})

    probe = fixed_cost_input(FIXED_N)
    probes = Checker(WORKLOADS["short-many"])
    probes.triple(probe)  # warm-up
    warm_probes = len(probes.samples)
    for _ in range(FIXED_PROBES):
        probes.triple(probe)

    tracer = RhsTracer(4 * n_steps + 16)
    traced_inputs = [traced_input(inp, tracer) for inp in inputs]
    checker = Checker(wl)
    checker.triple(inputs[0])  # warm-up
    warm = len(checker.samples)

    def step(i):
        k = i % len(inputs)
        checker.triple(inputs[k])
        checker.triple(traced_inputs[k], tracer)

    remaining = args.seconds - (time.perf_counter() - t_start)
    rounds = run_for(remaining, step, min_rounds=2)
    timed = checker.samples[warm:]
    fixed = probes.samples[warm_probes:]

    med = statistics.median
    cpu = lambda s: s.cpu_s
    serial_s = med(_values(timed, "serial"))
    self_s = med(_values(timed, "serial", True, lambda s: s.wall_s - s.rhs_s))
    serial_cpu = med(_values(timed, "serial", value=cpu))
    m = {
        "core.weights_s": med(weights),
        "systems.rhs_calls": med(_values(timed, "serial", True, lambda s: s.rhs_calls)),
        "systems.rhs_s": med(_values(timed, "serial", True, lambda s: s.rhs_s)),
        "serial.self_s": self_s,
        "serial.self_us_per_step": self_s / n_steps * 1e6,
        # computed, not measured: each step streams (d history rows + the
        # weight row) over 2n+1 terms, summed over n this is 8 (d+1) N^2 bytes
        "serial.history_gbps": 8 * (dim + 1) * n_steps**2 / self_s / 1e9,
        "serial.cpu_s": serial_cpu,
        "serial.p90_s": p90(_values(timed, "serial")),
    }
    ceilings = {
        "block": block_ceiling(n_steps, WORKERS),
        "reduction": reduction_ceiling(n_steps, WORKERS, CHUNK),
    }
    for s, ceiling in ceilings.items():
        solve_s = med(_values(timed, s))
        fixed_s = med(_values(fixed, s)) - med(_values(fixed, "serial"))
        cpu_s = med(_values(timed, s, value=cpu))
        speedup = serial_s / solve_s
        m[f"{s}.fixed_s"] = fixed_s
        m[f"{s}.handshake_us_per_step"] = (solve_s - fixed_s - serial_s) / n_steps * 1e6
        m[f"{s}.cpu_s"] = cpu_s
        m[f"{s}.useful_cpu_frac"] = serial_cpu / cpu_s
        m[f"{s}.speedup"] = speedup
        m[f"{s}.ceiling"] = ceiling
        m[f"{s}.efficiency"] = speedup / ceiling
        m[f"{s}.p90_s"] = p90(_values(timed, s))
    untraced = sum(med(_values(timed, s)) for s in STRATEGIES)
    traced = sum(med(_values(timed, s, True)) for s in STRATEGIES)
    m["trace.overhead_frac"] = traced / untraced - 1.0

    info = {"rounds": rounds, "samples": {s: len(_values(timed, s)) for s in STRATEGIES}}
    checker.samples[:0] = probes.samples
    checker.failures[:0] = probes.failures
    return m, checker, spans, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="divide every step count by ten")
    args = parser.parse_args(argv)

    import_library()
    from workloads import WORKLOADS, make_inputs

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    from harness import cpu_ticks, steal_frac

    host = host_record(args.seed)
    ticks = cpu_ticks()
    t0 = time.perf_counter_ns()
    inputs = make_inputs(args.workload, args.seed, args.smoke)
    setup_span = {"name": "setup", "start_ns": t0, "end_ns": time.perf_counter_ns()}

    run = traced_run if args.trace else untraced_run
    metrics, checker, spans, info = run(args, wl, inputs)
    host["loadavg_end"] = os.getloadavg()
    host["steal_frac"] = steal_frac(ticks, cpu_ticks())
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    attempted, failed = len(checker.samples), len(checker.failures)

    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"N={inputs[0].grid.n_steps} inputs={len(inputs)} rounds={info['rounds']}")
    print("host " + json.dumps(host))
    for name, unit in units.items():
        line = f"{name:<34} {metrics[name]:.6g} {unit}"
        if name in info.get("spread", {}):
            (q1, med, q3), n = info["spread"][name]
            line += f"  (median; q1 {q1:.6g}, q3 {q3:.6g}; n={n})"
        print(line)
    print(f"{'fail_frac':<34} {failed / attempted:.6g} ratio  ({failed} of {attempted} solves)")
    if args.trace:
        print(f"samples per strategy {info['samples']}; "
              f"history_gbps is computed from array sizes, not measured")
    for reason in checker.failures:
        print(f"FAILED {reason}")

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "trace": args.trace, "smoke": args.smoke, "host": host,
        "metrics": metrics, "failures": checker.failures,
        "solves": [vars(s) for s in checker.samples],
        "spans": [setup_span] + spans,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, default=str))

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
