"""Same-process A/B timing of two fodeabm source trees.

    python3 tools/ab_trees.py OLD_TREE NEW_TREE --workload short-many --rounds 20
    python3 tools/ab_trees.py OLD_TREE NEW_TREE --workload short-many --bench 10

Each tree's ``src/fodeabm`` is imported under its own package name, so both
run in one interpreter and share its memory layout, its CPUs and the host's
load.  Pairs of runs taken in separate processes carry per-process effects
that can exceed the gap being measured; pairs taken here do not.

The workloads, their inputs and the three solvers are perfbench's own: this
repository's ``perfbench/workloads.py`` is imported once per tree, with that
tree's package bound to the name ``fodeabm`` while it runs, so each tree
solves the same inputs, built from its own classes, with perfbench's worker
count and chunk width.

After one untimed round, each round solves the workload's inputs with every
strategy once per tree, serial -> block -> reduction, and alternates which
tree goes first.  A round's time for a (tree, strategy) is its mean time per
solve.  Per strategy the script prints both trees' medians and quartiles,
the median of the per-round ratios NEW/OLD, the rounds NEW won, and the
largest deviation of NEW's states from OLD's, scaled by the largest |state|
(0 means bitwise equal).  With ``--json PATH`` it also writes those
figures to PATH under the workload's name, keeping the other workloads
already in the file, so one file can collect all three.

With ``--rss`` the script compares peak memory instead, which two trees in
one process cannot separate: each round runs each tree in a fresh child
process, alternating which goes first, and the child solves the workload's
inputs with every strategy ``RSS_REPEATS`` times.  Per tree it prints the
median and quartiles of the peak RSS (``ru_maxrss`` of the child or of any
helper it reaped, as ``perfbench`` reads it) and the rounds NEW was lower.
It also prints the median of each child's process CPU time over the wall
time of its solves: a BLAS thread pool that one solve restarts burns CPU
in the next, and only fresh processes can charge that to one tree.

With ``--bench PAIRS`` the script runs the benchmark itself, as a pipeline
would: ``perfbench/run.py --trace 0`` of each tree in a fresh process, for
the seeds SEED..SEED+PAIRS-1, alternating which tree goes first, for the
``run_seconds`` of NEW's ``BENCHMARK.json``.  It reads each run's last
line.  For each end-to-end metric of that file it prints both medians and
quartiles and the pairs NEW won (ties count for neither), and a verdict: a
gain, or a loss, needs the winner to take at least 9 of 10 pairs and the
medians to differ by more than OLD's interquartile range.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def _exec(name: str, path: Path, **where):
    """Import the module at ``path`` as ``name``."""
    spec = importlib.util.spec_from_file_location(name, path, **where)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def _rebind(top: str, modules: dict) -> dict:
    """Bind ``top`` and its submodules to ``modules``, keyed by the names after
    ``top``; return what they were bound to, keyed the same way."""
    old = {k[len(top):]: sys.modules.pop(k) for k in list(sys.modules) if k.split(".")[0] == top}
    sys.modules.update({top + key: m for key, m in modules.items()})
    return old


def load(tree: Path, name: str):
    """perfbench's workloads module, built on ``tree/src/fodeabm`` imported as ``name``.

    The package and its submodules are ``fodeabm`` and ``fodeabm.*`` only
    while the workloads module runs.
    """
    pkg = tree / "src" / "fodeabm"
    _exec(name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    package = {k[len(name):]: m for k, m in sys.modules.items() if k.split(".")[0] == name}
    old = _rebind("fodeabm", package)
    try:
        return _exec(f"{name}_workloads", ROOT / "perfbench" / "workloads.py")
    finally:
        _rebind("fodeabm", old)


def run(wl, name: str, cases: list) -> tuple[float, list]:
    """Mean seconds per solve of ``cases`` with strategy ``name``, and the states."""
    solve = wl.SOLVERS[name]
    states = []
    t0 = time.perf_counter()
    for case in cases:
        states.append(solve(case.problem, case.grid).states)
    return (time.perf_counter() - t0) / len(cases), states


RSS_REPEATS = 4  # solves of the inputs per strategy in an --rss child


def peak_rss(tree: str | Path, workload: str, seed: int, names: list) -> tuple[float, float]:
    """Peak RSS in MiB of this process and its reaped helpers after the solves,
    and this process's CPU time over the wall time of the solves."""
    wl = load(Path(tree), "fodeabm_tree")
    cases = wl.make_inputs(workload, seed)
    cpu, start = time.process_time(), time.perf_counter()
    for _ in range(RSS_REPEATS):
        for s in names:
            run(wl, s, cases)
    cpu_over_wall = (time.process_time() - cpu) / (time.perf_counter() - start)
    who = (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    return max(resource.getrusage(w).ru_maxrss for w in who) / 1024.0, cpu_over_wall  # ru_maxrss is in KiB


def child_rss(tree: Path, args) -> tuple[float, float]:
    """``peak_rss`` of ``tree`` measured in a fresh interpreter."""
    code = (
        f"import sys; sys.path.insert(0, {str(Path(__file__).resolve().parent)!r}); import ab_trees; "
        f"print(*ab_trees.peak_rss({str(tree)!r}, {args.workload!r}, {args.seed}, {args.strategy!r}))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    rss, cpu_over_wall = out.stdout.split()[-2:]
    return float(rss), float(cpu_over_wall)


def main_rss(args) -> None:
    trees = [args.old.resolve(), args.new.resolve()]
    rss, cpu = ([], []), ([], [])
    for r in range(args.rounds):
        for side in (r % 2, 1 - r % 2):
            peak, ratio = child_rss(trees[side], args)
            rss[side].append(peak)
            cpu[side].append(ratio)
    print(f"{args.workload}, {args.rounds} rounds, seed {args.seed}, "
          f"{RSS_REPEATS} x {'/'.join(args.strategy)}: peak RSS MiB, median [q1, q3]")
    q = [statistics.quantiles(t, n=4) for t in rss]
    lower = sum(b < a for a, b in zip(*rss))
    print(f"old {statistics.median(rss[0]):.2f} [{q[0][0]:.2f}, {q[0][2]:.2f}]  "
          f"new {statistics.median(rss[1]):.2f} [{q[1][0]:.2f}, {q[1][2]:.2f}]  "
          f"new lower {lower}/{args.rounds}")
    print(f"process CPU / wall of the solves, median: old {statistics.median(cpu[0]):.2f}  "
          f"new {statistics.median(cpu[1]):.2f}")


def bench_run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The metric values of one ``perfbench/run.py --trace 0`` run in ``tree``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=True)
    metrics = json.loads(out.stdout.splitlines()[-1])["metrics"]
    return {name: m["value"] for name, m in metrics.items()}


def verdict(old: list, new: list, better: str) -> tuple[int, str]:
    """The pairs NEW won, and "gain", "loss" or "no verdict" by the rule of ``--bench``."""
    sign = 1.0 if better == "lower" else -1.0
    q1, _, q3 = statistics.quantiles(old, n=4)
    gap = sign * (statistics.median(old) - statistics.median(new))  # > 0: NEW is better
    won = sum(sign * (b - a) < 0 for a, b in zip(old, new))
    lost = sum(sign * (b - a) > 0 for a, b in zip(old, new))
    if won >= 0.9 * len(old) and gap > q3 - q1:
        return won, "gain"
    if lost >= 0.9 * len(old) and -gap > q3 - q1:
        return won, "loss"
    return won, "no verdict"


def main_bench(args) -> dict:
    trees = [args.old.resolve(), args.new.resolve()]
    spec = json.loads((trees[1] / "BENCHMARK.json").read_text())
    runs = ([], [])
    for i in range(args.bench):
        for side in (i % 2, 1 - i % 2):
            runs[side].append(bench_run(trees[side], args.workload, args.seed + i, spec["run_seconds"]))
    print(f"{args.workload}, {args.bench} fresh-process pairs, seeds {args.seed}.."
          f"{args.seed + args.bench - 1}: median [q1, q3]")
    summary = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        old, new = ([r[name] for r in side] for side in runs)
        won, call = verdict(old, new, metric["better"])
        summary[name] = {"old": quartiles(old), "new": quartiles(new), "new_won": won, "verdict": call}
        o, n, r = summary[name]["old"], summary[name]["new"], summary[name]
        print(f"{name:18s} old {o['median']:.4g} [{o['q1']:.4g}, {o['q3']:.4g}]  "
              f"new {n['median']:.4g} [{n['q1']:.4g}, {n['q3']:.4g}]  "
              f"new won {r['new_won']}/{args.bench}: {r['verdict']}")
    return {"pairs": args.bench, "seeds": [args.seed, args.seed + args.bench - 1],
            "run_seconds": spec["run_seconds"], "metrics": summary}


def quartiles(times: list) -> dict:
    q1, median, q3 = statistics.quantiles(times, n=4)
    return {"median": statistics.median(times), "q1": q1, "q3": q3}


def write_json(path: Path, workload: str, record: dict) -> None:
    """Store ``record`` under ``workload`` in the JSON object at ``path``."""
    data = json.loads(path.read_text()) if path.exists() else {}
    data[workload] = record
    path.write_text(json.dumps(data, indent=1) + "\n")


def main() -> None:
    perfbench = load(ROOT, "fodeabm_here")  # the choices of --workload and --strategy
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old", type=Path, help="source tree A (holds src/fodeabm)")
    ap.add_argument("new", type=Path, help="source tree B")
    ap.add_argument("--workload", choices=tuple(perfbench.WORKLOADS), default="short-many")
    ap.add_argument("--rounds", type=int, default=20)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--strategy", nargs="+", choices=perfbench.STRATEGIES, default=list(perfbench.STRATEGIES))
    ap.add_argument("--rss", action="store_true",
                    help="compare peak RSS, each tree in a fresh process per round")
    ap.add_argument("--bench", type=int, metavar="PAIRS",
                    help="run perfbench/run.py in each tree for PAIRS fresh-process pairs")
    ap.add_argument("--json", type=Path, metavar="PATH",
                    help="also write the figures to PATH under the workload "
                         "(with --bench, under 'WORKLOAD bench')")
    args = ap.parse_args()
    if args.rounds < 2 or args.bench is not None and args.bench < 2:
        ap.error("--rounds and --bench must be at least 2 for quartiles")
    if args.bench:
        record = main_bench(args)
        if args.json:
            record.update(old=args.old.resolve().name, new=args.new.resolve().name)
            write_json(args.json, f"{args.workload} bench", record)
        return
    if args.rss:
        main_rss(args)
        return

    wls = [load(args.old.resolve(), "fodeabm_old"), load(args.new.resolve(), "fodeabm_new")]
    cases = [wl.make_inputs(args.workload, args.seed) for wl in wls]
    times = {(side, s): [] for side in (0, 1) for s in args.strategy}
    deviation = dict.fromkeys(args.strategy, 0.0)
    for r in range(args.rounds + 1):
        for s in args.strategy:
            out = {}
            for side in (r % 2, 1 - r % 2):
                out[side] = run(wls[side], s, cases[side])
                if r:  # round 0 warms up
                    times[side, s].append(out[side][0])
            for a, b in zip(out[0][1], out[1][1]):
                deviation[s] = max(deviation[s], float(np.abs(b - a).max() / np.abs(a).max()))

    print(f"{args.workload}, {args.rounds} rounds, seed {args.seed}: seconds per solve, "
          "median [q1, q3]")
    summary = {}
    for s in args.strategy:
        old, new = times[0, s], times[1, s]
        summary[s] = {
            "old": quartiles(old),
            "new": quartiles(new),
            "new_over_old": statistics.median(b / a for a, b in zip(old, new)),
            "new_won": sum(b < a for a, b in zip(old, new)),
            "max_deviation": deviation[s],
        }
        o, n, r = summary[s]["old"], summary[s]["new"], summary[s]
        print(f"{s:9s} old {o['median']:.4g} [{o['q1']:.4g}, {o['q3']:.4g}]  "
              f"new {n['median']:.4g} [{n['q1']:.4g}, {n['q3']:.4g}]  "
              f"new/old {r['new_over_old']:.3f}, new won {r['new_won']}/{len(old)}, "
              f"max deviation {r['max_deviation']:.3g}")
    if args.json:
        record = {"old": args.old.resolve().name, "new": args.new.resolve().name,
                  "rounds": args.rounds, "seed": args.seed, "seconds_per_solve": summary}
        write_json(args.json, args.workload, record)


if __name__ == "__main__":
    main()
