"""tools/ab_trees.py: its verdict rule, and that it measures perfbench's workloads."""

import importlib.util
import sys
from pathlib import Path

import pytest

import fodeabm

ROOT = Path(__file__).resolve().parents[1]


def load(path: Path, name: str):
    """Import the module at ``path`` as ``name``."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


ab_trees = load(ROOT / "tools" / "ab_trees.py", "ab_trees")
workloads = load(ROOT / "perfbench" / "workloads.py", "perfbench_workloads")


# OLD's ten runs: median 1.0, interquartile range 0.95-1.05 (0.1 wide)
OLD = [0.90, 0.94, 0.96, 0.98, 0.99, 1.01, 1.02, 1.04, 1.06, 1.10]


def shifted(runs, by, keep=0):
    """``runs`` moved by ``by``, except the first ``keep`` runs, which move the other way."""
    return [x - by if i < keep else x + by for i, x in enumerate(runs)]


@pytest.mark.parametrize(
    "new, better, want",
    [
        (shifted(OLD, -0.2), "lower", (10, "gain")),
        (shifted(OLD, -0.2, keep=1), "lower", (9, "gain")),
        (shifted(OLD, -0.2, keep=2), "lower", (8, "no verdict")),
        (shifted(OLD, -0.05), "lower", (10, "no verdict")),  # the gap is within OLD's IQR
        (shifted(OLD, 0.2), "lower", (0, "loss")),
        (shifted(OLD, 0.2, keep=1), "lower", (1, "loss")),
        (shifted(OLD, 0.2, keep=2), "lower", (2, "no verdict")),
        (shifted(OLD, 0.2), "higher", (10, "gain")),
        (shifted(OLD, -0.2), "higher", (0, "loss")),
    ],
    ids=["10-won", "9-won", "8-won", "inside-iqr", "10-lost", "9-lost", "8-lost",
         "higher-gain", "higher-loss"],
)
def test_verdict(new, better, want):
    assert ab_trees.verdict(OLD, new, better) == want


def test_verdict_ties_count_for_neither_side():
    # nine wins by a wide gap and one tie: the tie is no win, yet 9/10 is a gain
    new = [x - 0.2 for x in OLD[:9]] + [OLD[9]]
    assert ab_trees.verdict(OLD, new, "lower") == (9, "gain")
    # eight wins and two ties are no verdict; nine losses and a tie are a loss
    new = [x - 0.2 for x in OLD[:8]] + OLD[8:]
    assert ab_trees.verdict(OLD, new, "lower") == (8, "no verdict")
    new = [x + 0.2 for x in OLD[:9]] + [OLD[9]]
    assert ab_trees.verdict(OLD, new, "lower") == (0, "loss")


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_inputs_are_perfbench_inputs(workload, seed):
    # a tree loaded under another name builds perfbench's inputs from its own package
    before = {k: m for k, m in sys.modules.items() if k.split(".")[0] == "fodeabm"}
    wl = ab_trees.load(ROOT, "fodeabm_under_test")
    package = sys.modules["fodeabm_under_test"]
    assert package is not fodeabm
    # fodeabm and its submodules are bound as before the load
    assert sys.modules["fodeabm"] is fodeabm
    assert {k: m for k, m in sys.modules.items() if k.split(".")[0] == "fodeabm"} == before
    # the tree's own classes, rhs factories and solvers
    assert wl.SOLVERS["serial"] is package.solve_serial
    ours, theirs = wl.make_inputs(workload, seed), workloads.make_inputs(workload, seed)
    assert len(ours) == len(theirs)
    for got, want in zip(ours, theirs):
        assert type(got.problem) is package.FractionalProblem
        assert got.problem.rhs.__module__ == "fodeabm_under_test.systems"
        assert (got.problem.alpha, got.problem.dim, got.problem.t_end) == (
            want.problem.alpha, want.problem.dim, want.problem.t_end)
        assert (got.grid.n_steps, got.grid.h) == (want.grid.n_steps, want.grid.h)
        assert got.problem.y0.tobytes() == want.problem.y0.tobytes()
