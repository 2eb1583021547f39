"""Self-tests of the benchmark.  Run: python3 -m pytest perfbench"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from fodeabm import FractionalProblem  # noqa: E402
from fodeabm.systems import rhs_power_law  # noqa: E402

import run  # noqa: E402
from harness import Checker, Sample, live_children, timed_solve  # noqa: E402
from workloads import STRATEGIES, WORKLOADS, Input, make_inputs  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _bench(*args, cwd=HERE.parent):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs(name):
    a, b, c = make_inputs(name, 5), make_inputs(name, 5), make_inputs(name, 6)
    key = lambda inps: [(i.label, i.problem.alpha, i.problem.y0.tobytes(), i.grid) for i in inps]
    assert key(a) == key(b)
    assert key(a) != key(c)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_rhs_going_non_finite_is_one_failed_solve(strategy):
    base = rhs_power_law(0.9, 2.0)

    def poisoned(t, y):
        return (math.nan,) if t > 0.5 else base(t, y)

    problem = FractionalProblem(0.9, 1, poisoned, [0.0], 1.0)
    inp = Input("poisoned", problem, problem.grid(64), lambda states: None)
    checker = Checker(WORKLOADS["short-many"])
    sample, states = timed_solve(strategy, inp)
    checker.judge(sample, states, inp)
    assert states is None
    assert len(checker.failures) == 1 and "non-finite" in checker.failures[0]
    assert live_children() == []


def test_changed_repeat_is_a_failure():
    inp = make_inputs("short-many", 1, smoke=True)[0]
    checker = Checker(WORKLOADS["short-many"])
    states = np.full((inp.grid.n_steps + 1, 1), 0.5)
    for value in (0.5, 0.5 + 1e-15):
        states = states.copy()
        states[-1] = value + 0.5
        checker.judge(Sample("serial", inp.label, False, 0, 1.0, 1.0, 0.0), states, inp)
    assert len(checker.failures) == 1 and "bitwise" in checker.failures[0]


def test_block_ceiling_is_four_thirds_at_two_workers():
    assert run.block_ceiling(20000, 2) == pytest.approx(4 / 3, rel=1e-3)
    assert 1.0 < run.reduction_ceiling(20000, 2, 1024) < 2.0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_reports_every_declared_metric(name, trace):
    out = _bench("--workload", name, "--seed", "3", "--seconds", "1", "--trace", trace, "--smoke")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


def test_refuses_to_run_without_the_library_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    out = _bench("--workload", "hr-long", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""
