import dataclasses
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

from fodeabm import FractionalProblem, SolverStepError, bench
from fodeabm.bench import (
    IDLE_FIELDS,
    BenchRecord,
    run_sweep,
    write_csv,
)

from conftest import linear_problem


class TestSweep:
    def test_serial_cell_times(self):
        problem = linear_problem(0.5, -1.0)
        records, idle_rows = run_sweep(problem, strategies=("serial",), n_list=(200,), workers_list=(2,), repetitions=2)
        (record,) = records
        assert record.wall_time_s > 0.0 and not record.error
        assert idle_rows == []

    def test_block_cell_yields_idle_rows(self, force_helpers):
        problem = linear_problem(0.5, -1.0)
        _, idle_rows = run_sweep(
            problem, strategies=("block",), n_list=(200,), workers_list=(2,), repetitions=1
        )
        assert [row["worker"] for row in idle_rows] == [0, 1]
        # the forced helper owns block 0, active from step 100: one predictor
        # and one corrector partial a step, both in one ring slot
        assert [(row["idle_steps"], row["partial_sums_sent"]) for row in idle_rows] == [(0, 0), (100, 200)]

    def test_unknown_strategy(self):
        # rejected before any solve, so not one rhs call is spent on it
        calls = []

        def rhs(t, y):
            calls.append(t)
            return -y

        problem = FractionalProblem(alpha=0.5, dim=1, rhs=rhs, y0=[1.0], t_end=1.0)
        with pytest.raises(ValueError, match="unknown strategy 'magic'"):
            run_sweep(problem, strategies=("magic",), n_list=(500,), workers_list=(2,), repetitions=1)
        assert calls == []

    @pytest.mark.parametrize(
        "sweep, message",
        [
            ({"workers_list": (0,)}, "block at --steps 500 --workers 0: n_workers must lie in [1, 500], got 0"),
            ({"workers_list": (501,)}, "block at --steps 500 --workers 501: n_workers must lie"),
            ({"chunk": 0}, "reduction at --steps 500 --workers 2 --chunk 0: chunk must be >= 1, got 0"),
            ({"workers_list": (2, 2)}, "--workers repeats a value: 2,2"),
            ({"n_list": (500, 500)}, "--steps repeats a value: 500,500"),
            ({"strategies": ("block", "block")}, "--strategy repeats a value: block,block"),
            ({"n_list": (500, 0)}, "n_steps must be >= 1"),
        ],
        ids=["workers-zero", "workers-above-n", "chunk-zero", "workers-repeated", "steps-repeated",
             "strategy-repeated", "steps-zero"],
    )
    def test_bad_cell_refused_before_any_solve(self, sweep, message):
        calls = []

        def rhs(t, y):
            calls.append(t)
            return -y

        problem = FractionalProblem(alpha=0.5, dim=1, rhs=rhs, y0=[1.0], t_end=1.0)
        with pytest.raises(ValueError, match=re.escape(message)):
            run_sweep(problem, **{"n_list": (500,), "workers_list": (2,), "repetitions": 1, **sweep})
        assert calls == []

    def test_speedups_and_schema(self, force_helpers):
        problem = linear_problem(0.5, -1.0)
        records, idle_rows = run_sweep(
            problem,
            strategies=("serial", "block", "reduction"),
            n_list=(200, 400),
            workers_list=(2,),
            chunk=64,
            repetitions=1,
        )
        by_key = {(r.strategy, r.n_steps): r for r in records}
        assert ("serial", 200) in by_key and ("serial", 400) in by_key
        blk = by_key[("block", 400)]
        assert math.isfinite(blk.speedup_vs_serial)
        assert blk.chunk is None
        red = by_key[("reduction", 400)]
        assert red.chunk == 64
        assert idle_rows and {"worker", "idle_steps"} <= set(idle_rows[0])

    def test_failing_cell_recorded_and_sweep_continues(self):
        def exploding(t, y):
            return (float("nan"),) if t > 0.4 else (1.0,)

        problem = FractionalProblem(alpha=0.5, dim=1, rhs=exploding, y0=[0.0], t_end=1.0)
        records, _ = run_sweep(
            problem, strategies=("serial",), n_list=(50, 100), workers_list=(2,), repetitions=1
        )
        assert len(records) == 2
        assert all(r.error for r in records)

    def test_cells_interleave_in_rounds(self, monkeypatch):
        calls = []

        def fake_solve(problem, strategy, n_steps, workers, chunk, stats=None):
            calls.append((strategy, n_steps, workers))
            # as the engines do, one idle count and one send count per worker
            stats.update(idle_steps=[0] * workers, partial_sums_sent=[0] * workers)
            return SimpleNamespace(states=np.zeros(3))

        monkeypatch.setattr(bench, "solve_strategy", fake_solve)
        records, _ = run_sweep(
            linear_problem(),
            n_list=(100, 200),
            workers_list=(2, 3),
            repetitions=2,
        )
        for n in (100, 200):
            one_round = [
                ("serial", n, 1),
                ("block", n, 2),
                ("block", n, 3),
                ("reduction", n, 2),
                ("reduction", n, 3),
            ]
            # one warm-up round, then the timed rounds, one N after another
            assert calls[: 3 * len(one_round)] == one_round * 3
            del calls[: 3 * len(one_round)]
        assert calls == []
        assert len(records) == 10 and not any(r.error for r in records)

    def test_failing_cell_leaves_later_rounds(self, monkeypatch):
        calls = []

        def fake_solve(problem, strategy, n_steps, workers, chunk, stats=None):
            calls.append(strategy)
            if strategy == "block" and calls.count("block") == 2:
                raise SolverStepError("rhs returned a non-finite value", step=7, t=0.5)
            return SimpleNamespace(states=np.zeros(3))

        monkeypatch.setattr(bench, "solve_strategy", fake_solve)
        records, _ = run_sweep(linear_problem(), n_list=(100,), workers_list=(2,), repetitions=3)
        assert calls == ["serial", "block", "reduction"] * 2 + ["serial", "reduction"] * 2
        by_strategy = {r.strategy: r for r in records}
        assert "step 7" in by_strategy["block"].error
        assert math.isnan(by_strategy["block"].wall_time_s)
        assert not by_strategy["reduction"].error
        assert math.isfinite(by_strategy["reduction"].speedup_vs_serial)

    def test_changed_repeat_is_rejected(self, monkeypatch):
        solves = iter(range(100))

        def fake_solve(problem, strategy, n_steps, workers, chunk, stats=None):
            return SimpleNamespace(states=np.full(3, float(next(solves))))

        monkeypatch.setattr(bench, "solve_strategy", fake_solve)
        with pytest.raises(RuntimeError, match="nondeterministic"):
            run_sweep(linear_problem(), strategies=("serial",), n_list=(100,), workers_list=(2,), repetitions=2)


class TestCsv:
    def test_records_header_and_chunk_blank(self, tmp_path):
        path = tmp_path / "bench.csv"
        header = [f.name for f in dataclasses.fields(BenchRecord)]
        write_csv(path, header, map(dataclasses.astuple, [BenchRecord("serial", 10, 1, None, 0.5, 3, 1.0)]))
        lines = path.read_bytes().decode("utf-8").splitlines()
        assert lines[0] == (
            "strategy,n_steps,workers,chunk,wall_time_s,repetitions,speedup_vs_serial,error"
        )
        assert lines[1].split(",")[3] == ""

    def test_idle_csv(self, tmp_path):
        rows = [
            {
                "strategy": "block",
                "n_steps": 100,
                "workers": 2,
                "worker": 1,
                "idle_steps": 50,
                "partial_sums_sent": 100,
            }
        ]
        path = tmp_path / "idle.csv"
        write_csv(path, IDLE_FIELDS, map(dict.values, rows))
        lines = path.read_bytes().decode("utf-8").splitlines()
        assert lines[0] == "strategy,n_steps,workers,worker,idle_steps,partial_sums_sent"
        assert lines[1] == "block,100,2,1,50,100"
