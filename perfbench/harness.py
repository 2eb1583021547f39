"""Timed, checked solves and the benchmark's own tracing.

Everything here sits outside the library: solves are timed around the public
entry points, rhs calls are traced by wrapping the problem's rhs, and worker
processes are observed through /proc and getrusage only.
"""

from __future__ import annotations

import hashlib
import mmap
import os
import resource
import signal
import statistics
import time
from dataclasses import dataclass, field, replace

import numpy as np

from fodeabm import FractionalProblem
from workloads import SOLVERS, STRATEGIES, Input, Workload, cross_check


def live_children() -> list[int]:
    """Pids (zombies included) whose parent is this process."""
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:  # exited while scanning
            continue
        if int(stat[stat.rindex(")") + 2 :].split()[1]) == me:
            pids.append(int(entry))
    return pids


def reap(pids: list[int]) -> None:
    """Kill and wait for processes a solve left behind."""
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


def cpu_ticks() -> list[int]:
    """Aggregate /proc/stat CPU ticks: user nice system idle iowait irq softirq steal."""
    with open("/proc/stat") as fh:
        return [int(x) for x in fh.readline().split()[1:9]]


def steal_frac(start: list[int], end: list[int]) -> float:
    """Share of CPU time the hypervisor gave to other guests between two readings."""
    delta = [b - a for a, b in zip(start, end)]
    return delta[7] / sum(delta) if sum(delta) > 0 else 0.0


def _cpu_s() -> float:
    s = resource.getrusage(resource.RUSAGE_SELF)
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return s.ru_utime + s.ru_stime + c.ru_utime + c.ru_stime


def peak_rss_mib() -> float:
    """Peak RSS of this process or any reaped child (ru_maxrss is in KiB)."""
    s = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    c = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(s, c) / 1024.0


class RhsTracer:
    """Records one (start, end) span per rhs call into a shared mapping.

    The mapping is allocated before any solve, so block owners forked by the
    solver write into the same pages and their spans survive the fork.
    """

    def __init__(self, capacity: int):
        self._mm = mmap.mmap(-1, 8 * (1 + 2 * capacity))
        buf = np.frombuffer(self._mm, dtype=np.int64)
        self._count = buf[:1]
        self._spans = buf[1:].reshape(capacity, 2)

    def wrap(self, rhs):
        count, spans, cap, clock = self._count, self._spans, len(self._spans), time.perf_counter_ns

        def traced(t, y):
            t0 = clock()
            out = rhs(t, y)
            t1 = clock()
            i = count[0]
            if i < cap:
                spans[i, 0] = t0
                spans[i, 1] = t1
            count[0] = i + 1
            return out

        return traced

    def reset(self) -> None:
        self._count[0] = 0

    def children(self) -> tuple[int, float]:
        """(calls, seconds inside rhs) since the last reset."""
        n = int(self._count[0])
        spans = self._spans[: min(n, len(self._spans))]
        return n, float((spans[:, 1] - spans[:, 0]).sum()) / 1e9


@dataclass
class Sample:
    strategy: str
    label: str
    traced: bool
    start_ns: int
    wall_s: float
    cpu_s: float
    steal_frac: float
    error: str | None = None
    rhs_calls: int = 0
    rhs_s: float = 0.0


def timed_solve(strategy: str, inp: Input, tracer: RhsTracer | None = None):
    """One solve; returns its sample and states (None when it raised).

    Pass the tracer whose wrapper the input's rhs carries to record its spans.
    """
    traced = tracer is not None
    if traced:
        tracer.reset()
    ticks = cpu_ticks()
    c0 = _cpu_s()
    start = time.perf_counter_ns()
    try:
        states, error = SOLVERS[strategy](inp.problem, inp.grid).states, None
    except Exception as exc:  # a failing solve is a result, not a crash
        states, error = None, f"{type(exc).__name__}: {exc}"
    wall = (time.perf_counter_ns() - start) / 1e9
    cpu = _cpu_s() - c0
    sample = Sample(strategy, inp.label, traced, start, wall, cpu, steal_frac(ticks, cpu_ticks()), error)
    left = live_children()
    if left:
        reap(left)
        sample.error = sample.error or f"left {len(left)} process(es) alive"
    if traced:
        sample.rhs_calls, sample.rhs_s = tracer.children()
    return sample, states


@dataclass
class Checker:
    """Judges every solve and keeps the failure count."""

    workload: Workload
    refs: dict = field(default_factory=dict)      # label -> serial states
    digests: dict = field(default_factory=dict)   # (strategy, label) -> digest
    samples: list = field(default_factory=list)
    failures: list = field(default_factory=list)

    def judge(self, sample: Sample, states, inp: Input) -> None:
        if sample.error is None:
            sample.error = self._reason(sample.strategy, states, inp)
        self.samples.append(sample)
        if sample.error is not None:
            self.failures.append(f"{sample.strategy} {inp.label}: {sample.error}")

    def _reason(self, strategy: str, states: np.ndarray, inp: Input) -> str | None:
        if not np.isfinite(states).all():
            return "non-finite state"
        reason = inp.oracle(states)
        if reason:
            return reason
        if strategy == "serial":
            self.refs.setdefault(inp.label, states)
        elif inp.label in self.refs:
            reason = cross_check(self.workload, states, self.refs[inp.label])
            if reason:
                return reason
        digest = hashlib.sha256(states.tobytes()).digest()
        if self.digests.setdefault((strategy, inp.label), digest) != digest:
            return "not bitwise identical to an earlier solve of the same input"
        return None

    def triple(self, inp: Input, tracer: RhsTracer | None = None) -> None:
        """serial -> block -> reduction on one input, each timed and judged.

        A traced input shares its label with the plain one, so traced results
        must match untraced ones bit for bit.
        """
        for strategy in STRATEGIES:
            sample, states = timed_solve(strategy, inp, tracer)
            self.judge(sample, states, inp)


def traced_input(inp: Input, tracer: RhsTracer) -> Input:
    """The same input with its rhs wrapped by the tracer."""
    p = inp.problem
    return replace(inp, problem=FractionalProblem(p.alpha, p.dim, tracer.wrap(p.rhs), p.y0, p.t_end))


def run_for(budget_s: float, step, min_rounds: int = 3) -> int:
    """Call step() until the next round would overrun the budget; returns rounds."""
    t0 = time.perf_counter()
    rounds = 0
    while True:
        step(rounds)
        rounds += 1
        elapsed = time.perf_counter() - t0
        if rounds >= min_rounds and elapsed * (rounds + 1) / rounds > budget_s:
            return rounds


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) of the samples."""
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return q1, med, q3


def p90(xs: list[float]) -> float:
    return xs[0] if len(xs) < 2 else statistics.quantiles(xs, n=10)[-1]
