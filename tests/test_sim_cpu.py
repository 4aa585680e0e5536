"""Unit tests for the CPU queueing model."""

from __future__ import annotations

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.cpu import Cpu
from repro.sim.kernel import Simulator


class TestCpu:
    def test_single_job_runs_for_its_cost(self):
        sim = Simulator()
        cpu = Cpu(sim, cores=1)
        done = []
        cpu.submit(0.5, lambda: done.append(sim.now))
        sim.run()
        assert done == [0.5]

    def test_jobs_queue_fifo_on_one_core(self):
        sim = Simulator()
        cpu = Cpu(sim, cores=1)
        done = []
        for i in range(3):
            cpu.submit(1.0, lambda i=i: done.append((i, sim.now)))
        sim.run()
        assert done == [(0, 1.0), (1, 2.0), (2, 3.0)]

    def test_multiple_cores_run_in_parallel(self):
        sim = Simulator()
        cpu = Cpu(sim, cores=2)
        done = []
        for i in range(4):
            cpu.submit(1.0, lambda i=i: done.append((i, sim.now)))
        sim.run()
        assert done == [(0, 1.0), (1, 1.0), (2, 2.0), (3, 2.0)]

    def test_zero_cost_preserves_order(self):
        sim = Simulator()
        cpu = Cpu(sim, cores=1)
        done = []
        cpu.submit(1.0, lambda: done.append("slow"))
        cpu.submit(0.0, lambda: done.append("fast"))
        sim.run()
        assert done == ["slow", "fast"]

    def test_negative_cost_rejected(self):
        cpu = Cpu(Simulator(), cores=1)
        with pytest.raises(ValueError):
            cpu.submit(-1.0, lambda: None)

    def test_at_least_one_core(self):
        with pytest.raises(ValueError):
            Cpu(Simulator(), cores=0)

    def test_queue_length(self):
        sim = Simulator()
        cpu = Cpu(sim, cores=1)
        for _ in range(3):
            cpu.submit(1.0, lambda: None)
        assert cpu.queue_length == 2  # one running, two waiting
        sim.run()
        assert cpu.queue_length == 0

    def test_busy_time_and_utilization(self):
        sim = Simulator()
        cpu = Cpu(sim, cores=2)
        cpu.submit(1.0, lambda: None)
        cpu.submit(3.0, lambda: None)
        sim.run()
        assert cpu.busy_time == pytest.approx(4.0)
        # Elapsed 3.0 s, 2 cores -> 6 core-seconds available, 4 used.
        assert cpu.utilization(3.0) == pytest.approx(4.0 / 6.0)
        assert cpu.utilization(0.0) == 0.0

    def test_jobs_submitted_while_busy_wait(self):
        sim = Simulator()
        cpu = Cpu(sim, cores=1)
        done = []
        cpu.submit(2.0, lambda: cpu.submit(1.0, lambda: done.append(sim.now)))
        sim.run()
        assert done == [3.0]

    def test_jobs_done_counter(self):
        sim = Simulator()
        cpu = Cpu(sim, cores=4)
        for _ in range(10):
            cpu.submit(0.1, lambda: None)
        sim.run()
        assert cpu.jobs_done == 10

    def test_idle_gap_then_new_work(self):
        sim = Simulator()
        cpu = Cpu(sim, cores=1)
        done = []
        cpu.submit(1.0, lambda: done.append(sim.now))
        sim.run()
        sim.call_after(5.0, lambda: cpu.submit(1.0, lambda: done.append(sim.now)))
        sim.run()
        # Second job starts at t=6 (submitted at 6? no: submitted at t=6? it
        # was scheduled at now(1.0)+5.0 = 6.0 and costs 1.0).
        assert done == [1.0, 7.0]

    def test_args_reach_the_job(self):
        sim = Simulator()
        cpu = Cpu(sim, cores=1)
        done = []
        cpu.submit(0.5, lambda *args: done.append((args, sim.now)), "envelope", 3)
        cpu.submit(0.5, lambda *args: done.append((args, sim.now)))
        sim.run()
        assert done == [(("envelope", 3), 0.5), ((), 1.0)]

    def test_zero_cost_on_an_idle_core_still_takes_an_event(self):
        """Zero cost is not a synchronous call: the job runs from the event loop."""
        sim = Simulator()
        cpu = Cpu(sim, cores=2)
        done = []
        cpu.submit(0.0, done.append, "job")
        assert done == [] and cpu.jobs_done == 0
        sim.run()
        assert done == ["job"] and sim.events_executed == 1

    def test_job_submitted_by_a_finishing_job_goes_behind_the_waiting_ones(self):
        """While a finished job's callback runs, a core is free but the queue is not."""
        sim = Simulator()
        cpu = Cpu(sim, cores=1)
        done = []

        def first():
            done.append(("first", sim.now))
            cpu.submit(1.0, lambda: done.append(("late", sim.now)))

        cpu.submit(1.0, first)
        cpu.submit(1.0, lambda: done.append(("waiting", sim.now)))
        sim.run()
        assert done == [("first", 1.0), ("waiting", 2.0), ("late", 3.0)]


class ReferenceCpu:
    """The per-core-clock algorithm ``Cpu`` replaced, kept as the test oracle.

    It tracks when each core falls free and starts a job on the earliest
    one, at ``max(now, free_at)`` — which ``Cpu`` argues is always ``now``.
    """

    def __init__(self, sim, cores):
        self._sim, self.cores = sim, cores
        self._free_at = [0.0] * cores
        self._queue = deque()
        self._running = 0
        self.busy_time = 0.0
        self.jobs_done = 0

    def submit(self, cost, job, *args):
        self._queue.append((cost, job, args))
        self._dispatch()

    def _dispatch(self):
        while self._queue and self._running < self.cores:
            cost, job, args = self._queue.popleft()
            core = min(range(self.cores), key=lambda i: self._free_at[i])
            finish = max(self._sim.now, self._free_at[core]) + cost
            self._free_at[core] = finish
            self._running += 1
            self.busy_time += cost
            self._sim.post_at(finish, self._complete, job, args)

    def _complete(self, job, args):
        self._running -= 1
        self.jobs_done += 1
        job(*args)
        self._dispatch()


#: Grid values make equal-timestamp arrivals and completions common; the
#: free floats cover the arithmetic.
_SECONDS = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 1.0]),
    st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
)
#: ``(arrival, cost, cost of a job it submits when it completes, or None)``.
_JOBS = st.lists(st.tuples(_SECONDS, _SECONDS, st.one_of(st.none(), _SECONDS)), max_size=25)


def _drive(cpu_cls, cores, jobs):
    sim = Simulator()
    cpu = cpu_cls(sim, cores)
    completions = []

    def finished(label, child_cost):
        completions.append((label, sim.now, cpu._running, len(cpu._queue)))
        if child_cost is not None:
            cpu.submit(child_cost, finished, f"{label}+", None)

    for index, (arrival, cost, child_cost) in enumerate(jobs):
        sim.post_at(arrival, cpu.submit, cost, finished, str(index), child_cost)
    sim.run()
    return completions, cpu.busy_time, cpu.jobs_done, sim.events_executed, sim.now


@settings(max_examples=300, deadline=None, derandomize=True)
@given(cores=st.integers(min_value=1, max_value=4), jobs=_JOBS)
def test_same_completions_as_the_per_core_clock_reference(cores, jobs):
    """Every completion time, their order, and the occupancy seen at each one."""
    assert _drive(Cpu, cores, jobs) == _drive(ReferenceCpu, cores, jobs)
