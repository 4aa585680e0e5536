"""Per-server CPU model: a non-preemptive FIFO multi-core queueing station.

The paper's servers are c5.xlarge instances (4 vCPUs).  Each protocol message
costs some service time (configured in :mod:`repro.config`); jobs queue FIFO
and run to completion on the first free core.  Saturation of this resource is
what bends the throughput/latency curves of Figures 1-3.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Tuple

from .kernel import Simulator


class Cpu:
    """A ``cores``-way FIFO processor attached to one simulated server.

    A job starts only while fewer than ``cores`` jobs are running, and a core
    that is not running anything is free *now* — so a started job always
    finishes at ``now + cost`` and which core takes it never matters.  The
    model therefore keeps a running-job count and a FIFO of waiting jobs, not
    per-core clocks.
    """

    __slots__ = ("_sim", "cores", "_queue", "_running", "busy_time", "jobs_done")

    def __init__(self, sim: Simulator, cores: int = 4) -> None:
        if cores < 1:
            raise ValueError("cores must be >= 1")
        self._sim = sim
        self.cores = cores
        #: Waiting jobs ``(cost, fn, args)``, oldest first.
        self._queue: Deque[Tuple[float, Callable[..., None], Tuple[Any, ...]]] = deque()
        self._running = 0
        self.busy_time = 0.0
        self.jobs_done = 0

    @property
    def queue_length(self) -> int:
        """Jobs waiting (not yet started)."""
        return len(self._queue)

    def submit(self, cost: float, fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn(*args)`` after it has queued for and consumed ``cost`` seconds.

        ``cost`` of zero still takes a turn on a core — one kernel event, and
        behind everything submitted earlier — so ordering with respect to
        earlier submissions is preserved.
        """
        if cost < 0:
            raise ValueError(f"negative service cost: {cost}")
        queue = self._queue
        if queue or self._running >= self.cores:
            queue.append((cost, fn, args))
            if self._running < self.cores:
                # Only while a finished job's own ``fn`` runs inside
                # _complete: a core is free and jobs wait; they go first.
                self._start_waiting()
            return
        self._running += 1
        self.busy_time += cost
        sim = self._sim
        sim.post_at(sim.now + cost, self._complete, fn, args)

    def _start_waiting(self) -> None:
        queue = self._queue
        sim = self._sim
        while queue and self._running < self.cores:
            cost, fn, args = queue.popleft()
            self._running += 1
            self.busy_time += cost
            sim.post_at(sim.now + cost, self._complete, fn, args)

    def _complete(self, fn: Callable[..., None], args: Tuple[Any, ...]) -> None:
        self._running -= 1
        self.jobs_done += 1
        fn(*args)
        if self._queue:
            self._start_waiting()

    def utilization(self, elapsed: float) -> float:
        """Fraction of total core-time spent busy over ``elapsed`` seconds."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / (elapsed * self.cores))
