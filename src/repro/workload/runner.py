"""Client sessions driving the transaction mix.

The paper "spawn[s] one client process per partition in each DC", co-located
with the coordinator server, issuing requests in a closed loop; load is varied
by the number of threads per client process (Section V-A).  Here each thread
is one client session (its own Algorithm-1 state) run as a kernel process:
start, parallel read phase, parallel write phase, commit — 20 operations per
transaction in the default mixes.

Sessions are closed-loop by default, but the workload profile's
:class:`repro.workload.profiles.ArrivalSchedule` can pace them: bursty
profiles park every session between synchronised load bursts, ramp profiles
start with per-transaction think time and tighten it over the run.  Delays
are pure functions of simulated time, so pacing never perturbs determinism.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..core.client import PaRiSClient
from .generator import TransactionSpec, WorkloadGenerator
from .profiles import ArrivalSchedule


@dataclass
class SessionStats:
    """Raw samples and counts shared by all sessions of one experiment.

    One window definition decides everything measured: a completion counts
    toward ``completed_in_window``, and its latency and multi-DC flag are
    sampled, exactly when :meth:`record_completion` runs between
    :meth:`open_window` and :meth:`close_window`.  ``completed_total``
    counts every completion.  :func:`repro.bench.harness.summarize_measures`
    alone reduces these to numbers.
    """

    latency: List[float] = field(default_factory=list)
    multi_dc_count: int = 0
    completed_in_window: int = 0
    completed_total: int = 0
    window_start: Optional[float] = None
    window_end: Optional[float] = None

    def open_window(self, now: float) -> None:
        """Begin the measurement window (end of warmup)."""
        self.window_start = now

    def close_window(self, now: float) -> None:
        """End the measurement window."""
        self.window_end = now

    def record_completion(self, latency: float, multi_dc: bool) -> None:
        """Count one completed transaction; sample it if the window is open."""
        self.completed_total += 1
        if self.window_start is None or self.window_end is not None:
            return
        self.completed_in_window += 1
        self.latency.append(latency)
        if multi_dc:
            self.multi_dc_count += 1


class SessionDriver:
    """One session loop: a client plus the generator feeding it.

    The arrival schedule defaults to the workload profile's; pass one
    explicitly to override (tests, custom drivers).
    """

    def __init__(
        self,
        client: PaRiSClient,
        generator: WorkloadGenerator,
        stats: SessionStats,
        arrival: Optional[ArrivalSchedule] = None,
        initial_delay: float = 0.0,
    ) -> None:
        self.client = client
        self.generator = generator
        self.stats = stats
        self.arrival = arrival if arrival is not None else generator.profile.arrival
        #: Sub-microsecond per-session start stagger (see deploy_sessions).
        self.initial_delay = initial_delay
        self.transactions_run = 0
        #: Set by :meth:`halt`; the loop exits between transactions.
        self.halted = False

    def start(self) -> None:
        """Spawn the session loop on the simulation kernel."""
        self.halted = False
        self.client.sim.spawn(self._loop(), name=f"session:{self.client.address}")

    def halt(self) -> None:
        """Stop the loop after the in-flight transaction completes.

        Used when a membership change retires the session's DC; the loop
        never interrupts a transaction mid-protocol, it just stops starting
        new ones.  ``start()`` re-arms a halted driver (DC rejoin).
        """
        self.halted = True

    def _loop(self):
        sim = self.client.sim
        if self.initial_delay > 0.0:
            yield sim.timeout(self.initial_delay)
        while not self.halted:
            delay = self.arrival.delay(sim.now)
            if delay > 0.0:
                yield sim.timeout(delay)
                if self.halted:
                    return
            spec = self.generator.next_transaction()
            started_at = sim.now
            yield self.client.start_tx()
            if spec.reads:
                yield self.client.read(spec.reads)
            if spec.writes:
                self.client.write(spec.writes)
                yield self.client.commit()
            else:
                self.client.finish()
            self.transactions_run += 1
            self.stats.record_completion(sim.now - started_at, not spec.is_local)


def run_transaction(client: PaRiSClient, spec: TransactionSpec):
    """One-shot helper: run a single generated transaction to completion.

    A generator suitable for ``sim.spawn``; yields the transaction's commit
    timestamp (or None for read-only transactions) as the process result.
    """
    yield client.start_tx()
    results = None
    if spec.reads:
        results = yield client.read(spec.reads)
    commit_ts: Optional[int] = None
    if spec.writes:
        client.write(spec.writes)
        commit_ts = yield client.commit()
    else:
        client.finish()
    return commit_ts, results
