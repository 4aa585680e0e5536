"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro import build_cluster, small_test_config
from repro.consistency.events import CommitEvent, ReadEvent
from repro.consistency.streaming import StreamingChecker, StreamingOracle
from repro.sim.kernel import Simulator


@pytest.fixture
def sim() -> Simulator:
    """A fresh simulation kernel."""
    return Simulator()


@pytest.fixture
def tiny_config():
    """3 DCs x 2 machines, RF 2 — the smallest interesting deployment."""
    return small_test_config(n_dcs=3, machines_per_dc=2, keys_per_partition=20)


@pytest.fixture
def tiny_cluster(tiny_config):
    """A warmed-up PaRiS cluster (UST converged)."""
    cluster = build_cluster(tiny_config, protocol="paris")
    cluster.sim.run(until=1.0)
    return cluster


@pytest.fixture
def tiny_bpr_cluster(tiny_config):
    """A warmed-up BPR cluster."""
    cluster = build_cluster(tiny_config, protocol="bpr")
    cluster.sim.run(until=1.0)
    return cluster


def checked_oracle(level: str = "tcc") -> StreamingOracle:
    """An oracle judged inline; verdicts accrue in ``oracle.checker.violations``."""
    return StreamingOracle(checker=StreamingChecker(level=level))


def violations_of(oracle: StreamingOracle, kind: str):
    """The inline checker's violations of one invariant."""
    return [v for v in oracle.checker.violations if v.kind == kind]


class EventLog:
    """List-backed stand-in for the oracle's checker: keeps the raw history.

    For tests that judge one run several ways (levels, windows) or inspect
    the recorded events themselves.
    """

    def __init__(self) -> None:
        self.events = []

    def feed(self, event) -> None:
        self.events.append(event)

    @property
    def commits(self):
        return [e for e in self.events if isinstance(e, CommitEvent)]

    @property
    def reads(self):
        return [e for e in self.events if isinstance(e, ReadEvent)]

    def check(self, level: str = "tcc", window=None):
        """Run the checker over the recorded history; returns its violations."""
        return StreamingChecker(window=window, level=level).run(self.events)


def recording_oracle(sink=None) -> StreamingOracle:
    """An oracle whose ``checker`` is an :class:`EventLog`."""
    return StreamingOracle(sink=sink, checker=EventLog())


def drive(cluster, generator, horizon: float = 30.0):
    """Spawn a client generator and run until it finishes; return its value."""
    process = cluster.sim.spawn(generator)
    deadline = cluster.sim.now + horizon
    while not process.done and cluster.sim.now < deadline:
        if not cluster.sim.step():
            break
    if not process.done:
        raise TimeoutError("client process did not finish within the horizon")
    return process.completed.value


def run_for(cluster, seconds: float) -> None:
    """Advance the cluster's simulation by ``seconds``."""
    cluster.sim.run(until=cluster.sim.now + seconds)
