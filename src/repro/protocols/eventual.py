"""Eventual: no causal wait at all — the latency upper-bound baseline.

This variant answers "how fresh could reads possibly be if we gave up
causal consistency entirely?"  It takes BPR's fresh clock snapshots but
serves read slices immediately from whatever the replica has installed —
no UST wait (PaRiS) and no parking (BPR).  Reads are therefore maximally
fresh and never block, and the variant deliberately **gives up the TCC
guarantee**: a cross-partition read racing the apply loop observes effects
before their causes, which is exactly the Section III-A trap the paper
opens with.  Running the full TCC checker over it reports causal-snapshot
violations by the thousand — the suite asserts that, as living proof of
what the UST buys.

What eventual *does* promise — and what ``repro run --big`` verifies for it
(its registered consistency level is ``"session"``) — are the session
guarantees: read-your-writes survives because the client keeps its private
write cache un-pruned (clock snapshots never *cover* a write the way a
stable snapshot does), monotonic reads survive because each replica
installs versions in timestamp order and a session sticks to fixed
preferred replicas, and commit timestamps still respect causality
(Proposition 1: the HLC/2PC commit path is untouched).
"""

from __future__ import annotations

from ..core.client import PaRiSClient
from .engine import ComponentSet, ProtocolServer
from .reads import ReadProtocol
from .registry import ProtocolSpec, register


class EventualReadProtocol(ReadProtocol):
    """Fresh clock snapshots, served immediately from installed state."""

    __slots__ = ()

    def assign_snapshot(self, client_snapshot: int) -> int:
        """The freshest of the client's floor and the coordinator clock."""
        return max(client_snapshot, self.server.hlc.now())

    def observe_snapshot(self, snapshot: int) -> None:
        """Clock snapshots are not stable times: never adopt them into the UST."""

    def visibility_threshold(self) -> int:
        """An update is readable here the moment it is installed locally."""
        return self.server.local_stable_time

    def on_stable_advance(self) -> None:
        """No parked reads to wake; just settle pending visibility probes."""
        self.drain_visibility_probes()


class EventualServer(ProtocolServer):
    """A partition server serving maximally fresh, wait-free reads."""

    __slots__ = ()

    components = ComponentSet(reads=EventualReadProtocol)


class EventualClient(PaRiSClient):
    """Client for eventual: the write cache is never pruned.

    The cache prune of Algorithm 1 is justified by snapshot *stability*:
    once the stable snapshot covers a write, every server-side read returns
    it.  Eventual snapshots are clock readings — they can exceed a write's
    commit timestamp long before the write is installed at the replica a
    read lands on — so pruning would break read-your-writes.  The cache
    keeps one (newest) version per key written by this session, so its
    footprint is bounded by the session's key set.
    """

    def _snapshot_floor(self) -> int:
        return max(self.last_snapshot, self.highest_write_ts)

    def _prune_cache(self) -> None:
        """Keep every cached own-write: clock snapshots never cover them."""


EVENTUAL = register(
    ProtocolSpec(
        name="eventual",
        description="No causal wait: fresh snapshots, wait-free freshest reads",
        server_cls=EventualServer,
        client_cls=EventualClient,
        snapshot="clock",
        visibility="installed",
        blocking_reads=False,
        consistency="session",
    )
)
