"""ReplicationPipeline: the apply/replicate loop and peer clocks (Algorithm 4).

One of the four engine components composed by
:class:`~repro.protocols.engine.ProtocolServer`.  Every ``Delta_R`` the
pipeline computes the version clock bound ``ub``, applies committed
transactions with ``ct <= ub`` to the multiversion store in commit-ts order,
ships them to peer replicas of the partition (heartbeats when idle), and
advances the server's own version-vector entry.  Inbound replicate batches
and heartbeats advance the peer entries.

Fidelity notes
--------------
* Algorithm 4 computes ``ub = min(prepared pt) - 1`` and applies transactions
  with ``ct < ub`` while advertising ``VV[r] = ub``.  Taken literally this
  leaves a committed transaction with ``ct == ub`` unapplied while the version
  clock claims it is covered.  We apply ``ct <= ub``, which restores the
  invariant of Proposition 2 (tests assert it).
* Replicate batches carry the sender's new version clock as a watermark, so a
  peer's VV entry advances to ``ub`` rather than to the last shipped commit
  timestamp.  By FIFO ordering this is exactly the guarantee heartbeats give
  during idle periods, applied uniformly.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Tuple

from ..clocks.hlc import pack
from ..cluster.topology import server_address
from ..core.messages import HeartbeatMsg, ReplicatedTx, ReplicateMsg, RetireMsg
from ..storage.version import TransactionId

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from .engine import ProtocolServer


class ReplicationPipeline:
    """The Delta_R apply/replicate/heartbeat loop of one partition replica."""

    __slots__ = ("server", "committed", "peer_addrs")

    def __init__(self, server: "ProtocolServer") -> None:
        self.server = server
        #: Min-heap of (commit_ts, tid, writes, decided_at, deps) awaiting apply.
        self.committed: List[Tuple[int, TransactionId, Tuple, float, Any]] = []
        self.rebuild()

    def rebuild(self) -> None:
        """(Re)derive the peer replicas' addresses from the membership.

        Called at construction and again after every membership change
        (:meth:`ReconfigManager._rebuild_all`), so a tick casts to a ready
        list instead of resolving each peer's address every ``Delta_R``.  A
        replica that is leaving keeps its remaining peers until teardown:
        its final flush and :class:`RetireMsg` go to them.
        """
        server = self.server
        #: Addresses of the other replicas of this partition, in replica order.
        self.peer_addrs: List[str] = [
            server_address(peer_dc, server.partition)
            for peer_dc in server.replica_dcs
            if peer_dc != server.dc_id
        ]

    def dispatch(self) -> Dict[type, Callable]:
        """Message types this component handles, as a bound-method table."""
        return {
            ReplicateMsg: self.handle_replicate,
            HeartbeatMsg: self.handle_heartbeat,
            RetireMsg: self.handle_retire,
        }

    # ------------------------------------------------------------------
    # The Delta_R tick
    # ------------------------------------------------------------------
    def tick(self) -> None:
        """Apply + replicate (or heartbeat), then advance the version clock."""
        server = self.server
        upper_bound = self.version_clock_bound()
        groups = self.pop_committed_up_to(upper_bound)
        if groups:
            batch: List[ReplicatedTx] = []
            for commit_ts, tid, writes, decided_at, deps in groups:
                self.apply_writes(writes, commit_ts, tid, server.dc_id, decided_at, deps)
                batch.append(
                    ReplicatedTx(tid, commit_ts, writes, server.dc_id, decided_at, deps)
                )
            message = ReplicateMsg(tuple(batch), upper_bound)
            for peer in self.peer_addrs:
                server.cast(peer, message)
            server.metrics.replicate_batches_sent += 1
            if server.tracer.enabled:
                server.tracer.emit(
                    server.sim.now, "replicate", server.address,
                    groups=len(batch), watermark=upper_bound,
                )
        else:
            heartbeat = HeartbeatMsg(upper_bound)
            for peer in self.peer_addrs:
                server.cast(peer, heartbeat)
            server.metrics.heartbeats_sent += 1
        self.advance_version_clock(upper_bound)

    def version_clock_bound(self) -> int:
        """The ``ub`` of Algorithm 4 lines 6-7.

        With HLCs the idle bound tracks the physical clock, so the version
        clock (and hence the UST) advances in the absence of updates.  With
        pure logical clocks it cannot — that is exactly the freshness defect
        Section III-B attributes to logical clocks, measured by the clock
        ablation bench.
        """
        server = self.server
        floor = server.coordinator.prepared_floor()
        if floor is not None:
            return floor - 1
        if not server.hlc.uses_physical_time:
            return server.hlc.current
        wall = pack(server.clock.now_micros(), 0)
        return max(wall, server.hlc.current)

    def pop_committed_up_to(
        self, upper_bound: int
    ) -> List[Tuple[int, TransactionId, Tuple, float, Any]]:
        """Drain the committed queue up to ``upper_bound``, in ct order."""
        groups = []
        committed = self.committed
        while committed and committed[0][0] <= upper_bound:
            groups.append(heapq.heappop(committed))
        return groups

    def apply_writes(
        self,
        writes: Tuple[Tuple[str, Any], ...],
        commit_ts: int,
        tid: TransactionId,
        source_dc: int,
        decided_at: float,
        deps: Any = None,
        dedup: bool = False,
    ) -> None:
        """Install one transaction's writes into the multiversion store."""
        server = self.server
        for key, value in writes:
            server.store.apply(key, value, commit_ts, tid, source_dc, deps, dedup=dedup)
        if server.tracer.enabled:
            server.tracer.emit(
                server.sim.now, "apply", server.address,
                tid=tid, commit_ts=commit_ts, keys=len(writes), source_dc=source_dc,
            )
        server.reads.maybe_probe_visibility(commit_ts, decided_at)

    def advance_version_clock(self, value: int) -> None:
        """Advance this replica's own VV entry (never backwards)."""
        server = self.server
        own = server.vv.get(server.dc_id, 0)
        if value < own:
            raise AssertionError(
                f"version clock would regress at {server.address}: "
                f"{own} -> {value}"
            )
        server.vv[server.dc_id] = value
        server.reads.on_stable_advance()

    # ------------------------------------------------------------------
    # Replication receipt
    # ------------------------------------------------------------------
    def handle_replicate(self, src: str, msg: ReplicateMsg, reply: Callable) -> None:
        """Apply a peer replica's batch and adopt its watermark."""
        for group in msg.groups:
            # dedup: a batch in flight across a membership change can overlap
            # the join-time snapshot transfer and backfill (at-least-once).
            self.apply_writes(
                group.writes,
                group.commit_ts,
                group.tid,
                group.source_dc,
                group.decided_at,
                group.deps,
                dedup=True,
            )
        self.advance_peer_clock(src, msg.watermark)

    def handle_heartbeat(self, src: str, msg: HeartbeatMsg, reply: Callable) -> None:
        """Advance a peer's version-vector entry during idle periods."""
        self.advance_peer_clock(src, msg.ts)

    def handle_retire(self, src: str, msg: RetireMsg, reply: Callable) -> None:
        """Drop a departed replica's VV entry (membership change).

        The message is FIFO-last behind the leaver's final replication
        flush, so everything the leaver ever shipped is already applied
        here.  Guard against a stale retirement overtaken by a rejoin: if
        the membership says the DC is a replica again, the entry belongs to
        the *new* incarnation and must stay.
        """
        server = self.server
        if server.membership.is_replicated_at(server.partition, msg.dc_id):
            return
        if server.vv.pop(msg.dc_id, None) is not None:
            # min(VV) can only grow when a frozen entry leaves the min.
            server.reads.on_stable_advance()

    def ensure_peer_entry(self, peer_dc: int, value: int) -> None:
        """Seed a joining peer's VV entry eagerly (membership change).

        Called by the reconfiguration manager at the join event so that
        ``min(VV)`` is gated on the joiner immediately — waiting for its
        first heartbeat would open a window in which this replica's clock
        could outrun the joiner's applied state.  Creating the entry can
        only lower ``min(VV)``, so no stable-advance is signalled; an
        existing entry is never regressed.
        """
        server = self.server
        current = server.vv.get(peer_dc)
        if current is None:
            server.vv[peer_dc] = value
        elif value > current:
            server.vv[peer_dc] = value
            server.reads.on_stable_advance()

    def announce_retirement(self) -> None:
        """Flush, then tell every remaining peer to drop this replica's entry.

        Run after the membership drops this replica: one last Delta_R tick
        ships everything still queued, then the :class:`RetireMsg` rides the
        same FIFO channels, so receivers handle it only after everything
        this replica ever shipped has been applied.
        """
        server = self.server
        self.tick()
        message = RetireMsg(server.dc_id)
        for peer in self.peer_addrs:
            server.cast(peer, message)

    def advance_peer_clock(self, src: str, value: int) -> None:
        """Adopt a peer's advertised watermark into its VV entry.

        The entry is created lazily when absent — a replica that joined
        after this server was built announces itself with its first batch
        or heartbeat — but only for DCs the membership currently lists, so
        late traffic from a retired replica cannot resurrect its entry.
        """
        server = self.server
        peer_dc = server.network.dc_of(src)
        current = server.vv.get(peer_dc)
        if current is None:
            if not server.membership.is_replicated_at(server.partition, peer_dc):
                return
            server.vv[peer_dc] = value
            server.reads.on_stable_advance()
            return
        if value > current:
            server.vv[peer_dc] = value
            server.reads.on_stable_advance()
