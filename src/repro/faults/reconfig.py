"""Membership change as a fault event: joins, leaves, and DC churn.

The :class:`ReconfigManager` executes the fault plane's membership actions
(``add_replica`` / ``remove_replica`` / ``add_dc`` / ``remove_dc``) against
a live cluster.  It owns the deterministic migration choreography that keeps
the five TCC invariants intact *through* the transition:

Join (``add_replica``)
    1. The shared :class:`~repro.cluster.membership.Membership` gains the
       replica, so every routing decision (client preferred-DC, replication
       fan-out, 2PC cohorts) sees it immediately.
    2. A donor replica is chosen deterministically (the first live incumbent
       in replica order) and its *entire* version-chain state is migrated to
       the joiner idempotently (:meth:`MultiVersionStore.ingest` dedups on
       the version order key, which makes rejoin-after-leave safe).
    3. Clock safety: the joiner's HLC is raised above the donor's stable
       watermark ``W``, so every transaction the joiner will ever commit has
       ``ct > W``; incumbents eagerly seed a version-clock entry for the
       joiner at ``W`` (:meth:`ReplicationPipeline.ensure_peer_entry`).
       Together these close the window in which an incumbent's ``min(VV)``
       — computed without the joiner — could overshoot state the joiner has
       not installed.  The joiner's own version vector is seeded from the
       donor's, which is truthful by Proposition 2 because the joiner now
       holds everything the donor had applied.
    4. Every replication pipeline re-derives its peer addresses and every
       live stabilization plane rebuilds its tree wiring
       (:meth:`StabilizationService.rebuild` — conservative: stalls are
       possible, overshoot is not).

Leave (``remove_replica``)
    1. The membership drops the replica; clients whose coordinator it was
       re-route to another partition their DC still hosts.
    2. The leaver keeps serving for ``reconfig.drain_delay`` seconds so
       in-flight transactions finish, then stops its timers, ships one final
       replication flush, and broadcasts a :class:`RetireMsg` FIFO-behind
       the flush — receivers drop its version-clock entry only after
       applying everything it ever shipped.
    3. If the replica was re-added during the drain window (back-to-back
       leave/join), the scheduled teardown detects the new incarnation via
       the membership and does nothing.

``remove_dc`` halts the DC's client sessions and retires every replica it
hosts; ``add_dc`` re-activates a previously removed DC, rejoins its spec
placement partition by partition, and restarts its halted sessions.

Negative-test hook: with ``config.reconfig.skip_catchup`` set, a join
migrates only each key's *oldest* surviving version and still seeds the
version clocks as if it had caught up — the joiner then serves stale state
under snapshots that claim freshness, which is exactly the TCC fracture the
consistency checkers must detect (and tests assert they do).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from .plan import FaultEvent

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..bench.harness import Cluster
    from ..protocols.engine import ProtocolServer


class ReconfigManager:
    """Executes membership-change fault events against one live cluster."""

    def __init__(self, cluster: "Cluster") -> None:
        self.cluster = cluster
        #: Replicas retired and torn down (reused if the same replica rejoins).
        self._retired: set = set()

    # ------------------------------------------------------------------
    # Event entry points (called by the FaultInjector hooks)
    # ------------------------------------------------------------------
    def add_replica(self, event: FaultEvent) -> None:
        """Join one replica: membership, migration, clocks, tree rebuild."""
        self._join(event.dc, event.partition)
        self._rebuild_all()

    def remove_replica(self, event: FaultEvent) -> None:
        """Retire one replica: re-route, rebuild, drain, then tear down."""
        self._leave(event.dc, event.partition)
        self._rebuild_all()

    def add_dc(self, event: FaultEvent) -> None:
        """Re-activate a removed DC: rejoin its spec placement, restart load."""
        cluster = self.cluster
        cluster.membership.activate_dc(event.dc)
        for partition in cluster.spec.dc_partitions(event.dc):
            self._join(event.dc, partition)
        self._rebuild_all()
        for driver in cluster.drivers:
            if driver.client.dc_id == event.dc and driver.halted:
                driver.start()

    def remove_dc(self, event: FaultEvent) -> None:
        """Retire a whole DC: halt its sessions, retire every replica."""
        cluster = self.cluster
        for driver in cluster.drivers:
            if driver.client.dc_id == event.dc:
                driver.halt()
        for partition in cluster.membership.dc_partitions(event.dc):
            self._leave(event.dc, partition)
        cluster.membership.deactivate_dc(event.dc)
        self._rebuild_all()

    # ------------------------------------------------------------------
    # Join choreography
    # ------------------------------------------------------------------
    def _join(self, dc_id: int, partition: int) -> None:
        cluster = self.cluster
        membership = cluster.membership
        membership.add_replica(dc_id, partition)

        key = (dc_id, partition)
        joiner = cluster.servers.get(key)
        rejoining = joiner is not None
        if joiner is None:
            from ..protocols import get_protocol

            server_cls = get_protocol(cluster.protocol).server_cls
            joiner = server_cls(
                network=cluster.network,
                spec=cluster.spec,
                config=cluster.config,
                dc_id=dc_id,
                partition=partition,
                rngs=cluster.rngs,
                membership=membership,
            )
            cluster.servers[key] = joiner

        donor = self._pick_donor(dc_id, partition)
        watermark = donor.local_stable_time
        skip_catchup = cluster.config.reconfig.skip_catchup
        self._migrate(donor, joiner, skip_catchup=skip_catchup)
        if not skip_catchup:
            self._backfill(joiner)

        # Clock safety (see module docstring): joiner commits strictly above
        # the watermark incumbents are told to assume for it.
        joiner.hlc.observe(watermark)
        for peer_dc in membership.replica_dcs(partition):
            if peer_dc == dc_id:
                continue
            peer = cluster.servers.get((peer_dc, partition))
            if peer is not None:
                peer.replication.ensure_peer_entry(dc_id, watermark)

        if not rejoining:
            joiner.start()
        elif key in self._retired:
            # Traffic addressed to the retired incarnation is gone for good.
            joiner.discard_backlog()
            joiner.resume_delivery()
            joiner.start()
        # else: removed and re-added inside one drain window — the old
        # incarnation never stopped, so its timers and delivery carry on.
        self._retired.discard(key)

    def _pick_donor(self, dc_id: int, partition: int) -> "ProtocolServer":
        """First live incumbent in replica order (deterministic)."""
        cluster = self.cluster
        incumbents = [
            dc for dc in cluster.membership.replica_dcs(partition) if dc != dc_id
        ]
        for donor_dc in incumbents:
            server = cluster.servers.get((donor_dc, partition))
            if server is not None and not server.paused:
                return server
        # Every incumbent is crashed or retired; fall back to the first one
        # with any state at all rather than failing the join.
        for donor_dc in incumbents:
            server = cluster.servers.get((donor_dc, partition))
            if server is not None:
                return server
        raise RuntimeError(
            f"no donor replica available for partition {partition} "
            f"(joiner DC {dc_id})"
        )

    def _migrate(
        self, donor: "ProtocolServer", joiner: "ProtocolServer", skip_catchup: bool
    ) -> None:
        """Ship the donor's state to the joiner and seed its version vector.

        With ``skip_catchup`` (negative-test knob) only each key's oldest
        surviving version is shipped while the clocks are still seeded as if
        the joiner had caught up — serving stale data under fresh snapshots.
        """
        store = donor.store
        for key in store.keys():
            versions = store.versions_of(key)
            if skip_catchup:
                versions = versions[:1]
            for version in versions:
                joiner.store.ingest(key, version)
        members = self.cluster.membership.replica_dcs(joiner.partition)
        old_vv = joiner.vv
        joiner.vv = {
            dc: max(old_vv.get(dc, 0), donor.vv.get(dc, 0)) for dc in members
        }

    def _backfill(self, joiner: "ProtocolServer") -> None:
        """Catch the joiner up on writes the donor itself had not applied.

        The donor's snapshot covers each origin ``o`` only up to the donor's
        ``VV[o]`` — writes ``o`` flushed more recently are in flight to the
        *old* membership and will never be re-shipped.  Each incumbent origin
        therefore re-ships its own flushed log above the joiner's seeded
        watermark, directly and idempotently; combined with future ticks
        (which cover everything not yet flushed) the joiner holds every
        member origin's full prefix, so raising its VV entries to each
        origin's flushed point is truthful (Proposition 2).
        """
        cluster = self.cluster
        members = cluster.membership.replica_dcs(joiner.partition)
        for peer_dc in members:
            if peer_dc == joiner.dc_id:
                continue
            peer = cluster.servers.get((peer_dc, joiner.partition))
            if peer is None:
                continue
            floor = joiner.vv.get(peer_dc, 0)
            flushed = peer.vv.get(peer_dc, 0)
            if flushed <= floor:
                continue
            for key in peer.store.keys():
                for version in peer.store.versions_of(key):
                    if version.sr == peer_dc and floor < version.ut <= flushed:
                        joiner.store.ingest(key, version)
            joiner.vv[peer_dc] = flushed

    # ------------------------------------------------------------------
    # Leave choreography
    # ------------------------------------------------------------------
    def _leave(self, dc_id: int, partition: int) -> None:
        cluster = self.cluster
        membership = cluster.membership
        membership.remove_replica(dc_id, partition)
        self._reroute_clients(dc_id, partition)
        cluster.sim.call_after(
            cluster.config.reconfig.drain_delay, self._teardown, dc_id, partition
        )

    def _reroute_clients(self, dc_id: int, partition: int) -> None:
        """Re-coordinate sessions that used the departing replica."""
        cluster = self.cluster
        hosted = cluster.membership.dc_partitions(dc_id)
        for client in cluster.clients:
            if client.dc_id != dc_id or client.coordinator_partition != partition:
                continue
            if hosted:
                client.rebind_coordinator(hosted[partition % len(hosted)])
        if not hosted:
            # The DC hosts nothing local anymore; its sessions cannot
            # coordinate and stop issuing transactions.
            for driver in cluster.drivers:
                if driver.client.dc_id == dc_id:
                    driver.halt()

    def _teardown(self, dc_id: int, partition: int) -> None:
        """End of the drain window: final flush, clock retirement, shutdown."""
        cluster = self.cluster
        if cluster.membership.is_replicated_at(partition, dc_id):
            return  # re-added during the drain window; new incarnation lives on
        server = cluster.servers[(dc_id, partition)]
        server.stop()
        server.replication.announce_retirement()
        server.pause_delivery()
        server.discard_backlog()
        self._retired.add((dc_id, partition))

    # ------------------------------------------------------------------
    def _rebuild_all(self) -> None:
        """Rewire replication peers and every live stabilization plane.

        Every server's replication peer list follows the membership — a
        leaver's too, it keeps shipping until its teardown; stabilization
        planes are rebuilt only where the replica is still a member.
        """
        cluster = self.cluster
        membership = cluster.membership
        for (dc_id, partition), server in cluster.servers.items():
            server.replication.rebuild()
            if server.stabilization is None:
                continue
            if not membership.is_replicated_at(partition, dc_id):
                continue
            server.stabilization.rebuild()
