"""The layered protocol engine: a slim server composing four components.

:class:`ProtocolServer` is the partition server ``p_n^m`` of the paper,
rebuilt as a thin shell over four components with narrow interfaces:

* :class:`~repro.protocols.coordinator.TxCoordinator` — start/prepare/commit
  2PC (Algorithms 2 and 3, write path);
* :class:`~repro.protocols.reads.ReadProtocol` — snapshot assignment,
  visibility threshold, and (for blocking variants) read parking — the seam
  where protocol variants differ;
* :class:`~repro.protocols.replication.ReplicationPipeline` — the Delta_R
  apply/replicate loop, batches, and peer version clocks (Algorithm 4);
* :class:`~repro.protocols.stabilization.StabilizationService` — UST tree
  aggregation/broadcast and heartbeat-driven stabilization (Section IV-B).

Shared protocol state — the clock pair, the multiversion store, the version
vector, the UST and GC bound, metrics — lives on the server and is read and
advanced by the components.  A protocol variant is a
:class:`ComponentSet` naming the four component classes; concrete server
classes (``PaRiSServer``, ``BPRServer``, ...) bind one set each and add
nothing else.

Hot-path design: the message-dispatch path stays flat.  At construction the
server collects every component's handler table into the
``Node._handler_cache`` bound-method dispatch dict, so an inbound message
dispatches straight to the owning component's bound method — one dict hit,
zero per-message delegation hops, exactly as the pre-split monolith
dispatched to its own methods.  Server and components are ``__slots__``
classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple, Type

from ..clocks.hlc import HybridLogicalClock
from ..clocks.physical import PhysicalClock
from ..cluster.membership import Membership
from ..cluster.topology import ClusterSpec, server_address
from ..config import SimulationConfig
from ..core.messages import (
    CommitReq,
    OneShotReadReq,
    PrepareReq,
    ReadReq,
    ReadResp,
    ReadSliceReq,
    ReadSliceResp,
    ReplicateMsg,
)
from ..core.metrics import ServerMetrics
from ..sim.cpu import Cpu
from ..sim.network import Network, Node
from ..sim.rng import RngRegistry
from ..sim.trace import GLOBAL_TRACER, Tracer
from ..storage.mvstore import MultiVersionStore
from .coordinator import TxCoordinator
from .reads import ReadProtocol
from .replication import ReplicationPipeline
from .stabilization import StabilizationService


def _count_keys(payload: Any) -> int:
    return len(payload.keys)


def _count_versions(payload: Any) -> int:
    return len(payload.versions)


def _count_writes(payload: Any) -> int:
    return len(payload.writes)


def _count_replicated_writes(payload: ReplicateMsg) -> int:
    return sum(len(group.writes) for group in payload.groups)


#: What a payload costs beyond ``ServiceModel.base_cost``: the message types
#: of one family, what to count on a message, and the ``ServiceModel`` rate
#: charged per counted item.  Every other payload (heartbeats, gossip, 2PC
#: acknowledgements) costs the base alone.
_COST_FAMILIES: Tuple[Tuple[Tuple[type, ...], Callable[[Any], int], str], ...] = (
    ((ReadSliceReq, ReadReq, OneShotReadReq), _count_keys, "per_key_read"),
    ((ReadSliceResp, ReadResp), _count_versions, "per_key_read"),
    ((PrepareReq, CommitReq), _count_writes, "per_key_write"),
    ((ReplicateMsg,), _count_replicated_writes, "per_key_write"),
)


@dataclass(frozen=True)
class ComponentSet:
    """The four component classes composed into one protocol variant.

    ``stabilization`` may be ``None``: a variant with no stabilization
    plane at all (COPS-style explicit dependency checking) composes only
    three components, and the engine skips the plane's timers, handlers
    and crash hooks entirely.
    """

    coordinator: Type[TxCoordinator] = TxCoordinator
    reads: Type[ReadProtocol] = ReadProtocol
    replication: Type[ReplicationPipeline] = ReplicationPipeline
    stabilization: Optional[Type[StabilizationService]] = StabilizationService


class ProtocolServer(Node):
    """One partition replica: shared state + four composed components."""

    __slots__ = (
        "spec",
        "config",
        "partition",
        "membership",
        "replica_index",
        "uid",
        "clock",
        "hlc",
        "store",
        "metrics",
        "vv",
        "ust",
        "oldest_global",
        "coordinator",
        "reads",
        "replication",
        "stabilization",
        "timer_rng",
        "_cancel_timers",
        "tracer",
        "_cost_rules",
    )

    #: The component classes this server composes; protocol variants override.
    components: ComponentSet = ComponentSet()

    def __init__(
        self,
        network: Network,
        spec: ClusterSpec,
        config: SimulationConfig,
        dc_id: int,
        partition: int,
        rngs: RngRegistry,
        membership: Optional[Membership] = None,
    ) -> None:
        address = server_address(dc_id, partition)
        super().__init__(network, address, dc_id, cpu=Cpu(network.sim, config.service.cores))
        self.spec = spec
        self.config = config
        self.partition = partition
        #: The cluster-wide dynamic placement (shared across all servers of a
        #: run; a private static copy when constructed standalone in tests).
        self.membership = membership if membership is not None else Membership(spec)
        replica_dcs = self.membership.replica_dcs(partition)
        if dc_id not in replica_dcs:
            raise ValueError(f"DC {dc_id} does not replicate partition {partition}")
        self.replica_index = replica_dcs.index(dc_id)
        #: Unique integer id of this server, embedded in transaction ids.
        self.uid = dc_id * spec.n_partitions + partition

        clock_rng = rngs.stream(f"clock.{address}")
        self.clock = PhysicalClock.with_skew(
            network.sim,
            clock_rng,
            max_offset=config.clocks.max_offset,
            max_drift=config.clocks.max_drift,
        )
        if config.clocks.mode == "logical":
            from ..clocks.logical import LogicalClock

            self.hlc = LogicalClock(self.clock)
        else:
            self.hlc = HybridLogicalClock(self.clock)
        self.store = MultiVersionStore()
        self.metrics = ServerMetrics()

        #: Version vector over this partition's replicas (VV_n^m), keyed by
        #: DC id so entries survive membership changes (join order = replica
        #: order, so iteration order matches the old index order exactly).
        self.vv: Dict[int, int] = {dc: 0 for dc in replica_dcs}
        #: Universal stable time known to this server (ust_n^m).
        self.ust = 0
        #: Global GC bound (S_old) received from the stabilization plane.
        self.oldest_global = 0

        self.timer_rng = rngs.stream(f"timer.{address}")
        self._cancel_timers: List[Callable[[], None]] = []
        #: Structured event sink (disabled by default; see repro.sim.trace).
        self.tracer: Tracer = GLOBAL_TRACER
        #: Payload type -> ``(count, rate)`` of its cost family; a type not
        #: in the table costs the base alone.
        service = config.service
        self._cost_rules: Dict[type, Tuple[Callable[[Any], int], float]] = {
            message_type: (count, getattr(service, rate))
            for family, count, rate in _COST_FAMILIES
            for message_type in family
        }

        # Compose the protocol from its component set, then collect every
        # component's handler table into the flat bound-method dispatch dict.
        kit = self.components
        self.coordinator = kit.coordinator(self)
        self.reads = kit.reads(self, rngs.stream(f"probe.{address}"))
        self.replication = kit.replication(self)
        self.stabilization = (
            kit.stabilization(self) if kit.stabilization is not None else None
        )
        cache = self._handler_cache
        cache.update(self.coordinator.dispatch())
        cache.update(self.reads.dispatch())
        cache.update(self.replication.dispatch())
        if self.stabilization is not None:
            cache.update(self.stabilization.dispatch())

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Arm the periodic protocol timers (phase-staggered per server)."""
        protocol = self.config.protocol
        sim = self.sim
        cancels = self._cancel_timers
        cancels.append(
            sim.every(
                protocol.replication_interval,
                self.replication.tick,
                phase=self.timer_rng.uniform(0, protocol.replication_interval),
            )
        )
        if self.stabilization is not None:
            self.stabilization.start_timers(cancels)
        cancels.append(sim.every(protocol.gc_interval, self._gc_tick))
        cancels.append(
            sim.every(protocol.tx_context_timeout / 2, self.coordinator.expire_contexts)
        )

    def stop(self) -> None:
        """Cancel all periodic timers (server crash / teardown)."""
        for cancel in self._cancel_timers:
            cancel()
        self._cancel_timers.clear()

    def crash(self) -> None:
        """Fail-stop this replica: timers stop, volatile state is dropped.

        What survives is exactly the durable state of Section III-C: the
        multiversion store, the prepared/committed transaction logs (2PC
        forces them to disk before acknowledging), and this replica's own
        advertised version-clock watermark (persisted with the log it
        covers).  What is lost is soft state: coordinator transaction
        contexts (their clients fall back to the current UST snapshot on the
        next request), stabilization-tree child reports, remote-DC GST
        reports, and pending visibility probes.  Inbound traffic queues
        while down — TCP peers retransmit — so nothing is lost in flight.
        """
        self.stop()
        self.pause_delivery()
        self.coordinator.on_crash()
        if self.stabilization is not None:
            self.stabilization.on_crash()
        self.reads.on_crash()

    def recover(self) -> None:
        """Restart from durable state (the mvstore + logs) and rejoin.

        Peer entries of the version vector are volatile, so they restart at
        zero and are re-learned from the replayed backlog and the next
        heartbeats — within about one replication interval.  Until then this
        server's ``min(VV)`` is conservative, which can only *stall* the UST
        (it is adopted monotonically everywhere), never regress it.
        """
        own_watermark = self.vv.get(self.dc_id, 0)
        self.vv = {dc: 0 for dc in self.replica_dcs}
        self.vv[self.dc_id] = own_watermark
        self.resume_delivery()
        self.start()

    def preload(self, key: str, value: Any) -> None:
        """Install a timestamp-zero base version of ``key``."""
        self.store.preload(key, value)

    # ------------------------------------------------------------------
    # Service-cost model
    # ------------------------------------------------------------------
    def service_cost(self, payload: Any) -> float:
        """CPU seconds charged for ``payload`` (see :class:`ServiceModel`).

        One dict hit per message: most traffic (heartbeats, gossip) belongs
        to no cost family and is charged the base cost straight away.
        """
        rule = self._cost_rules.get(type(payload))
        if rule is None:
            return self.config.service.base_cost
        count, rate = rule
        return self.config.service.base_cost + count(payload) * rate

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def _gc_tick(self) -> None:
        if self.oldest_global > 0:
            removed = self.store.collect(self.oldest_global)
            self.metrics.versions_collected += removed

    # ------------------------------------------------------------------
    # Introspection helpers (tests, harness)
    # ------------------------------------------------------------------
    @property
    def replica_dcs(self) -> Tuple[int, ...]:
        """DCs currently replicating this partition (membership-driven)."""
        return self.membership.replica_dcs(self.partition)

    @property
    def is_root(self) -> bool:
        """Whether this server is its DC's stabilization-tree root."""
        if self.stabilization is None:
            return False
        return self.stabilization.is_root

    @property
    def local_stable_time(self) -> int:
        """min(VV): everything at or below this is installed locally."""
        return min(self.vv.values())

    @property
    def prepared_count(self) -> int:
        """Number of transactions in the prepared queue."""
        return len(self.coordinator.prepared)

    @property
    def committed_backlog(self) -> int:
        """Number of committed-but-unapplied transactions."""
        return len(self.replication.committed)

    @property
    def parked_reads(self) -> int:
        """Number of read slices currently blocked (0 unless reads block)."""
        return self.reads.parked_count
