"""GST-local: per-DC stable time snapshots, blocking on remote reads.

The design point PaRiS argues against (Section I / III-A): under *full*
replication, reading at the DC's own stable time (the GST) gives fresh,
non-blocking local reads — but under **partial** replication some reads
must be served by a *remote* DC whose installed state lags the origin DC's
GST, so exactly those reads must block.  This variant reproduces that
trade-off so the paper's argument is measurable:

* snapshots come from the origin DC's **GST** — ``min(VV)`` aggregated over
  the DC's partitions — which every server learns through a root-to-leaves
  broadcast piggybacked on the existing stabilization tree
  (:class:`GstLocalStabilization`);
* a read slice is served immediately when the serving partition has
  installed the snapshot (always true for same-DC reads: the GST is a
  minimum over exactly those partitions) and **parks** otherwise — i.e. on
  remote-partition reads, the blocking PaRiS eliminates;
* snapshots are fresher than the UST (one DC's minimum instead of all DCs')
  but staler than BPR's raw clock, so the variant sits between the two on
  the freshness/blocking trade-off curve.

The client is BPR's: commit timestamps can exceed the DC stable time, so
the snapshot floor must include ``hwt_c`` for read-your-writes.
"""

from __future__ import annotations

from typing import Callable, Dict

from ..core.messages import GstBroadcastMsg
from .bpr import BPRClient
from .engine import ComponentSet, ProtocolServer
from .reads import BlockingReadProtocol
from .registry import ProtocolSpec, register
from .stabilization import StabilizationService


class GstLocalStabilization(StabilizationService):
    """The UST plane plus a per-DC stable-time broadcast down the tree."""

    __slots__ = ("dc_stable",)

    def __init__(self, server) -> None:
        super().__init__(server)
        #: This DC's stable time as last learned from the tree root.
        self.dc_stable = 0

    def dispatch(self) -> Dict[type, Callable]:
        """The base stabilization messages plus the DC-GST broadcast."""
        table = super().dispatch()
        table[GstBroadcastMsg] = self.handle_gst_broadcast
        return table

    def tick(self) -> None:
        """Aggregate as usual; at the root, also publish the DC stable time."""
        super().tick()
        if self.parent_addr is None:
            stable_min, _ = self.dc_reports[self.server.dc_id]
            self.adopt_dc_stable(stable_min)

    def adopt_dc_stable(self, value: int) -> None:
        """Monotonically advance the DC stable time; forward on change."""
        if value > self.dc_stable:
            self.dc_stable = value
            self.server.reads.drain_visibility_probes()
            message = GstBroadcastMsg(value)
            for child in self.child_addrs:
                self.server.cast(child, message)

    def handle_gst_broadcast(self, src: str, msg: GstBroadcastMsg, reply: Callable) -> None:
        """Adopt the root's DC stable time and pass it down the tree."""
        self.adopt_dc_stable(msg.gst)

    def on_crash(self) -> None:
        """Also forget the learned DC stable time (re-learned on recovery)."""
        super().on_crash()
        self.dc_stable = 0


class GstLocalReadProtocol(BlockingReadProtocol):
    """DC-GST snapshots; remote-partition reads block until installed."""

    __slots__ = ()

    def assign_snapshot(self, client_snapshot: int) -> int:
        """The freshest of the client's floor and this DC's stable time."""
        return max(client_snapshot, self.server.stabilization.dc_stable)

    def observe_snapshot(self, snapshot: int) -> None:
        """DC stable times of *other* DCs are not stable here: never adopt
        them into the UST (which still runs underneath for GC)."""

    def visibility_threshold(self) -> int:
        """An update is readable here once the DC stable time covers it."""
        return self.server.stabilization.dc_stable


class GstLocalServer(ProtocolServer):
    """A partition server reading at its DC's stable time."""

    __slots__ = ()

    components = ComponentSet(
        reads=GstLocalReadProtocol, stabilization=GstLocalStabilization
    )


GST_LOCAL = register(
    ProtocolSpec(
        name="gst_local",
        description="Per-DC stable time: fresh local reads, remote reads block",
        server_cls=GstLocalServer,
        client_cls=BPRClient,
        snapshot="dc-gst",
        visibility="dc-gst",
        blocking_reads=True,
    )
)
