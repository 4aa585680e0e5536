"""StabilizationService: UST tree aggregation and broadcast (Section IV-B).

One of the four engine components composed by
:class:`~repro.protocols.engine.ProtocolServer`.  Every ``Delta_G`` each
server aggregates ``min(VV)`` (towards the GST) and the oldest active
snapshot (towards the GC bound S_old) up a fanout-k intra-DC tree; the tree
roots gossip per-DC results to one another and every ``Delta_U`` compute the
UST — the minimum over every DC — broadcasting it back down the tree.  The
UST and GC bound live on the server (shared protocol state); this component
owns the tree wiring and the aggregation/gossip state.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from ..cluster.topology import server_address
from ..core.messages import AggUpMsg, DcGstMsg, UstBroadcastMsg

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from .engine import ProtocolServer


class StabilizationService:
    """The GST/UST plane of one partition replica."""

    __slots__ = (
        "server",
        "tree",
        "parent_addr",
        "child_partitions",
        "child_addrs",
        "child_reports",
        "is_root",
        "dc_reports",
        "remote_root_addrs",
        "_ust_cancel",
    )

    def __init__(self, server: "ProtocolServer") -> None:
        self.server = server
        self.child_reports: Dict[int, AggUpMsg] = {}
        #: Latest GST/oldest pair per DC (root only; own entry included).
        self.dc_reports: Dict[int, Tuple[int, int]] = {}
        self._ust_cancel: Optional[Callable[[], None]] = None
        self._wire()

    def _wire(self) -> None:
        """(Re)derive the tree position and gossip targets from membership.

        Called at construction and again on every membership rebuild; with
        an untouched membership it reproduces the static spec wiring
        exactly.
        """
        server = self.server
        membership = server.membership
        fanout = server.config.protocol.tree_fanout
        self.tree = membership.dc_tree(server.dc_id, fanout)
        parent = self.tree.parent(server.partition)
        self.parent_addr = (
            server_address(server.dc_id, parent) if parent is not None else None
        )
        self.child_partitions = list(self.tree.children(server.partition))
        self.child_addrs = [server_address(server.dc_id, c) for c in self.child_partitions]
        self.is_root = self.tree.root == server.partition
        self.remote_root_addrs = [
            server_address(dc, membership.dc_tree(dc, fanout).root)
            for dc in sorted(membership.active_dcs)
            if dc != server.dc_id and membership.dc_partitions(dc)
        ]

    def dispatch(self) -> Dict[type, Callable]:
        """Message types this component handles, as a bound-method table."""
        return {
            AggUpMsg: self.handle_agg_up,
            DcGstMsg: self.handle_dc_gst,
            UstBroadcastMsg: self.handle_ust_broadcast,
        }

    # ------------------------------------------------------------------
    # The Delta_G tick: aggregate up the tree (roots gossip across DCs)
    # ------------------------------------------------------------------
    def tick(self) -> None:
        """Report this subtree's minima to the parent (root: gossip DCs)."""
        server = self.server
        stable_min, oldest = self.aggregate_subtree()
        if self.parent_addr is not None:
            server.cast(self.parent_addr, AggUpMsg(server.partition, stable_min, oldest))
            return
        # Root: record our DC and gossip to remote roots.
        self.dc_reports[server.dc_id] = (stable_min, oldest)
        message = DcGstMsg(server.dc_id, stable_min, oldest)
        for root in self.remote_root_addrs:
            server.cast(root, message)

    def aggregate_subtree(self) -> Tuple[int, int]:
        """min(VV) and oldest-active over this node's subtree."""
        server = self.server
        stable_min = min(server.vv.values())
        oldest = server.coordinator.oldest_active_snapshot()
        for child in self.child_partitions:
            report = self.child_reports.get(child)
            if report is None:
                # A child has not reported since this node (re)started —
                # speak for the subtree with the safe floor rather than
                # overshooting it (crash recovery drops child reports; an
                # overshoot here could advance the UST past installed state).
                return 0, 0
            stable_min = min(stable_min, report.stable_min)
            oldest = min(oldest, report.oldest_active)
        return stable_min, oldest

    def handle_agg_up(self, src: str, msg: AggUpMsg, reply: Callable) -> None:
        """Stabilization tree: cache a child subtree's report."""
        self.child_reports[msg.partition] = msg

    def handle_dc_gst(self, src: str, msg: DcGstMsg, reply: Callable) -> None:
        """Root gossip: record another DC's GST / oldest-active pair.

        Gossip from a DC the membership has retired is dropped: re-adding
        its entry would gate the UST on a DC that will never report again.
        """
        if not self.server.membership.is_active_dc(msg.dc_id):
            return
        previous = self.dc_reports.get(msg.dc_id)
        gst = msg.gst if previous is None else max(previous[0], msg.gst)
        self.dc_reports[msg.dc_id] = (gst, msg.oldest_active)

    # ------------------------------------------------------------------
    # The Delta_U tick (roots only): compute and broadcast the UST
    # ------------------------------------------------------------------
    def ust_tick(self) -> None:
        """Compute the UST from every DC's report and push it down the tree."""
        server = self.server
        if len(self.dc_reports) < server.membership.n_active_dcs:
            return  # not all active DCs have reported yet; UST stays at its floor
        ust = min(gst for gst, _ in self.dc_reports.values())
        oldest = min(oldest for _, oldest in self.dc_reports.values())
        self.adopt_ust(ust, oldest)
        self.broadcast_ust()

    def broadcast_ust(self) -> None:
        """Push the current UST and GC bound to the subtree children."""
        server = self.server
        message = UstBroadcastMsg(server.ust, server.oldest_global)
        for child in self.child_addrs:
            server.cast(child, message)

    def handle_ust_broadcast(self, src: str, msg: UstBroadcastMsg, reply: Callable) -> None:
        """Adopt the root's UST and pass it down the tree."""
        self.adopt_ust(msg.ust, msg.oldest_global)
        self.broadcast_ust()

    def adopt_ust(self, ust: int, oldest_global: Optional[int] = None) -> None:
        """Monotonically advance the UST (and the GC bound, if carried)."""
        server = self.server
        if ust > server.ust:
            server.ust = ust
            server.metrics.ust_advances += 1
            if server.tracer.enabled:
                server.tracer.emit(server.sim.now, "ust", server.address, ust=ust)
            server.reads.drain_visibility_probes()
        if oldest_global is not None and oldest_global > server.oldest_global:
            server.oldest_global = oldest_global

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start_timers(self, cancels: List[Callable[[], None]]) -> None:
        """Arm the Delta_G (and, at roots, Delta_U) periodic timers."""
        server = self.server
        protocol = server.config.protocol
        cancels.append(
            server.sim.every(
                protocol.gst_interval,
                self.tick,
                phase=server.timer_rng.uniform(0, protocol.gst_interval),
            )
        )
        if self.is_root:
            self._arm_ust_timer()
        cancels.append(self._disarm_ust_timer)

    def _arm_ust_timer(self) -> None:
        """Arm the root-only Delta_U timer (idempotent)."""
        if self._ust_cancel is not None:
            return
        server = self.server
        protocol = server.config.protocol
        self._ust_cancel = server.sim.every(
            protocol.ust_interval,
            self.ust_tick,
            phase=server.timer_rng.uniform(0, protocol.ust_interval),
        )

    def _disarm_ust_timer(self) -> None:
        """Cancel the root-only Delta_U timer (idempotent)."""
        if self._ust_cancel is not None:
            self._ust_cancel()
            self._ust_cancel = None

    def rebuild(self) -> None:
        """Rewire the plane after a membership change (conservative).

        The tree and gossip targets are re-derived from the membership;
        child subtree reports are dropped so this node speaks for its new
        subtree with the safe ``(0, 0)`` floor until fresh reports arrive
        (stale reports from the old wiring could *overshoot* the new
        subtree's state — a stall is safe, an overshoot is not).  DC-level
        gossip entries are *kept* for DCs still active: they are frozen
        lower bounds of applied state, so they can only stall the UST.
        Entries of retired DCs are pruned so the UST stops waiting on them.
        Roots may change: the Delta_U timer follows the root role.
        """
        server = self.server
        membership = server.membership
        if not membership.is_replicated_at(server.partition, server.dc_id):
            return  # this replica is leaving; the manager tears it down
        self._wire()
        self.child_reports.clear()
        for dc in [dc for dc in self.dc_reports if not membership.is_active_dc(dc)]:
            del self.dc_reports[dc]
        if self.is_root and not server.paused:
            self._arm_ust_timer()
        elif not self.is_root:
            self._disarm_ust_timer()

    def on_crash(self) -> None:
        """Drop volatile stabilization state (tree and gossip reports)."""
        self.child_reports.clear()
        self.dc_reports.clear()
