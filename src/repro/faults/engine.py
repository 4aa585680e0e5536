"""The fault injector: applies a :class:`FaultPlan` to a live cluster.

The injector schedules one kernel callback per plan event via
``Simulator.call_at``; when the simulation clock reaches an event's time the
corresponding hook fires:

* ``crash`` / ``recover``  → :meth:`repro.protocols.engine.ProtocolServer.crash` /
  ``.recover()`` (drop volatile state; replay durable state);
* ``partition`` / ``heal`` → :meth:`repro.sim.network.Network.partition_dcs`
  / ``.heal()`` (traffic is held and released in FIFO order, as TCP would);
* ``degrade`` / ``restore`` → :meth:`repro.sim.network.Network.degrade_link`
  / ``.restore_link()`` (extra latency, retransmission-causing loss);
* ``skew`` → :meth:`repro.clocks.physical.PhysicalClock.nudge` (step a
  server's clock offset);
* ``add_replica`` / ``remove_replica`` / ``add_dc`` / ``remove_dc`` (the
  ``membership`` scope of :data:`~repro.faults.plan.ACTIONS`) → the
  :class:`repro.faults.reconfig.ReconfigManager` method of the same name
  (membership change with deterministic data migration and
  stabilization-tree rebuild).

Determinism: events are installed in plan order before (or during) the run,
so the kernel's sequence-number tie-break fires same-time events in plan
order, ahead of protocol messages scheduled later for the same instant.

Sharded runs (:mod:`repro.sim.sharded`) install the *full* plan in every
shard — validation and link-level actions must see the whole deployment —
but ``server``-scoped actions (``crash`` / ``recover`` / ``skew``) only touch
the shard that owns the target DC; the others skip them at apply time.
Link actions (partition/heal/degrade/restore) apply symmetrically in every
shard because held and degraded traffic lives at the *sender*.  Membership
actions are rejected before any shard spawns (they rewire live servers
across the DC cut), so they never reach a shard-local injector.
Every applied event is recorded in :attr:`FaultInjector.log` and — when
tracing is on — emitted as a ``fault`` trace record, which is how the
determinism tests compare whole trajectories.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Tuple

from .plan import ACTIONS, FaultEvent, FaultPlan

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..bench.harness import Cluster
    from .reconfig import ReconfigManager


class FaultInjectionError(RuntimeError):
    """Raised when a plan cannot be applied to the given cluster."""


class FaultInjector:
    """Applies fault events to one cluster, on schedule or on demand."""

    def __init__(self, cluster: "Cluster") -> None:
        self._cluster = cluster
        self.plan: FaultPlan = FaultPlan()
        #: ``(applied_at, event)`` pairs, in application order.
        self.log: List[Tuple[float, FaultEvent]] = []
        self._reconfig = None

    @property
    def reconfig(self) -> "ReconfigManager":
        """The membership-change executor (created on first use)."""
        if self._reconfig is None:
            from .reconfig import ReconfigManager

            self._reconfig = ReconfigManager(self._cluster)
        return self._reconfig

    @property
    def events_applied(self) -> int:
        """Number of fault events applied so far."""
        return len(self.log)

    def install(self, plan: FaultPlan) -> None:
        """Validate ``plan`` against the cluster and schedule every event."""
        plan.validate_for(self._cluster.spec)
        sim = self._cluster.sim
        stale = [event for event in plan.events if event.at < sim.now]
        if stale:
            raise FaultInjectionError(
                f"plan schedules {len(stale)} event(s) before current sim time "
                f"{sim.now} (first: t={stale[0].at} {stale[0].action})"
            )
        for event in plan.events:
            sim.call_at(event.at, self.apply, event)
        self.plan = plan

    def apply(self, event: FaultEvent) -> None:
        """Apply one event right now (also usable imperatively from tests)."""
        scope = ACTIONS[event.action].scope
        local_dcs = self._cluster.local_dcs
        if scope == "server" and local_dcs is not None and event.dc not in local_dcs:
            return  # server-scoped action owned by another shard
        if scope == "membership":
            getattr(self.reconfig, event.action)(event)
        else:
            getattr(self, f"_apply_{event.action}")(event)
        self.log.append((self._cluster.sim.now, event))
        tracer = self._cluster.network.tracer
        if tracer.enabled:
            # 'at' would collide with emit()'s positional timestamp.
            details = {
                ("scheduled_at" if key == "at" else key): value
                for key, value in event.to_dict().items()
            }
            tracer.emit(self._cluster.sim.now, "fault", "injector", **details)

    # ------------------------------------------------------------------
    # Server and link action hooks (membership actions go to ``reconfig``)
    # ------------------------------------------------------------------
    def _apply_crash(self, event: FaultEvent) -> None:
        self._cluster.server(event.dc, event.partition).crash()

    def _apply_recover(self, event: FaultEvent) -> None:
        self._cluster.server(event.dc, event.partition).recover()

    def _apply_partition(self, event: FaultEvent) -> None:
        network = self._cluster.network
        if event.dcs is not None:
            network.partition_dcs(*event.dcs)
        else:
            network.isolate_dc(event.dc)

    def _apply_heal(self, event: FaultEvent) -> None:
        self._cluster.network.heal(*(event.dcs or ()))

    def _apply_degrade(self, event: FaultEvent) -> None:
        self._cluster.network.degrade_link(
            *event.dcs, extra_latency=event.extra_latency, loss=event.loss
        )

    def _apply_restore(self, event: FaultEvent) -> None:
        self._cluster.network.restore_link(*(event.dcs or ()))

    def _apply_skew(self, event: FaultEvent) -> None:
        self._cluster.server(event.dc, event.partition).clock.nudge(event.offset)
