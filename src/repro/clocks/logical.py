"""Pure logical (Lamport) clocks — the strawman HLC replaces.

Section III-B motivates HLCs: "Like physical clocks, HLCs advance in the
absence of events and at approximately the same pace.  Hence, HLCs improve
the freshness of the snapshot determined by UST over a solution that uses
logical clocks, which can advance at very different rates on different
partitions."

This module provides that solution-that-uses-logical-clocks so the claim can
be measured (``repro figure ablation_clocks``): a counter that
advances only on events, exposed through the same interface as
:class:`~repro.clocks.hlc.HybridLogicalClock` so servers can swap it in via
``ClockConfig.mode = "logical"``.
"""

from __future__ import annotations


class LogicalClock:
    """A Lamport clock with the HLC interface.

    Timestamps are plain event counters: they never advance with wall-clock
    time, so a quiet partition freezes the UST until traffic bumps it.
    """

    #: Version-clock bounds must not mix in physical readings (see
    #: ReplicationPipeline.version_clock_bound).
    uses_physical_time = False

    def __init__(self, _physical=None) -> None:
        self._counter = 0

    @property
    def current(self) -> int:
        """The latest issued/merged timestamp."""
        return self._counter

    def now(self) -> int:
        """Timestamp a local event (strictly monotonic)."""
        self._counter += 1
        return self._counter

    def update(self, incoming: int) -> int:
        """Merge a remote timestamp; result exceeds both inputs."""
        self._counter = max(self._counter, incoming) + 1
        return self._counter

    def observe(self, incoming: int) -> None:
        """Advance past ``incoming`` without issuing a new timestamp."""
        if incoming > self._counter:
            self._counter = incoming
