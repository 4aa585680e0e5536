"""Per-server metric containers shared by PaRiS and the BPR baseline."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..sim.stats import LatencyRecorder


@dataclass
class ServerMetrics:
    """Counters and recorders maintained by one partition server.

    ``visibility`` records update-visibility latency (Figure 4): the time
    between an update's commit decision and the moment it becomes readable at
    this server — UST-visible for PaRiS, applied-locally for BPR.

    ``blocking`` records how long read slices waited before being served
    (always zero in PaRiS; Section V-B reports it for BPR).
    """

    visibility: LatencyRecorder = field(default_factory=LatencyRecorder)
    blocking: LatencyRecorder = field(default_factory=LatencyRecorder)
    transactions_committed: int = 0
    read_slices_served: int = 0
    reads_parked: int = 0
    heartbeats_sent: int = 0
    replicate_batches_sent: int = 0
    ust_advances: int = 0
    versions_collected: int = 0
    contexts_expired: int = 0
