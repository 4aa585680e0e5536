"""Per-server metric containers shared by PaRiS and the BPR baseline."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List


@dataclass
class ServerMetrics:
    """Raw samples and counts recorded by one partition server.

    ``visibility`` holds update-visibility latencies (Figure 4): the time
    between an update's commit decision and the moment it becomes readable at
    this server — UST-visible for PaRiS, applied-locally for BPR.

    ``blocking`` holds how long each read slice waited before being served
    (PaRiS never waits; Section V-B reports it for BPR).

    Nothing here is reduced in place: :func:`repro.bench.harness.summarize_measures`
    turns the samples into means, percentiles and CDFs.
    """

    visibility: List[float] = field(default_factory=list)
    blocking: List[float] = field(default_factory=list)
    read_slices_served: int = 0
    reads_parked: int = 0
    heartbeats_sent: int = 0
    replicate_batches_sent: int = 0
    versions_collected: int = 0
    contexts_expired: int = 0
