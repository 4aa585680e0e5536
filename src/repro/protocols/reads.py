"""ReadProtocol: snapshot assignment, visibility threshold, and parking.

This component is the seam where PaRiS's competitors differ: every
registered protocol variant overrides *this* class (and only rarely any
other component).  It owns three policies:

* **snapshot assignment** — what timestamp a new transaction reads at
  (:meth:`ReadProtocol.assign_snapshot`), and whether snapshots carried by
  inbound requests are adopted into the UST
  (:meth:`ReadProtocol.observe_snapshot`);
* **read-slice service** — whether a cohort serves a slice immediately
  (PaRiS's non-blocking reads) or parks it until the snapshot is installed
  locally (:class:`BlockingReadProtocol`, the BPR/GST-local family);
* **update visibility** — when an applied update counts as readable here
  (:meth:`ReadProtocol.visibility_threshold`), which drives the Figure 4
  visibility probes.

The base class implements the PaRiS policies: snapshots come from the UST
(stable everywhere, so reads never block) and an update is visible once the
UST covers it.
"""

from __future__ import annotations

import heapq
import itertools
from typing import TYPE_CHECKING, Callable, Dict, List, Tuple

from ..core.messages import ReadSliceReq, ReadSliceResp
from ..storage.version import Version

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    import random

    from .engine import ProtocolServer


class ReadProtocol:
    """PaRiS read policy: UST snapshots, non-blocking slices (Algorithm 3)."""

    __slots__ = ("server", "pending_probes", "probe_rng")

    def __init__(self, server: "ProtocolServer", probe_rng: "random.Random") -> None:
        self.server = server
        #: Visibility probes: min-heap of (commit_ts, decided_at).
        self.pending_probes: List[Tuple[int, float]] = []
        self.probe_rng = probe_rng

    def dispatch(self) -> Dict[type, Callable]:
        """Message types this component handles, as a bound-method table."""
        return {ReadSliceReq: self.handle_read_slice}

    # ------------------------------------------------------------------
    # Snapshot policy
    # ------------------------------------------------------------------
    def assign_snapshot(self, client_snapshot: int) -> int:
        """PaRiS: adopt the client's stable snapshot into the UST, assign it."""
        server = self.server
        if client_snapshot > server.ust:
            server.stabilization.adopt_ust(client_snapshot)
        return server.ust

    def observe_snapshot(self, snapshot: int) -> None:
        """Alg. 3 line 2: adopt a fresher UST carried by a request."""
        server = self.server
        if snapshot > server.ust:
            server.stabilization.adopt_ust(snapshot)

    # ------------------------------------------------------------------
    # Read-slice service (cohort side)
    # ------------------------------------------------------------------
    def handle_read_slice(self, src: str, msg: ReadSliceReq, reply: Callable) -> None:
        """Algorithm 3, read slice: serve at the snapshot, never blocking."""
        self.observe_snapshot(msg.snapshot)
        self.serve_read_slice(msg, reply)

    def serve_read_slice(self, msg: ReadSliceReq, reply: Callable) -> None:
        """Answer one slice from the multiversion store (pure lookup)."""
        server = self.server
        read = server.store.read
        snapshot = msg.snapshot
        versions: List[Tuple[str, Version]] = []
        for key in msg.keys:
            version = read(key, snapshot)
            if version is None:
                raise LookupError(
                    f"key {key!r} unknown at {server.address}; dataset must be preloaded"
                )
            versions.append((key, version))
        server.metrics.read_slices_served += 1
        reply(ReadSliceResp(tuple(versions)))

    # ------------------------------------------------------------------
    # Visibility probes (Figure 4 instrumentation)
    # ------------------------------------------------------------------
    def visibility_threshold(self) -> int:
        """An update is readable here once its ct is within this bound.

        PaRiS serves reads from the UST snapshot; variants override this
        with e.g. the locally installed snapshot (min of the version
        vector).
        """
        return self.server.ust

    def maybe_probe_visibility(self, commit_ts: int, decided_at: float) -> None:
        """Sample one applied update for the visibility-latency CDF."""
        server = self.server
        rate = server.config.visibility_sample_rate
        if rate <= 0.0:
            return
        if rate < 1.0 and self.probe_rng.random() >= rate:
            return
        if commit_ts <= self.visibility_threshold():
            server.metrics.visibility.append(max(0.0, server.sim.now - decided_at))
            return
        heapq.heappush(self.pending_probes, (commit_ts, decided_at))

    def drain_visibility_probes(self) -> None:
        """Record every pending probe the visibility threshold now covers."""
        if not self.pending_probes:
            return
        threshold = self.visibility_threshold()
        now = self.server.sim.now
        pending = self.pending_probes
        while pending and pending[0][0] <= threshold:
            _, decided_at = heapq.heappop(pending)
            self.server.metrics.visibility.append(max(0.0, now - decided_at))

    # ------------------------------------------------------------------
    # Snapshot shape hooks (vector-snapshot variants override these)
    # ------------------------------------------------------------------
    def fallback_snapshot(self):
        """Snapshot to use when a transaction context is unknown/expired."""
        return self.server.ust

    def snapshot_lower_bound(self, snapshot) -> int:
        """Scalar lower bound of a snapshot (identity for scalar snapshots).

        Feeds the oldest-active-snapshot aggregation for GC: a vector
        snapshot pins versions down to its *minimum* entry.
        """
        return snapshot

    def snapshot_upper_bound(self, snapshot) -> int:
        """Scalar upper bound of a snapshot, used to floor commit timestamps."""
        return snapshot

    def finalize_deps(self, deps, commit_ts: int, write_partitions) -> "object":
        """Finalize a transaction's dependency annotation at decision time.

        Called by the coordinator once the commit timestamp is decided;
        variants fold in the transaction's own writes (so sibling writes of
        one transaction become visible atomically).  Scalar protocols carry
        no dependency metadata and return ``deps`` unchanged (``None``).
        """
        return deps

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------
    def on_stable_advance(self) -> None:
        """Hook invoked whenever the server's version vector advances."""
        # PaRiS reads never wait on the version vector; blocking variants
        # override this to wake parked slices.

    def on_crash(self) -> None:
        """Drop volatile read-path state (pending visibility probes)."""
        self.pending_probes.clear()

    @property
    def parked_count(self) -> int:
        """Number of read slices currently blocked (always 0 for PaRiS)."""
        return 0


class BlockingReadProtocol(ReadProtocol):
    """Shared parking machinery for variants whose reads can block.

    A read slice whose snapshot exceeds the locally installed prefix
    (``min(VV)``) parks in a snapshot-ordered queue and wakes when the
    version vector catches up.  Parking and waking each charge
    ``block_overhead`` CPU — the synchronisation cost the paper blames for
    BPR's lower saturation throughput (Section V-B).  Subclasses choose the
    snapshot/visibility policy; this class only owns the queue.
    """

    __slots__ = ("parked", "_park_seq")

    def __init__(self, server: "ProtocolServer", probe_rng: "random.Random") -> None:
        super().__init__(server, probe_rng)
        #: Parked reads: (snapshot, seq, request, reply, arrival time).
        self.parked: List[Tuple[int, int, ReadSliceReq, Callable, float]] = []
        self._park_seq = itertools.count()

    def handle_read_slice(self, src: str, msg: ReadSliceReq, reply: Callable) -> None:
        """Serve the slice if the snapshot is installed locally; else park."""
        server = self.server
        self.observe_snapshot(msg.snapshot)
        if server.local_stable_time >= msg.snapshot:
            self.serve_read_slice(msg, reply)
            return
        server.metrics.reads_parked += 1
        if server.tracer.enabled:
            server.tracer.emit(
                server.sim.now, "block", server.address,
                snapshot=msg.snapshot, keys=len(msg.keys), parked=len(self.parked) + 1,
            )
        heapq.heappush(
            self.parked, (msg.snapshot, next(self._park_seq), msg, reply, server.sim.now)
        )
        # Parking costs CPU: the request is enqueued on a wait structure.
        server.cpu.submit(server.config.service.block_overhead, self._park_accounted)

    def _park_accounted(self) -> None:
        """The park-side scheduler job: pure CPU burn."""

    def on_stable_advance(self) -> None:
        """Wake every parked slice the installed prefix now covers."""
        server = self.server
        threshold = server.local_stable_time
        while self.parked and self.parked[0][0] <= threshold:
            _, _, msg, reply, arrival = heapq.heappop(self.parked)
            server.metrics.blocking.append(server.sim.now - arrival)
            # Waking costs CPU again, then the read is served normally.
            server.cpu.submit(
                server.config.service.block_overhead, self.serve_read_slice, msg, reply
            )
        self.drain_visibility_probes()

    @property
    def parked_count(self) -> int:
        """Number of read slices currently blocked."""
        return len(self.parked)
