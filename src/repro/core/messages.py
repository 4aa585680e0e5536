"""Protocol messages of PaRiS (Algorithms 1-4) and its stabilization plane.

All messages are frozen ``__slots__`` dataclasses delivered through the
simulated FIFO fabric.  Collections are tuples so that a message cannot be
mutated after it is "serialized" (sent).  Slots matter: the fabric allocates
one message object per protocol step, so the per-instance ``__dict__`` of a
slotless dataclass is pure hot-path overhead (``tests/test_messages_slots.py``
guards the invariant).

Construction is **positional** wherever a message is built per protocol step
(``core/client.py`` and every module of ``protocols/``): binding four keyword
arguments costs about as much again as the ``__init__`` they reach, and a
transaction builds a dozen messages.  Field order is therefore part of each
class's interface — append new fields, with defaults, at the end.  ``frozen``
stays even though each field then goes through ``object.__setattr__``: a
message may sit in several queues at once (one ``ReplicateMsg`` or
``CommitTxMsg`` object is cast to every peer or cohort), so "nobody mutates it
after the send" has to be a property the runtime enforces, not a convention.

Every message also reports its **causal-metadata footprint** via
``metadata_bytes()``: the wire bytes spent on snapshots, timestamps,
dependency vectors and shardstamps (8 bytes per timestamp, 16 per
``(key, ut)`` dependency pair), excluding keys and values.  The network
fabric sums these into ``NetworkMetrics.metadata_bytes_total`` so the
design-space study can compare the metadata cost of a scalar UST (PaRiS)
against per-DC vectors (cure) and explicit dependency lists (cops).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Tuple

from ..storage.version import TransactionId, Version

#: (key, value) pairs of a write set slice.
WritePairs = Tuple[Tuple[str, Any], ...]


def _ts_bytes(value: Any) -> int:
    """Wire bytes of one snapshot/timestamp: 8 per scalar, 8 per vector entry."""
    if value is None:
        return 0
    if isinstance(value, tuple):
        return 8 * len(value)
    return 8


def _deps_bytes(deps: Any) -> int:
    """Wire bytes of a dependency annotation.

    ``None`` (scalar protocols) costs nothing; a per-DC vector of ints costs
    8 bytes per entry; a tuple of ``(partition, ts)`` / ``(key, ut)`` pairs
    costs 16 bytes per pair (8-byte id hash + 8-byte timestamp).
    """
    if not deps:
        return 0
    if isinstance(deps[0], tuple):
        return 16 * len(deps)
    return 8 * len(deps)


def _versions_meta_bytes(versions: Tuple[Tuple[str, Version], ...]) -> int:
    """Per-version metadata shipped with read responses: ut + deps.

    ``sum(8 + _deps_bytes(v.deps))`` as a plain loop: it runs for every read
    response sent, and scalar protocols' versions carry no deps at all.
    """
    total = 8 * len(versions)
    for _, version in versions:
        deps = version.deps
        if deps:
            total += (16 if isinstance(deps[0], tuple) else 8) * len(deps)
    return total


# ----------------------------------------------------------------------
# Client <-> coordinator (Algorithm 1 / Algorithm 2)
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class StartTxReq:
    """START-TX: carries the client's highest observed stable snapshot."""

    client_snapshot: Any

    def metadata_bytes(self) -> int:
        """Causal-metadata wire bytes this message carries."""
        return _ts_bytes(self.client_snapshot)


@dataclass(frozen=True, slots=True)
class StartTxResp:
    """Transaction id and the snapshot assigned by the coordinator."""

    tid: TransactionId
    snapshot: Any

    def metadata_bytes(self) -> int:
        """Causal-metadata wire bytes this message carries."""
        return _ts_bytes(self.snapshot)


@dataclass(frozen=True, slots=True)
class ReadReq:
    """READ: keys the client could not serve from WS/RS/WC."""

    tid: TransactionId
    keys: Tuple[str, ...]

    def metadata_bytes(self) -> int:
        """Causal-metadata wire bytes this message carries."""
        return 0


@dataclass(frozen=True, slots=True)
class ReadResp:
    """Versions returned for a parallel read, keyed by key."""

    versions: Tuple[Tuple[str, Version], ...]

    def metadata_bytes(self) -> int:
        """Causal-metadata wire bytes this message carries."""
        return _versions_meta_bytes(self.versions)


@dataclass(frozen=True, slots=True)
class CommitReq:
    """COMMIT-TX: the buffered write set plus the client's last commit time.

    ``deps`` carries the client-side dependency summary of the variants that
    track one (cure: per-DC vector; occult/cops: explicit pairs); the scalar
    protocols leave it ``None``.
    """

    tid: TransactionId
    highest_write_ts: int
    writes: WritePairs
    deps: Any = None

    def metadata_bytes(self) -> int:
        """Causal-metadata wire bytes this message carries."""
        return 8 + _deps_bytes(self.deps)


@dataclass(frozen=True, slots=True)
class CommitResp:
    """The transaction's commit timestamp."""

    tid: TransactionId
    commit_ts: int
    #: ``(partition, dc_id)`` pairs naming the cohort that applied each write
    #: slice.  The client derives version provenance (``sr``) from this echo
    #: rather than recomputing the routing itself: under a membership change
    #: the preferred replica can flip between commit send and response, and
    #: the identities would diverge.
    cohorts: Tuple[Tuple[int, int], ...] = ()

    def metadata_bytes(self) -> int:
        """Causal-metadata wire bytes this message carries.

        The cohort echo is routing bookkeeping, not causal metadata — the
        client already named every partition in the request — so only the
        commit timestamp is counted.
        """
        return 8


@dataclass(frozen=True, slots=True)
class FinishTxMsg:
    """One-way notice that a read-only transaction is complete.

    The paper cleans abandoned contexts with a background timeout
    (Section III-C); we additionally send this explicit notice on the common
    path so coordinator state and the GC oldest-snapshot bound do not depend
    on timeouts.
    """

    tid: TransactionId

    def metadata_bytes(self) -> int:
        """Causal-metadata wire bytes this message carries."""
        return 0


@dataclass(frozen=True, slots=True)
class OneShotReadReq:
    """One-round read-only transaction (start + read + finish in one RPC).

    PaRiS's non-blocking reads make one-round ROTs possible (Section I):
    the coordinator assigns the snapshot and fans the read out without any
    client round-trip for START-TX, and no context survives the call.
    """

    client_snapshot: Any
    keys: Tuple[str, ...]

    def metadata_bytes(self) -> int:
        """Causal-metadata wire bytes this message carries."""
        return _ts_bytes(self.client_snapshot)


@dataclass(frozen=True, slots=True)
class OneShotReadResp:
    """Snapshot used and the versions read."""

    snapshot: Any
    versions: Tuple[Tuple[str, Version], ...]

    def metadata_bytes(self) -> int:
        """Causal-metadata wire bytes this message carries."""
        return _ts_bytes(self.snapshot) + _versions_meta_bytes(self.versions)


# ----------------------------------------------------------------------
# Coordinator <-> cohort (Algorithm 2 / Algorithm 3)
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class ReadSliceReq:
    """Per-partition slice of a parallel read at a given snapshot."""

    keys: Tuple[str, ...]
    snapshot: Any

    def metadata_bytes(self) -> int:
        """Causal-metadata wire bytes this message carries."""
        return _ts_bytes(self.snapshot)


@dataclass(frozen=True, slots=True)
class ReadSliceResp:
    """Freshest visible version per requested key.

    ``shardstamp`` is the serving replica's stable cut for its partition;
    only ``occult`` sets it (clients validate reads against it), the other
    protocols leave the zero default.
    """

    versions: Tuple[Tuple[str, Version], ...]
    shardstamp: int = 0

    def metadata_bytes(self) -> int:
        """Causal-metadata wire bytes this message carries."""
        extra = 8 if self.shardstamp else 0
        return extra + _versions_meta_bytes(self.versions)


@dataclass(frozen=True, slots=True)
class PrepareReq:
    """2PC phase one for one partition's slice of the write set."""

    tid: TransactionId
    snapshot: Any
    highest_ts: int
    writes: WritePairs

    def metadata_bytes(self) -> int:
        """Causal-metadata wire bytes this message carries."""
        return _ts_bytes(self.snapshot) + 8


@dataclass(frozen=True, slots=True)
class PrepareResp:
    """The partition's proposed commit timestamp."""

    tid: TransactionId
    proposed_ts: int

    def metadata_bytes(self) -> int:
        """Causal-metadata wire bytes this message carries."""
        return 8


@dataclass(frozen=True, slots=True)
class CommitTxMsg:
    """2PC phase two: the decided commit timestamp (one-way)."""

    tid: TransactionId
    commit_ts: int
    #: Sim time at which the coordinator decided ct (visibility probes).
    decided_at: float
    #: Finalized dependency annotation to install with the versions.
    deps: Any = None

    def metadata_bytes(self) -> int:
        """Causal-metadata wire bytes this message carries."""
        return 8 + _deps_bytes(self.deps)


# ----------------------------------------------------------------------
# Replication between replicas of one partition (Algorithm 4)
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class ReplicatedTx:
    """One applied transaction group being shipped to peer replicas."""

    tid: TransactionId
    commit_ts: int
    writes: WritePairs
    source_dc: int
    decided_at: float
    deps: Any = None

    def metadata_bytes(self) -> int:
        """Causal-metadata wire bytes this message carries."""
        return 8 + _deps_bytes(self.deps)


@dataclass(frozen=True, slots=True)
class ReplicateMsg:
    """A batch of transaction groups in increasing commit-ts order.

    ``watermark`` is the sender's new local version clock (the ``ub`` of
    Algorithm 4): by FIFO, every update with ct <= watermark has been shipped,
    so the receiver may advance its VV entry to the watermark.
    """

    groups: Tuple[ReplicatedTx, ...]
    watermark: int

    def metadata_bytes(self) -> int:
        """Causal-metadata wire bytes this message carries."""
        return 8 + sum(group.metadata_bytes() for group in self.groups)


@dataclass(frozen=True, slots=True)
class HeartbeatMsg:
    """Idle-period version-clock announcement (Algorithm 4 line 21)."""

    ts: int

    def metadata_bytes(self) -> int:
        """Causal-metadata wire bytes this message carries."""
        return 8


@dataclass(frozen=True, slots=True)
class RetireMsg:
    """A departing replica's final word: drop my version-clock entry.

    Sent by a replica leaving the membership (``remove_replica``) after its
    final replication flush.  FIFO ordering guarantees every update the
    leaver ever shipped precedes this message, so on receipt a peer may
    remove the leaver's VV entry — its ``min(VV)`` stops waiting on a clock
    that will never advance again — and re-evaluate parked reads.
    """

    dc_id: int

    def metadata_bytes(self) -> int:
        """Causal-metadata wire bytes this message carries."""
        return 8


# ----------------------------------------------------------------------
# Explicit dependency checking (``cops`` variant)
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class DepCheckReq:
    """Is a version of ``key`` with ``ut >= ut`` installed at the target?

    COPS/Eiger-style replication asks the local replica of each dependency's
    partition before applying a remote transaction; the target replies only
    once the dependency is satisfied (parking the check until then).
    """

    key: str
    ut: int

    def metadata_bytes(self) -> int:
        """Causal-metadata wire bytes this message carries."""
        return 16


@dataclass(frozen=True, slots=True)
class DepCheckResp:
    """The dependency is satisfied at the responding replica."""

    key: str
    ut: int

    def metadata_bytes(self) -> int:
        """Causal-metadata wire bytes this message carries."""
        return 16


# ----------------------------------------------------------------------
# Stabilization plane (Section IV-B "Stabilization protocol" + GC)
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class AggUpMsg:
    """Child -> parent in the intra-DC tree: aggregated minima.

    ``stable_min`` aggregates min(VV) (towards the GST); ``oldest_active``
    aggregates the oldest snapshot of a running transaction (towards the GC
    bound S_old).  The same tree computes both, as the paper notes.
    """

    partition: int
    stable_min: int
    oldest_active: int

    def metadata_bytes(self) -> int:
        """Causal-metadata wire bytes this message carries."""
        return 16


@dataclass(frozen=True, slots=True)
class DcGstMsg:
    """Root -> remote roots: this DC's GST and oldest active snapshot."""

    dc_id: int
    gst: int
    oldest_active: int

    def metadata_bytes(self) -> int:
        """Causal-metadata wire bytes this message carries."""
        return 16


@dataclass(frozen=True, slots=True)
class UstBroadcastMsg:
    """Root -> subtree: the new universal stable time and GC bound."""

    ust: int
    oldest_global: int

    def metadata_bytes(self) -> int:
        """Causal-metadata wire bytes this message carries."""
        return 16


@dataclass(frozen=True, slots=True)
class GstBroadcastMsg:
    """Root -> subtree: the DC-local stable time (``gst_local`` protocol only).

    PaRiS never sends this: it assigns snapshots from the UST.  The
    ``gst_local`` variant assigns snapshots from the *per-DC* stable time
    instead — the design point the paper argues against — so each DC's root
    pushes its GST down the local tree as it advances.
    """

    gst: int

    def metadata_bytes(self) -> int:
        """Causal-metadata wire bytes this message carries."""
        return 8


# ----------------------------------------------------------------------
# Vector stabilization plane (``cure`` variant)
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class AggUpVecMsg:
    """Child -> parent in the intra-DC tree: entrywise-min applied vectors."""

    partition: int
    stable_vec: Tuple[int, ...]
    oldest_active: int

    def metadata_bytes(self) -> int:
        """Causal-metadata wire bytes this message carries."""
        return 8 + 8 * len(self.stable_vec)


@dataclass(frozen=True, slots=True)
class DcVecMsg:
    """Root -> remote roots: this DC's aggregated per-source stable vector."""

    dc_id: int
    stable_vec: Tuple[int, ...]
    oldest_active: int

    def metadata_bytes(self) -> int:
        """Causal-metadata wire bytes this message carries."""
        return 8 + 8 * len(self.stable_vec)


@dataclass(frozen=True, slots=True)
class UsvBroadcastMsg:
    """Root -> subtree: the new Universal Stable Vector and GC bound.

    The cure variant's replacement for :class:`UstBroadcastMsg`: entry ``d``
    bounds the commit timestamps from source DC ``d`` that every replica in
    the system has applied, so a vector snapshot can be entrywise fresher
    than the scalar UST (which is the minimum over all entries).
    """

    usv: Tuple[int, ...]
    oldest_global: int

    def metadata_bytes(self) -> int:
        """Causal-metadata wire bytes this message carries."""
        return 8 + 8 * len(self.usv)
