"""Protocol messages of PaRiS (Algorithms 1-4) and its stabilization plane.

All messages are sealed records (:func:`repro.record.record`: immutable
``__slots__`` dataclasses) delivered through the simulated FIFO fabric, and
one factory, :func:`message`, builds every one of them.  Collections are
tuples so that a message cannot be mutated after it is "serialized" (sent).
Slots matter: the fabric allocates one message object per protocol step, so
the per-instance ``__dict__`` of a slotless dataclass is pure hot-path
overhead (``tests/test_messages_slots.py`` guards the invariant).

Construction is **positional** wherever a message is built per protocol step
(``core/client.py`` and every module of ``protocols/``): binding four keyword
arguments costs about as much again as the construction they reach, and a
transaction builds a dozen messages.  Field order is therefore part of each
class's interface — append new fields, with defaults, at the end.
Immutability is enforced, not assumed: a message may sit in several queues at
once (one ``ReplicateMsg`` or ``CommitTxMsg`` object is cast to every peer or
cohort), so assigning or deleting a field raises ``FrozenInstanceError``.
Enforcing it costs no ``object.__setattr__`` per field, unlike
``dataclass(frozen=True)``: a record fills its slots on an open instance and
seals it by switching its class (a ``Version`` builds in ~330 ns,
against ~1,000 frozen and ~210 for a plain slotted class, on CPython 3.11 on a
Xeon).  :func:`record` is the one place that picks the representation, for
messages, ``Version`` and ``ReadResult`` alike.

Every message also reports its **causal-metadata footprint** via
``metadata_bytes()``: the wire bytes spent on snapshots, timestamps,
dependency vectors and shardstamps, excluding keys and values.  Nobody
writes that method: a field's *type* says what it costs, through the one
table :data:`WIRE_COST` (8 bytes per timestamp, 16 per ``(key, ut)``
dependency pair, ...), and :func:`message` compiles each class's sum from
its annotations.  A field of any other type is payload and costs nothing.
The network fabric sums these into ``NetworkMetrics.metadata_bytes_total``
so the design-space study can compare the metadata cost of a scalar UST
(PaRiS) against per-DC vectors (cure) and explicit dependency lists (cops).
"""

from __future__ import annotations

from dataclasses import fields
from typing import Any, Dict, Tuple, Union

from ..record import record
from ..storage.version import TransactionId, Version

#: (key, value) pairs of a write set slice.
WritePairs = Tuple[Tuple[str, Any], ...]

# Metadata field types.  The aliases carry no runtime check; their *names*
# are what ``WIRE_COST`` reads from each field's (string) annotation.
#: A scalar timestamp: commit/proposed times, clocks, UST/GST, GC bounds.
Timestamp = int
#: A snapshot: ``None``, a scalar, or a per-DC vector.
Snapshot = Any
#: A dependency annotation: ``None``, a per-DC vector, or dependency pairs.
Deps = Any
#: ``(key, version)`` pairs of a read response; each version ships ut + deps.
Versions = Tuple[Tuple[str, Version], ...]
#: Occult's per-partition stable cut; 0 means "not sent".
Shardstamp = int
#: The transaction groups of one replication batch.
Groups = Tuple["ReplicatedTx", ...]
#: The key of one dependency pair, shipped as its 8-byte hash.
DepKey = str
#: A DC id naming a version-vector entry, counted like a timestamp.
VvEntryId = int


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


def _versions_meta_bytes(versions: Versions) -> int:
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


#: Wire cost of each metadata field type, keyed by its annotation: a fixed
#: byte count, or an expression over the field's value (``{}``).
WIRE_COST: Dict[str, Union[int, str]] = {
    "Timestamp": 8,
    "DepKey": 8,
    "VvEntryId": 8,
    "Shardstamp": "(8 if {} else 0)",
    "Snapshot": "_ts_bytes({})",
    "Deps": "_deps_bytes({})",
    "Versions": "_versions_meta_bytes({})",
    "Groups": "sum(group.metadata_bytes() for group in {})",
}


def message(cls: type) -> type:
    """Build a message class: a sealed :func:`record` plus ``metadata_bytes``.

    ``metadata_bytes`` is generated source, the way ``dataclasses`` writes
    ``__init__``: the fixed costs folded into one constant, plus one term per
    variable-size field.  Every send calls it, and a generic loop over the
    fields would cost several times this direct sum.
    """
    cls = record(cls)
    fixed, terms = 0, []
    for field in fields(cls):
        cost = WIRE_COST.get(field.type, 0)
        if isinstance(cost, int):
            fixed += cost
        else:
            terms.append(cost.format(f"self.{field.name}"))
    if fixed or not terms:
        terms.insert(0, str(fixed))
    body = " + ".join(terms)
    namespace: Dict[str, Any] = {}
    exec(f"def metadata_bytes(self):\n    return {body}\n", globals(), namespace)
    method = namespace["metadata_bytes"]
    method.__qualname__ = f"{cls.__qualname__}.metadata_bytes"
    method.__doc__ = f"Causal-metadata wire bytes this message carries: ``{body}``."
    cls.metadata_bytes = method
    return cls


# ----------------------------------------------------------------------
# Client <-> coordinator (Algorithm 1 / Algorithm 2)
# ----------------------------------------------------------------------
@message
class StartTxReq:
    """START-TX: carries the client's highest observed stable snapshot."""

    client_snapshot: Snapshot


@message
class StartTxResp:
    """Transaction id and the snapshot assigned by the coordinator."""

    tid: TransactionId
    snapshot: Snapshot


@message
class ReadReq:
    """READ: keys the client could not serve from WS/RS/WC."""

    tid: TransactionId
    keys: Tuple[str, ...]


@message
class ReadResp:
    """Versions returned for a parallel read, keyed by key."""

    versions: Versions


@message
class CommitReq:
    """COMMIT-TX: the buffered write set plus the client's last commit time.

    ``deps`` carries the client-side dependency summary of the variants that
    track one (cure: per-DC vector; occult/cops: explicit pairs); the scalar
    protocols leave it ``None``.
    """

    tid: TransactionId
    highest_write_ts: Timestamp
    writes: WritePairs
    deps: Deps = None


@message
class CommitResp:
    """The transaction's commit timestamp."""

    tid: TransactionId
    commit_ts: Timestamp
    #: ``(partition, dc_id)`` pairs naming the cohort that applied each write
    #: slice.  The client derives version provenance (``sr``) from this echo
    #: rather than recomputing the routing itself: under a membership change
    #: the preferred replica can flip between commit send and response, and
    #: the identities would diverge.  Routing bookkeeping, not causal
    #: metadata (the client named every partition in the request): payload.
    cohorts: Tuple[Tuple[int, int], ...] = ()


@message
class FinishTxMsg:
    """One-way notice that a read-only transaction is complete.

    The paper cleans abandoned contexts with a background timeout
    (Section III-C); we additionally send this explicit notice on the common
    path so coordinator state and the GC oldest-snapshot bound do not depend
    on timeouts.
    """

    tid: TransactionId


@message
class OneShotReadReq:
    """One-round read-only transaction (start + read + finish in one RPC).

    PaRiS's non-blocking reads make one-round ROTs possible (Section I):
    the coordinator assigns the snapshot and fans the read out without any
    client round-trip for START-TX, and no context survives the call.
    """

    client_snapshot: Snapshot
    keys: Tuple[str, ...]


@message
class OneShotReadResp:
    """Snapshot used and the versions read."""

    snapshot: Snapshot
    versions: Versions


# ----------------------------------------------------------------------
# Coordinator <-> cohort (Algorithm 2 / Algorithm 3)
# ----------------------------------------------------------------------
@message
class ReadSliceReq:
    """Per-partition slice of a parallel read at a given snapshot."""

    keys: Tuple[str, ...]
    snapshot: Snapshot


@message
class ReadSliceResp:
    """Freshest visible version per requested key.

    ``shardstamp`` is the serving replica's stable cut for its partition;
    only ``occult`` sets it (clients validate reads against it), the other
    protocols leave the zero default.
    """

    versions: Versions
    shardstamp: Shardstamp = 0


@message
class PrepareReq:
    """2PC phase one for one partition's slice of the write set."""

    tid: TransactionId
    snapshot: Snapshot
    highest_ts: Timestamp
    writes: WritePairs


@message
class PrepareResp:
    """The partition's proposed commit timestamp."""

    tid: TransactionId
    proposed_ts: Timestamp


@message
class CommitTxMsg:
    """2PC phase two: the decided commit timestamp (one-way)."""

    tid: TransactionId
    commit_ts: Timestamp
    #: Sim time at which the coordinator decided ct (visibility probes).
    decided_at: float
    #: Finalized dependency annotation to install with the versions.
    deps: Deps = None


# ----------------------------------------------------------------------
# Replication between replicas of one partition (Algorithm 4)
# ----------------------------------------------------------------------
@message
class ReplicatedTx:
    """One applied transaction group being shipped to peer replicas."""

    tid: TransactionId
    commit_ts: Timestamp
    writes: WritePairs
    source_dc: int
    decided_at: float
    deps: Deps = None


@message
class ReplicateMsg:
    """A batch of transaction groups in increasing commit-ts order.

    ``watermark`` is the sender's new local version clock (the ``ub`` of
    Algorithm 4): by FIFO, every update with ct <= watermark has been shipped,
    so the receiver may advance its VV entry to the watermark.
    """

    groups: Groups
    watermark: Timestamp


@message
class HeartbeatMsg:
    """Idle-period version-clock announcement (Algorithm 4 line 21)."""

    ts: Timestamp


@message
class RetireMsg:
    """A departing replica's final word: drop my version-clock entry.

    Sent by a replica leaving the membership (``remove_replica``) after its
    final replication flush.  FIFO ordering guarantees every update the
    leaver ever shipped precedes this message, so on receipt a peer may
    remove the leaver's VV entry — its ``min(VV)`` stops waiting on a clock
    that will never advance again — and re-evaluate parked reads.
    """

    dc_id: VvEntryId


# ----------------------------------------------------------------------
# Explicit dependency checking (``cops`` variant)
# ----------------------------------------------------------------------
@message
class DepCheckReq:
    """Is a version of ``key`` with ``ut >= ut`` installed at the target?

    COPS/Eiger-style replication asks the local replica of each dependency's
    partition before applying a remote transaction; the target replies only
    once the dependency is satisfied (parking the check until then).
    """

    key: DepKey
    ut: Timestamp


@message
class DepCheckResp:
    """The dependency is satisfied at the responding replica."""

    key: DepKey
    ut: Timestamp


# ----------------------------------------------------------------------
# Stabilization plane (Section IV-B "Stabilization protocol" + GC)
# ----------------------------------------------------------------------
#
# The stable value these three carry is a ``Snapshot``: PaRiS's scalar
# min(VV)/GST/UST, or cure's per-DC vector (the Universal Stable Vector,
# whose every entry is at least the scalar UST).  One tree carries either.
@message
class AggUpMsg:
    """Child -> parent in the intra-DC tree: aggregated minima.

    ``stable_min`` aggregates min(VV) (towards the GST); ``oldest_active``
    aggregates the oldest snapshot of a running transaction (towards the GC
    bound S_old).  The same tree computes both, as the paper notes.
    """

    partition: int
    stable_min: Snapshot
    oldest_active: Timestamp


@message
class DcGstMsg:
    """Root -> remote roots: this DC's GST and oldest active snapshot."""

    dc_id: int
    gst: Snapshot
    oldest_active: Timestamp


@message
class UstBroadcastMsg:
    """Root -> subtree: the new universal stable time and GC bound."""

    ust: Snapshot
    oldest_global: Timestamp


@message
class GstBroadcastMsg:
    """Root -> subtree: the DC-local stable time (``gst_local`` protocol only).

    PaRiS never sends this: it assigns snapshots from the UST.  The
    ``gst_local`` variant assigns snapshots from the *per-DC* stable time
    instead — the design point the paper argues against — so each DC's root
    pushes its GST down the local tree as it advances.
    """

    gst: Timestamp
