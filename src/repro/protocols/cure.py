"""The ``cure`` protocol variant: per-DC dependency vectors (Cure, ICDCS'16).

Where PaRiS compresses stabilization into one scalar UST, Cure keeps a
vector with one entry per DC.  The stabilization plane aggregates, per
source DC ``d``, the minimum applied watermark over every replica — the
**Universal Stable Vector** (USV).  Every entry of the USV is at least the
UST (which is the minimum over the entries), so vector snapshots are
entrywise *fresher* than PaRiS's scalar snapshots while reads stay
non-blocking: a version from source ``d`` with ``ut <= USV[d]`` is, by
construction, installed at every replica of its partition.

The price is metadata: snapshots, commit dependencies and stabilization
messages all carry O(#DCs) entries instead of one scalar — the trade-off
the design-space study (docs/design_space.md) quantifies.

Visibility of a version ``v`` under a vector snapshot ``V`` requires both
``v.ut <= V[v.sr]`` *and* ``v.deps <= V`` entrywise.  The per-version
dependency vector is what keeps snapshots causal: a fresh entry for DC
``d`` may admit a version from ``d`` whose dependencies come from a DC
whose entry is still stale, and the ``deps`` check hides it until those
are covered.  Dependency vectors are finalized at commit so that
``max(deps) == ct`` — sibling writes of one transaction (which may land
with different source DCs) become visible under exactly the same
predicate, preserving atomic visibility.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Tuple

from ..core.client import PaRiSClient, ReadResult, TransactionStateError
from ..core.messages import (
    AggUpVecMsg,
    DcVecMsg,
    OneShotReadReq,
    ReadSliceReq,
    ReadSliceResp,
    UsvBroadcastMsg,
)
from ..sim.future import Future
from ..storage.version import Version
from .engine import ComponentSet, ProtocolServer
from .reads import ReadProtocol
from .registry import ProtocolSpec, register
from .stabilization import StabilizationService

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    pass

#: Sentinel for "this server stores no versions from that source DC", so the
#: entry never constrains the entrywise-min aggregation.  Versions of a
#: partition can only originate at its replica DCs, which makes the entry
#: vacuously satisfied everywhere else.
_NO_CONSTRAINT = 1 << 62


class CureStabilization(StabilizationService):
    """Vector stabilization: aggregate per-source applied watermarks."""

    __slots__ = ("stable_vec",)

    def __init__(self, server: "ProtocolServer") -> None:
        super().__init__(server)
        #: The Universal Stable Vector known to this server (entrywise
        #: monotone; ``server.ust`` mirrors ``min(stable_vec)``).
        self.stable_vec: Tuple[int, ...] = (0,) * server.spec.n_dcs

    def dispatch(self) -> Dict[type, Callable]:
        """Extend the scalar tree's table with the vector aggregation messages."""
        table = super().dispatch()
        table.update(
            {
                AggUpVecMsg: self.handle_agg_up_vec,
                DcVecMsg: self.handle_dc_vec,
                UsvBroadcastMsg: self.handle_usv_broadcast,
            }
        )
        return table

    # ------------------------------------------------------------------
    # Per-server applied vector
    # ------------------------------------------------------------------
    def applied_vector(self) -> Tuple[int, ...]:
        """Applied watermark per source DC (no-constraint where vacuous)."""
        server = self.server
        vec = [_NO_CONSTRAINT] * server.spec.n_dcs
        for dc, watermark in server.vv.items():
            vec[dc] = watermark
        return tuple(vec)

    # ------------------------------------------------------------------
    # Delta_G: aggregate vectors up the tree, roots gossip across DCs
    # ------------------------------------------------------------------
    def tick(self) -> None:
        """Report this subtree's entrywise minima (root: gossip to DCs)."""
        server = self.server
        vec, oldest = self.aggregate_subtree_vec()
        if self.parent_addr is not None:
            server.cast(
                self.parent_addr,
                AggUpVecMsg(server.partition, vec, oldest),
            )
            return
        self.dc_reports[server.dc_id] = (vec, oldest)
        message = DcVecMsg(server.dc_id, vec, oldest)
        for root in self.remote_root_addrs:
            server.cast(root, message)

    def aggregate_subtree_vec(self) -> Tuple[Tuple[int, ...], int]:
        """Entrywise min(applied vector) and oldest-active over the subtree."""
        server = self.server
        vec = list(self.applied_vector())
        oldest = server.coordinator.oldest_active_snapshot()
        for child in self.child_partitions:
            report = self.child_reports.get(child)
            if report is None:
                # Unreported child: speak for the subtree with the safe
                # floor (same conservative rule as the scalar plane).
                return (0,) * server.spec.n_dcs, 0
            vec = [min(a, b) for a, b in zip(vec, report.stable_vec)]
            oldest = min(oldest, report.oldest_active)
        return tuple(vec), oldest

    def handle_agg_up_vec(self, src: str, msg: AggUpVecMsg, reply: Callable) -> None:
        """Stabilization tree: cache a child subtree's vector report."""
        self.child_reports[msg.partition] = msg

    def handle_dc_vec(self, src: str, msg: DcVecMsg, reply: Callable) -> None:
        """Root gossip: record another DC's vector (entrywise monotone).

        Like the scalar plane, gossip from retired DCs is dropped so the
        USV stops waiting on reporters that will never speak again.
        """
        if not self.server.membership.is_active_dc(msg.dc_id):
            return
        previous = self.dc_reports.get(msg.dc_id)
        vec = msg.stable_vec
        if previous is not None:
            vec = tuple(max(a, b) for a, b in zip(previous[0], vec))
        self.dc_reports[msg.dc_id] = (vec, msg.oldest_active)

    # ------------------------------------------------------------------
    # Delta_U (roots only): compute and broadcast the USV
    # ------------------------------------------------------------------
    def ust_tick(self) -> None:
        """Compute the USV from every DC's report and push it down the tree."""
        server = self.server
        if len(self.dc_reports) < server.membership.n_active_dcs:
            return
        columns = zip(*(vec for vec, _ in self.dc_reports.values()))
        usv = tuple(min(column) for column in columns)
        oldest = min(oldest for _, oldest in self.dc_reports.values())
        self.adopt_usv(usv, oldest)
        self.broadcast_usv()

    def broadcast_usv(self) -> None:
        """Push the current USV and GC bound to the subtree children."""
        server = self.server
        message = UsvBroadcastMsg(self.stable_vec, server.oldest_global)
        for child in self.child_addrs:
            server.cast(child, message)

    def handle_usv_broadcast(self, src: str, msg: UsvBroadcastMsg, reply: Callable) -> None:
        """Adopt the root's USV and pass it down the tree."""
        self.adopt_usv(msg.usv, msg.oldest_global)
        self.broadcast_usv()

    def adopt_usv(self, usv: Tuple[int, ...], oldest_global=None) -> None:
        """Entrywise-monotone adoption; keeps ``server.ust = min(vector)``.

        Routing the scalar minimum through :meth:`adopt_ust` preserves the
        scalar plane's contract — GC bounds, the commit-timestamp floor in
        prepare, the ``ust`` trace records and visibility-probe drains all
        keep working unmodified.
        """
        merged = tuple(max(a, b) for a, b in zip(self.stable_vec, usv))
        if merged != self.stable_vec:
            self.stable_vec = merged
        self.adopt_ust(min(merged), oldest_global)


class CureReadProtocol(ReadProtocol):
    """Vector snapshots served non-blocking via the visibility predicate."""

    __slots__ = ()

    # ------------------------------------------------------------------
    # Snapshot policy (vector-shaped)
    # ------------------------------------------------------------------
    def assign_snapshot(self, client_snapshot) -> Tuple[int, ...]:
        """Adopt the client's vector floor, assign the local stable vector."""
        stabilization = self.server.stabilization
        if isinstance(client_snapshot, tuple):
            stabilization.adopt_usv(client_snapshot)
        return stabilization.stable_vec

    def observe_snapshot(self, snapshot) -> None:
        """Adopt a fresher vector carried by an inbound request."""
        if isinstance(snapshot, tuple):
            self.server.stabilization.adopt_usv(snapshot)

    def fallback_snapshot(self) -> Tuple[int, ...]:
        """Serve one-shot reads at the server's current stable vector."""
        return self.server.stabilization.stable_vec

    def snapshot_lower_bound(self, snapshot) -> int:
        """Scalar cut every vector entry covers (GC / oldest-active bound)."""
        return min(snapshot) if isinstance(snapshot, tuple) else snapshot

    def snapshot_upper_bound(self, snapshot) -> int:
        """Freshest scalar cut the vector may expose (visibility probes)."""
        return max(snapshot) if isinstance(snapshot, tuple) else snapshot

    # ------------------------------------------------------------------
    # Commit dependencies
    # ------------------------------------------------------------------
    def finalize_deps(self, deps, commit_ts: int, write_partitions) -> Tuple[int, ...]:
        """Raise the write-cohort entries to ct (atomic sibling visibility)."""
        server = self.server
        vec = list(deps) if deps is not None else [0] * server.spec.n_dcs
        for partition in write_partitions:
            dc = server.membership.preferred_dc(partition, server.dc_id)
            if vec[dc] < commit_ts:
                vec[dc] = commit_ts
        return tuple(vec)

    # ------------------------------------------------------------------
    # Read-slice service: predicate reads over the vector
    # ------------------------------------------------------------------
    def serve_read_slice(self, msg: ReadSliceReq, reply: Callable) -> None:
        """Freshest version whose source entry and dep vector are covered."""
        server = self.server
        bounds = msg.snapshot

        def _visible(version: Version) -> bool:
            if version.ut > bounds[version.sr]:
                return False
            deps = version.deps
            if deps is None:
                return True
            return all(entry <= bound for entry, bound in zip(deps, bounds))

        versions: List[Tuple[str, Version]] = []
        for key in msg.keys:
            version = server.store.read_visible(key, _visible)
            if version is None:
                raise LookupError(
                    f"key {key!r} unknown at {server.address}; dataset must be preloaded"
                )
            versions.append((key, version))
        server.metrics.read_slices_served += 1
        reply(ReadSliceResp(tuple(versions)))


class CureClient(PaRiSClient):
    """Session client carrying a per-DC vector instead of a scalar snapshot.

    The private write cache is consulted only as an *overlay* after the
    fetch, never served blind.  Under a scalar stable snapshot a cached
    own-write is always at least as fresh as anything the store can return
    (the prune cut and the read cut are the same number); under a vector
    snapshot they diverge — the cache is pruned at ``min(V)`` while store
    reads return versions up to the per-DC entries — so serving the cache
    blind can pair a stale own-write with fresher sibling keys and fracture
    the causal snapshot.  Fetch-then-overlay keeps read-your-writes and the
    snapshot guarantee at once.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.last_snapshot = (0,) * self.spec.n_dcs
        #: Per-DC commit timestamps of this session's own update transactions
        #: (folded into commit dependencies; the write cache covers reads).
        self._own_vec = [0] * self.spec.n_dcs

    def _merge_snapshot(self, snapshot) -> None:
        """Entrywise-max merge of the assigned vector snapshot."""
        self.last_snapshot = tuple(
            max(a, b) for a, b in zip(self.last_snapshot, snapshot)
        )

    def _prune_cache(self) -> None:
        """Prune at the vector's minimum: the scalar cut every entry covers."""
        self.cache.prune(min(self.last_snapshot))

    # ------------------------------------------------------------------
    # Reads: always fetch, overlay the cache only when genuinely newer
    # ------------------------------------------------------------------
    def _read_locally(self, key: str):
        """WS and RS hits only; cached own-writes go through the fetch."""
        if key in self._write_set or key in self._read_set:
            return super()._read_locally(key)
        return None

    def _on_read(self, resp, results):
        for key, version in resp.versions:
            cached = self.cache.lookup(key)
            if cached is not None and cached.newer_than(version):
                result = ReadResult(key, cached.value, "wc", cached)
            else:
                result = ReadResult(key, version.value, "store", version)
            results[key] = result
            self._read_set[key] = result
        self._record_read(results)
        return results

    def read_only(self, keys) -> Future:
        """One-shot read; every key is fetched, ``_on_one_shot`` overlays."""
        if self._tid is not None:
            raise TransactionStateError(
                "read_only cannot run inside an interactive transaction"
            )
        wanted = list(dict.fromkeys(keys))
        if not wanted:
            self._record_one_shot({}, self.last_snapshot)
            done = Future()
            done.resolve({})
            return done
        request = OneShotReadReq(self._snapshot_floor(), tuple(wanted))
        return self.request(self.coordinator, request).map(self._on_one_shot, {})

    def _commit_deps(self) -> tuple:
        """The session's dependency vector: observed cut + own commits."""
        return tuple(max(a, b) for a, b in zip(self.last_snapshot, self._own_vec))

    def _on_committed(self, resp) -> int:
        if resp.cohorts:
            cohorts = {dc for _, dc in resp.cohorts}
        else:
            cohorts = {
                self.membership.preferred_dc(self.spec.key_to_partition(key), self.dc_id)
                for key in self._write_set
            }
        commit_ts = super()._on_committed(resp)
        for dc in cohorts:
            if self._own_vec[dc] < commit_ts:
                self._own_vec[dc] = commit_ts
        return commit_ts


class CureServer(ProtocolServer):
    """Cure: vector stabilization + vector-snapshot non-blocking reads."""

    __slots__ = ()

    components = ComponentSet(reads=CureReadProtocol, stabilization=CureStabilization)


CURE = register(
    ProtocolSpec(
        name="cure",
        description=(
            "per-DC dependency vectors (Cure): non-blocking reads at a vector "
            "snapshot entrywise fresher than the scalar UST, O(#DCs) metadata"
        ),
        server_cls=CureServer,
        client_cls=CureClient,
        snapshot="usv-vector",
        visibility="usv",
        blocking_reads=False,
        consistency="tcc",
    )
)
