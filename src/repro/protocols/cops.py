"""The ``cops`` protocol variant: explicit dependency checking (COPS/Eiger).

The oldest point in the design space: no stabilization plane at all.  The
engine composes only three components (``ComponentSet.stabilization`` is
``None``) — no UST/GST tree, no aggregation or broadcast traffic, no
stable snapshot.  Instead, causality is enforced at **replication apply
time**: every version carries its *nearest dependencies* as explicit
``(key, ut)`` pairs, and a replica applies a remote transaction only after
checking — against the local replica of each dependency's partition — that
the dependency is already installed there (``DepCheckReq``; the target
parks the check until it is satisfied).  Local commits apply ungated, as
in COPS: the origin DC wrote the dependencies first by session order.

What this buys and costs, measured by the design-space study:

* zero stabilization message overhead, and remote visibility latency that
  tracks the dependency chain rather than a global stabilization round;
* metadata linear in the number of dependencies (16 bytes per pair), which
  grows with the session's read set where cure pays a flat O(#DCs);
* **no total stabilization cut**, so the GC bound never advances (version
  chains are kept whole) and there is nothing to make one-round multi-key
  reads a causal snapshot: reads return the freshest installed versions,
  which is exactly the write-visible-before-its-cause fracture the paper
  opens with (Section III-A) when a read spans partitions.  The registered
  consistency level is therefore ``"session"`` — read-your-writes via the
  unpruned write cache, monotonic reads via per-replica apply order, and
  Proposition 1 commit timestamps — the same honest claim ``eventual``
  makes, but with causally gated *replication*.

Fidelity note: dependencies are ``(key, ut)`` pairs without the tid/sr
tie-break, so two same-``ut`` versions of one key are indistinguishable to
the apply gate.  This can only ever weaken the causal-snapshot guarantee
cops does not claim; the session guarantees never consult the dep gate.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

from ..cluster.topology import server_address
from ..core.client import PaRiSClient
from ..core.messages import DepCheckReq, DepCheckResp, ReadSliceReq, ReadSliceResp, ReplicatedTx, ReplicateMsg
from ..sim.future import Future, gather
from ..storage.version import Version
from .engine import ComponentSet, ProtocolServer
from .reads import ReadProtocol
from .registry import ProtocolSpec, register
from .replication import ReplicationPipeline

#: Visibility threshold for a protocol where "applied" means "readable":
#: probes record the moment the update is installed, nothing ever parks.
_ALWAYS_VISIBLE = 1 << 62


class CopsReadProtocol(ReadProtocol):
    """Fresh clock snapshots, freshest installed versions, no waiting."""

    __slots__ = ()

    def assign_snapshot(self, client_snapshot: int) -> int:
        """The freshest of the client's floor and the coordinator clock.

        There is no stabilization plane to consult; the snapshot is only a
        bookkeeping floor (commit timestamps, oracle records).
        """
        return max(client_snapshot, self.server.hlc.now())

    def observe_snapshot(self, snapshot: int) -> None:
        """No UST exists to adopt snapshots into."""

    def fallback_snapshot(self) -> int:
        """One-shot reads run at the current clock: freshest-wins, no cut."""
        return self.server.hlc.now()

    def serve_read_slice(self, msg: ReadSliceReq, reply: Callable) -> None:
        """Answer with the freshest installed version of every key."""
        server = self.server
        versions: List[Tuple[str, Version]] = []
        for key in msg.keys:
            version = server.store.read_latest(key)
            if version is None:
                raise LookupError(
                    f"key {key!r} unknown at {server.address}; dataset must be preloaded"
                )
            versions.append((key, version))
        server.metrics.read_slices_served += 1
        reply(ReadSliceResp(tuple(versions)))

    def visibility_threshold(self) -> int:
        """An update is readable the moment the dep-gated apply installs it."""
        return _ALWAYS_VISIBLE


class CopsReplication(ReplicationPipeline):
    """Apply remote transactions only after their dependencies check out."""

    __slots__ = ("parked_checks",)

    def __init__(self, server: "ProtocolServer") -> None:
        super().__init__(server)
        #: Unsatisfied dependency checks: key -> [(ut, wake, arg)]; a
        #: satisfied check is woken with ``wake(arg)``.
        self.parked_checks: Dict[str, List[Tuple[int, Callable[[Any], None], Any]]] = {}

    def dispatch(self) -> Dict[type, Callable]:
        """Extend the base table with the dependency-check RPC."""
        table = super().dispatch()
        table[DepCheckReq] = self.handle_dep_check
        return table

    # ------------------------------------------------------------------
    # Inbound replication: gate each group on its dependencies
    # ------------------------------------------------------------------
    def handle_replicate(self, src: str, msg: ReplicateMsg, reply: Callable) -> None:
        """Check deps per group; apply each as its checks complete.

        The watermark still advances the peer's VV entry: nothing in cops
        consults ``min(VV)`` for correctness (no shardstamps, no UST), and
        keeping the clock moving keeps the shared heartbeat path intact.
        """
        for group in msg.groups:
            self._apply_when_satisfied(group)
        self.advance_peer_clock(src, msg.watermark)

    def _apply_when_satisfied(self, group: ReplicatedTx) -> None:
        """COPS apply gate: wait until every ``(key, ut)`` dep is installed."""
        server = self.server
        waits: List[Future] = []
        for key, ut in group.deps or ():
            partition = server.spec.key_to_partition(key)
            if partition == server.partition:
                local = server.store.read_latest(key)
                if local is not None and local.ut >= ut:
                    continue
                future = Future()
                self.parked_checks.setdefault(key, []).append((ut, future.resolve, None))
                waits.append(future)
            else:
                target = server_address(
                    server.membership.preferred_dc(partition, server.dc_id), partition
                )
                waits.append(server.request(target, DepCheckReq(key, ut)))
        gather(waits, self._apply_remote, group)

    def _apply_remote(self, _acks: List[Any], group: ReplicatedTx) -> None:
        """Every dependency check of ``group`` has answered (at once if none)."""
        self.apply_writes(
            group.writes,
            group.commit_ts,
            group.tid,
            group.source_dc,
            group.decided_at,
            group.deps,
            dedup=True,
        )

    # ------------------------------------------------------------------
    # Serving dependency checks for other partitions' replicas
    # ------------------------------------------------------------------
    def handle_dep_check(self, src: str, msg: DepCheckReq, reply: Callable) -> None:
        """Reply once a version of ``key`` with ``ut >= msg.ut`` is installed."""
        local = self.server.store.read_latest(msg.key)
        response = DepCheckResp(msg.key, msg.ut)
        if local is not None and local.ut >= msg.ut:
            reply(response)
            return
        self.parked_checks.setdefault(msg.key, []).append((msg.ut, reply, response))

    def apply_writes(
        self,
        writes: Tuple[Tuple[str, Any], ...],
        commit_ts: int,
        tid,
        source_dc: int,
        decided_at: float,
        deps: Any = None,
        dedup: bool = False,
    ) -> None:
        """Install the writes, then wake any checks they satisfy."""
        super().apply_writes(
            writes, commit_ts, tid, source_dc, decided_at, deps, dedup=dedup
        )
        parked = self.parked_checks
        if not parked:
            return
        for key, _value in writes:
            entries = parked.get(key)
            if not entries:
                continue
            installed = self.server.store.read_latest(key)
            satisfied = [entry for entry in entries if installed.ut >= entry[0]]
            if not satisfied:
                continue
            remaining = [entry for entry in entries if installed.ut < entry[0]]
            if remaining:
                parked[key] = remaining
            else:
                del parked[key]
            # Waking may recursively apply a parked group (and so re-enter
            # this method for other keys); the dict is updated first so the
            # recursion never sees a stale entry.
            for _ut, wake, arg in satisfied:
                wake(arg)

    def on_crash(self) -> None:
        """Parked checks are soft state; peers retransmit after recovery."""
        self.parked_checks.clear()


class CopsServer(ProtocolServer):
    """COPS: three components, no stabilization plane."""

    __slots__ = ()

    components = ComponentSet(
        reads=CopsReadProtocol, replication=CopsReplication, stabilization=None
    )


class CopsClient(PaRiSClient):
    """Session client tracking nearest dependencies as ``(key, ut)`` pairs.

    After a commit the dependency set collapses to the transaction's own
    writes (they transitively cover everything older — COPS's nearest-
    dependency optimisation); between commits every read folds in.  The
    write cache is never pruned: clock snapshots are not stable times, so
    read-your-writes rides on the cache exactly as in ``eventual``.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: Nearest dependencies of the session: key -> highest observed ut.
        self._nearest: Dict[str, int] = {}

    def _snapshot_floor(self) -> int:
        return max(self.last_snapshot, self.highest_write_ts)

    def _prune_cache(self) -> None:
        """Keep every cached own-write: clock snapshots never cover them."""

    def _commit_deps(self) -> Tuple:
        return tuple(sorted(self._nearest.items()))

    def _observe_versions(self, versions) -> None:
        """Fold read versions into the nearest-dep set and the commit floor.

        Raising ``highest_write_ts`` keeps Proposition 1: the next commit's
        timestamp strictly dominates every version the session observed.
        """
        nearest = self._nearest
        for _key, version in versions:
            if version.ut > nearest.get(version.key, 0):
                nearest[version.key] = version.ut
            if version.ut > self.highest_write_ts:
                self.highest_write_ts = version.ut

    def _on_read(self, resp, results):
        self._observe_versions(resp.versions)
        return super()._on_read(resp, results)

    def _on_one_shot(self, resp, results):
        self._observe_versions(resp.versions)
        return super()._on_one_shot(resp, results)

    def _on_committed(self, resp) -> int:
        written = tuple(self._write_set)
        commit_ts = super()._on_committed(resp)
        self._nearest = {key: commit_ts for key in written}
        return commit_ts


COPS = register(
    ProtocolSpec(
        name="cops",
        description=(
            "explicit dependency checking (COPS/Eiger): no stabilization plane, "
            "deps verified at replication apply time"
        ),
        server_cls=CopsServer,
        client_cls=CopsClient,
        snapshot="clock",
        visibility="dep-checked",
        blocking_reads=False,
        consistency="session",
    )
)
