"""The PaRiS client (Algorithm 1): sessions, WS/RS, and the private cache.

A client opens a session against one coordinator partition in its local DC
and runs interactive read-write transactions:

    handle = yield client.start_tx()
    values = yield client.read(["x", "y"])
    client.write({"x": 1})
    commit_ts = yield client.commit()        # or client.finish() if read-only

All network-facing methods return simulation futures, so client logic runs
as generator processes on the DES kernel.  Reads consult the write set, read
set and write cache (in that order) before going to the store — that order
gives read-your-writes and repeatable reads (Section IV-B).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..cluster.membership import Membership
from ..cluster.topology import ClusterSpec, client_address, server_address
from ..config import SimulationConfig
from ..sim.future import Future
from ..sim.network import Network, Node
from ..storage.version import TransactionId, Version
from .cache import WriteCache
from .messages import (
    CommitReq,
    CommitResp,
    FinishTxMsg,
    OneShotReadReq,
    OneShotReadResp,
    ReadReq,
    ReadResp,
    StartTxReq,
    StartTxResp,
)


class TransactionStateError(RuntimeError):
    """Raised when the client API is used outside the start/commit protocol."""


@dataclass(frozen=True, slots=True)
class ReadResult:
    """One key's outcome of a transactional read.

    ``source`` records where the value came from: the transaction's own write
    set (``ws``), its read set (``rs``), the private write cache (``wc``), or
    a server (``store``).  ``version`` is None only for ``ws`` reads, whose
    value has no commit timestamp yet.  One is built per key read, so the
    clients construct it positionally: ``ReadResult(key, value, source,
    version)``.
    """

    key: str
    value: Any
    source: str
    version: Optional[Version]


@dataclass(frozen=True)
class TransactionHandle:
    """Identifier and snapshot of the running transaction."""

    tid: TransactionId
    snapshot: int


class PaRiSClient(Node):
    """A client session bound to a coordinator partition in its local DC."""

    def __init__(
        self,
        network: Network,
        spec: ClusterSpec,
        config: SimulationConfig,
        dc_id: int,
        coordinator_partition: int,
        client_index: int = 0,
        oracle: Optional["StreamingOracle"] = None,
        membership: Optional[Membership] = None,
    ) -> None:
        address = client_address(dc_id, coordinator_partition, client_index)
        super().__init__(network, address, dc_id, cpu=None)
        self.spec = spec
        self.config = config
        #: Live replica placement; with no membership changes this mirrors
        #: ``spec`` exactly (clients built standalone get a private copy).
        self.membership = membership if membership is not None else Membership(spec)
        self.coordinator = server_address(dc_id, coordinator_partition)
        self.coordinator_partition = coordinator_partition
        self.oracle = oracle
        #: Coordinator re-route deferred until the open transaction closes.
        self._pending_coordinator: Optional[str] = None

        #: Highest stable snapshot observed by this client (ust_c).
        self.last_snapshot = 0
        #: Commit timestamp of the client's last update transaction (hwt_c).
        self.highest_write_ts = 0
        #: Private cache of own writes not yet in the stable snapshot (WC_c).
        self.cache = WriteCache()

        self._tid: Optional[TransactionId] = None
        self._snapshot: Optional[int] = None
        self._write_set: Dict[str, Any] = {}
        self._read_set: Dict[str, ReadResult] = {}
        self.transactions_committed = 0
        self.transactions_finished = 0
        #: One-shot read-only transactions recorded with the oracle so far
        #: (their trace ids are ``(seq, -1)``).
        self._one_shot_seq = 0
        #: Stale-read retry rounds (only the occult client increments this).
        self.read_retries = 0

    # ------------------------------------------------------------------
    # Session state
    # ------------------------------------------------------------------
    @property
    def in_transaction(self) -> bool:
        """Whether a transaction is currently open."""
        return self._tid is not None

    def _require_transaction(self) -> TransactionId:
        if self._tid is None:
            raise TransactionStateError("no transaction in progress; call start_tx first")
        return self._tid

    def _snapshot_floor(self) -> int:
        """The snapshot lower bound piggybacked on START-TX.

        PaRiS sends the last observed stable snapshot; own fresher writes are
        covered by the write cache, not the snapshot.
        """
        return self.last_snapshot

    def _merge_snapshot(self, snapshot) -> None:
        """Fold a server-assigned snapshot into ``last_snapshot``.

        Scalar snapshots merge by max; the cure client overrides this with
        an entrywise-max merge over its vector snapshot.
        """
        if snapshot > self.last_snapshot:
            self.last_snapshot = snapshot

    def _commit_deps(self):
        """Dependency summary shipped with COMMIT-TX (``None`` for PaRiS).

        Variants that track causal dependencies client-side (cure's per-DC
        vector, occult's shardstamps, cops' nearest dependencies) override
        this; the coordinator finalizes it at decision time.
        """
        return None

    def _prune_cache(self) -> None:
        """Drop cached own-writes the stable snapshot now covers (Alg. 1 l. 6).

        The prune is sound because PaRiS snapshots are *stable*: once
        ``last_snapshot`` covers a write, every server-side read at that
        snapshot returns it.  Variants whose snapshots are not stable times
        (e.g. the ``eventual`` protocol) override this with a no-op.
        """
        self.cache.prune(self.last_snapshot)

    # ------------------------------------------------------------------
    # START (Algorithm 1 lines 1-7)
    # ------------------------------------------------------------------
    def start_tx(self) -> Future:
        """Begin a transaction; resolves to a :class:`TransactionHandle`."""
        if self._tid is not None:
            raise TransactionStateError("a transaction is already in progress")
        request = StartTxReq(self._snapshot_floor())
        return self.request(self.coordinator, request).map(self._on_started)

    def _on_started(self, resp: StartTxResp) -> TransactionHandle:
        self._tid = resp.tid
        self._snapshot = resp.snapshot
        self._read_set = {}
        self._write_set = {}
        self._merge_snapshot(resp.snapshot)
        self._prune_cache()
        return TransactionHandle(resp.tid, resp.snapshot)

    # ------------------------------------------------------------------
    # READ (Algorithm 1 lines 8-20)
    # ------------------------------------------------------------------
    def read(self, keys: Sequence[str]) -> Future:
        """Parallel read; resolves to ``{key: ReadResult}``.

        Duplicate keys are served once.  Keys found in WS/RS/WC never reach
        the network, so the call resolves immediately when everything is
        local.
        """
        tid = self._require_transaction()
        wanted = list(dict.fromkeys(keys))
        results: Dict[str, ReadResult] = {}
        remote: List[str] = []
        for key in wanted:
            local = self._read_locally(key)
            if local is not None:
                results[key] = local
            else:
                remote.append(key)
        if not remote:
            self._record_read(results)
            done = Future()
            done.resolve(results)
            return done
        request = ReadReq(tid, tuple(remote))
        return self.request(self.coordinator, request).map(self._on_read, results)

    def _read_locally(self, key: str) -> Optional[ReadResult]:
        if key in self._write_set:
            return ReadResult(key, self._write_set[key], "ws", None)
        if key in self._read_set:
            previous = self._read_set[key]
            return ReadResult(key, previous.value, "rs", previous.version)
        cached = self.cache.lookup(key)
        if cached is not None:
            return ReadResult(key, cached.value, "wc", cached)
        return None

    def _on_read(self, resp: ReadResp, results: Dict[str, ReadResult]) -> Dict[str, ReadResult]:
        read_set = self._read_set
        for key, version in resp.versions:
            results[key] = read_set[key] = ReadResult(key, version.value, "store", version)
        self._record_read(results)
        return results

    def _record_read(self, results: Mapping[str, ReadResult]) -> None:
        if self.oracle is not None and self._tid is not None:
            self.oracle.record_read(
                client=self.address,
                tid=self._tid,
                snapshot=self._snapshot if self._snapshot is not None else 0,
                results=dict(results),
                at=self.sim.now,
            )

    # ------------------------------------------------------------------
    # One-round read-only transactions
    # ------------------------------------------------------------------
    def read_only(self, keys: Sequence[str]) -> Future:
        """A whole read-only transaction in a single client-server round.

        Equivalent to ``start_tx(); read(keys); finish()`` but with one RPC:
        the coordinator assigns the snapshot and fans the read out itself —
        the one-round ROT the paper's non-blocking reads enable.  Resolves to
        ``{key: ReadResult}``.  The client's own fresher writes (WC) overlay
        the returned snapshot, exactly as in an interactive transaction.
        """
        if self._tid is not None:
            raise TransactionStateError(
                "read_only cannot run inside an interactive transaction"
            )
        wanted = list(dict.fromkeys(keys))
        cached: Dict[str, ReadResult] = {}
        remote: List[str] = []
        for key in wanted:
            version = self.cache.lookup(key)
            if version is not None:
                cached[key] = ReadResult(key, version.value, "wc", version)
            else:
                remote.append(key)
        if not remote:
            self._record_one_shot(cached, self.last_snapshot)
            done = Future()
            done.resolve(cached)
            return done
        request = OneShotReadReq(self._snapshot_floor(), tuple(remote))
        return self.request(self.coordinator, request).map(self._on_one_shot, cached)

    def _on_one_shot(
        self, resp: OneShotReadResp, results: Dict[str, ReadResult]
    ) -> Dict[str, ReadResult]:
        self._merge_snapshot(resp.snapshot)
        self._prune_cache()
        for key, version in resp.versions:
            fresher = self.cache.lookup(key)
            if fresher is not None and fresher.newer_than(version):
                results[key] = ReadResult(key, fresher.value, "wc", fresher)
            else:
                results[key] = ReadResult(key, version.value, "store", version)
        self._record_one_shot(results, resp.snapshot)
        return results

    def _record_one_shot(self, results: Mapping[str, ReadResult], snapshot: int) -> None:
        if self.oracle is not None:
            self._one_shot_seq += 1
            self.oracle.record_read(
                client=self.address,
                tid=(self._one_shot_seq, -1),
                snapshot=snapshot,
                results=dict(results),
                at=self.sim.now,
            )
        self.transactions_finished += 1

    # ------------------------------------------------------------------
    # WRITE (Algorithm 1 lines 21-25)
    # ------------------------------------------------------------------
    def write(self, pairs: Mapping[str, Any] | Iterable[Tuple[str, Any]]) -> None:
        """Buffer writes in the transaction's write set."""
        self._require_transaction()
        items = pairs.items() if isinstance(pairs, Mapping) else pairs
        for key, value in items:
            self._write_set[key] = value

    # ------------------------------------------------------------------
    # COMMIT (Algorithm 1 lines 26-32)
    # ------------------------------------------------------------------
    def commit(self) -> Future:
        """Finalize the transaction; resolves to its commit timestamp."""
        tid = self._require_transaction()
        if not self._write_set:
            raise TransactionStateError(
                "commit with an empty write set; use finish() for read-only transactions"
            )
        request = CommitReq(
            tid, self.highest_write_ts, tuple(self._write_set.items()), self._commit_deps()
        )
        return self.request(self.coordinator, request).map(self._on_committed)

    def _on_committed(self, resp: CommitResp) -> int:
        commit_ts = resp.commit_ts
        self.highest_write_ts = commit_ts
        # Version provenance comes from the coordinator's cohort echo: the
        # replica that actually applied each slice, even if a membership
        # change re-routed the partition while the commit was in flight.
        cohort_map = dict(resp.cohorts)
        route = self.spec.key_to_partition
        tid = resp.tid
        written: Dict[str, Version] = {}
        for key, value in self._write_set.items():
            partition = route(key)
            source_dc = cohort_map.get(partition)
            if source_dc is None:
                source_dc = self.membership.preferred_dc(partition, self.dc_id)
            version = Version(key, value, commit_ts, tid, source_dc)
            self.cache.insert(version)
            written[key] = version
        if self.oracle is not None:
            self.oracle.record_commit(
                client=self.address,
                tid=resp.tid,
                commit_ts=commit_ts,
                written=written,
                read_versions=[
                    result.version
                    for result in self._read_set.values()
                    if result.version is not None
                ],
                at=self.sim.now,
            )
        self.transactions_committed += 1
        self._clear_transaction()
        return commit_ts

    def finish(self) -> None:
        """Close a read-only transaction (frees the coordinator context)."""
        tid = self._require_transaction()
        if self._write_set:
            raise TransactionStateError("transaction has buffered writes; call commit()")
        self.cast(self.coordinator, FinishTxMsg(tid))
        self.transactions_finished += 1
        self._clear_transaction()

    def abort_local(self) -> None:
        """Drop local transaction state without contacting the coordinator.

        Models a client failure mid-transaction; the coordinator context is
        reclaimed by its background timeout (Section III-C).
        """
        self._clear_transaction()

    def rebind_coordinator(self, partition: int) -> None:
        """Re-route the session to another local coordinator partition.

        Used when a membership change retires this session's coordinator
        replica.  An open transaction keeps talking to the old coordinator
        (its context lives there, and the drain window lets it finish); the
        swap takes effect when the transaction closes.
        """
        address = server_address(self.dc_id, partition)
        self.coordinator_partition = partition
        if self._tid is not None:
            self._pending_coordinator = address
        else:
            self.coordinator = address

    def _clear_transaction(self) -> None:
        self._tid = None
        self._snapshot = None
        self._write_set = {}
        self._read_set = {}
        if self._pending_coordinator is not None:
            self.coordinator = self._pending_coordinator
            self._pending_coordinator = None
