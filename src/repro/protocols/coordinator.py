"""TxCoordinator: the 2PC engine (Algorithms 2 and 3, write path).

One of the four engine components composed by
:class:`~repro.protocols.engine.ProtocolServer`.  The coordinator owns the
transaction lifecycle on both sides of 2PC:

* **coordinator role** (Algorithm 2) for transactions started by clients
  connected to this server: opens contexts, fans reads out to preferred
  replicas (delegating snapshot policy to the read protocol component),
  and drives prepare/commit over the write partitions;
* **cohort role** (Algorithm 3, write path) for prepares and commit
  decisions arriving from any coordinator in any DC: votes commit
  timestamps from the HLC and hands decided transactions to the
  replication pipeline's apply queue.

Snapshot *policy* — what timestamp a transaction reads at — lives entirely
in the read protocol component; the coordinator only orchestrates.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from ..cluster.topology import server_address
from ..core.messages import (
    CommitReq,
    CommitResp,
    CommitTxMsg,
    FinishTxMsg,
    OneShotReadReq,
    OneShotReadResp,
    PrepareReq,
    PrepareResp,
    ReadReq,
    ReadResp,
    ReadSliceReq,
    ReadSliceResp,
    StartTxReq,
    StartTxResp,
)
from ..sim.future import Future, gather
from ..storage.version import TransactionId, Version

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from .engine import ProtocolServer


@dataclass
class TxContext:
    """Coordinator-side state of a running transaction (TX[idT])."""

    snapshot: int
    created_at: float


@dataclass
class PreparedTx:
    """An entry of the Prepared queue (Algorithm 3 line 13)."""

    tid: TransactionId
    proposed_ts: int
    writes: Tuple[Tuple[str, Any], ...]


def _merged(responses: List[ReadSliceResp]) -> Tuple[Tuple[str, Version], ...]:
    """The versions of every slice, in slice order."""
    merged: List[Tuple[str, Version]] = []
    for response in responses:
        merged.extend(response.versions)
    return tuple(merged)


class TxCoordinator:
    """Start/read-fan-out/prepare/commit orchestration for one server."""

    __slots__ = ("server", "contexts", "prepared", "_tx_seq")

    def __init__(self, server: "ProtocolServer") -> None:
        self.server = server
        self._tx_seq = itertools.count(1)
        #: Open transaction contexts keyed by transaction id (TX).
        self.contexts: Dict[TransactionId, TxContext] = {}
        #: 2PC prepared queue keyed by transaction id (Prepared).
        self.prepared: Dict[TransactionId, PreparedTx] = {}

    def dispatch(self) -> Dict[type, Callable]:
        """Message types this component handles, as a bound-method table."""
        return {
            StartTxReq: self.handle_start_tx,
            ReadReq: self.handle_read,
            OneShotReadReq: self.handle_one_shot_read,
            CommitReq: self.handle_commit,
            FinishTxMsg: self.handle_finish_tx,
            PrepareReq: self.handle_prepare,
            CommitTxMsg: self.handle_commit_tx,
        }

    # ------------------------------------------------------------------
    # Coordinator role (Algorithm 2)
    # ------------------------------------------------------------------
    def handle_start_tx(self, src: str, msg: StartTxReq, reply: Callable) -> None:
        """Algorithm 2, START: assign a snapshot and open a context."""
        server = self.server
        snapshot = server.reads.assign_snapshot(msg.client_snapshot)
        tid: TransactionId = (next(self._tx_seq), server.uid)
        self.contexts[tid] = TxContext(snapshot, server.sim.now)
        reply(StartTxResp(tid, snapshot))

    def handle_read(self, src: str, msg: ReadReq, reply: Callable) -> None:
        """Algorithm 2, READ: fan slices out to preferred replicas, merge."""
        snapshot = self.context_snapshot(msg.tid)
        gather(self._request_slices(msg.keys, snapshot), self._respond_read, reply)

    def _request_slices(self, keys: Tuple[str, ...], snapshot: Any) -> List[Future]:
        """One :class:`ReadSliceReq` per partition of ``keys``, to its preferred replica."""
        server = self.server
        route = server.spec.key_to_partition
        slices: Dict[int, List[str]] = {}
        for key in keys:
            slices.setdefault(route(key), []).append(key)
        preferred_dc = server.membership.preferred_dc
        dc_id = server.dc_id
        return [
            server.request(
                server_address(preferred_dc(partition, dc_id), partition),
                ReadSliceReq(tuple(slice_keys), snapshot),
            )
            for partition, slice_keys in slices.items()
        ]

    def _respond_read(self, responses: List[ReadSliceResp], reply: Callable) -> None:
        """Merge the slices and answer the client's READ."""
        reply(ReadResp(_merged(responses)))

    def handle_one_shot_read(self, src: str, msg: OneShotReadReq, reply: Callable) -> None:
        """One-round read-only transaction: assign snapshot, fan out, reply.

        No transaction context is created — the snapshot is consumed within
        this call, so there is nothing for the GC bound to pin and nothing
        for the timeout cleaner to reclaim.
        """
        snapshot = self.server.reads.assign_snapshot(msg.client_snapshot)
        gather(
            self._request_slices(msg.keys, snapshot), self._respond_one_shot, snapshot, reply
        )

    def _respond_one_shot(
        self, responses: List[ReadSliceResp], snapshot: Any, reply: Callable
    ) -> None:
        """Merge the slices and answer the one-shot read."""
        reply(OneShotReadResp(snapshot, _merged(responses)))

    def handle_commit(self, src: str, msg: CommitReq, reply: Callable) -> None:
        """Algorithm 2, COMMIT: run 2PC over the write partitions."""
        server = self.server
        tid = msg.tid
        snapshot = self.context_snapshot(tid)
        highest = max(server.reads.snapshot_upper_bound(snapshot), msg.highest_write_ts)
        if not msg.writes:
            # Defensive: Algorithm 1 only commits when WS is non-empty.
            self.contexts.pop(tid, None)
            reply(CommitResp(tid, highest))
            return
        route = server.spec.key_to_partition
        slices: Dict[int, List[Tuple[str, Any]]] = {}
        for pair in msg.writes:
            slices.setdefault(route(pair[0]), []).append(pair)
        cohorts: List[Tuple[int, int]] = []
        futures = []
        for partition, pairs in slices.items():
            target_dc = server.membership.preferred_dc(partition, server.dc_id)
            cohorts.append((partition, target_dc))
            futures.append(
                server.request(
                    server_address(target_dc, partition),
                    PrepareReq(tid, snapshot, highest, tuple(pairs)),
                )
            )
        gather(futures, self._decide, msg, tuple(cohorts), reply)

    def _decide(
        self,
        responses: List[PrepareResp],
        msg: CommitReq,
        cohorts: Tuple[Tuple[int, int], ...],
        reply: Callable,
    ) -> None:
        """2PC decision: max of the votes, then notify every cohort."""
        server = self.server
        tid = msg.tid
        commit_ts = max([response.proposed_ts for response in responses])
        final_deps = server.reads.finalize_deps(
            msg.deps, commit_ts, tuple([partition for partition, _dc in cohorts])
        )
        # One decision, one message: every cohort is cast the same object.
        decision = CommitTxMsg(tid, commit_ts, server.sim.now, final_deps)
        for partition, target_dc in cohorts:
            server.cast(server_address(target_dc, partition), decision)
        self.contexts.pop(tid, None)
        if server.tracer.enabled:
            server.tracer.emit(
                server.sim.now, "commit", server.address,
                tid=tid, commit_ts=commit_ts, partitions=len(cohorts),
            )
        reply(CommitResp(tid, commit_ts, cohorts))

    def handle_finish_tx(self, src: str, msg: FinishTxMsg, reply: Callable) -> None:
        """Read-only transactions end here: free the coordinator context."""
        self.contexts.pop(msg.tid, None)

    def context_snapshot(self, tid: TransactionId) -> int:
        """Snapshot of a running transaction; falls back per read protocol.

        The fallback covers contexts expired by the background cleanup: the
        stable cut is monotonic, so a re-assigned snapshot is never older
        than the one originally handed to the client.
        """
        context = self.contexts.get(tid)
        if context is not None:
            return context.snapshot
        return self.server.reads.fallback_snapshot()

    # ------------------------------------------------------------------
    # Cohort role (Algorithm 3, write path)
    # ------------------------------------------------------------------
    def handle_prepare(self, src: str, msg: PrepareReq, reply: Callable) -> None:
        """Algorithm 3, prepare: vote a commit timestamp, queue the writes."""
        server = self.server
        new_hlc = server.hlc.update(msg.highest_ts)
        server.reads.observe_snapshot(msg.snapshot)
        proposed = max(new_hlc, server.ust)
        server.hlc.observe(proposed)
        self.prepared[msg.tid] = PreparedTx(msg.tid, proposed, msg.writes)
        reply(PrepareResp(msg.tid, proposed))

    def handle_commit_tx(self, src: str, msg: CommitTxMsg, reply: Callable) -> None:
        """Algorithm 3, commit: move the transaction to the committed queue."""
        server = self.server
        server.hlc.observe(msg.commit_ts)
        prepared = self.prepared.pop(msg.tid, None)
        if prepared is None:
            raise KeyError(f"commit for unknown prepared transaction {msg.tid}")
        heapq.heappush(
            server.replication.committed,
            (msg.commit_ts, msg.tid, prepared.writes, msg.decided_at, msg.deps),
        )

    # ------------------------------------------------------------------
    # Shared inputs for the other components
    # ------------------------------------------------------------------
    def prepared_floor(self) -> Optional[int]:
        """``min(prepared pt)``, or None when the prepared queue is empty.

        The replication pipeline subtracts one from this to get the version
        clock bound (Algorithm 4 lines 6-7).
        """
        if self.prepared:
            return min(entry.proposed_ts for entry in self.prepared.values())
        return None

    def oldest_active_snapshot(self) -> int:
        """GC input: the oldest running transaction's snapshot, else the UST.

        Snapshots are reduced to their scalar lower bound first, so vector
        snapshots (cure) pin the GC horizon at their minimum entry.
        """
        reads = self.server.reads
        if self.contexts:
            return min(
                reads.snapshot_lower_bound(context.snapshot)
                for context in self.contexts.values()
            )
        return reads.snapshot_lower_bound(reads.fallback_snapshot())

    # ------------------------------------------------------------------
    # Maintenance / lifecycle
    # ------------------------------------------------------------------
    def expire_contexts(self) -> None:
        """Drop contexts older than the timeout (client failures)."""
        server = self.server
        deadline = server.sim.now - server.config.protocol.tx_context_timeout
        expired = [
            tid for tid, context in self.contexts.items() if context.created_at < deadline
        ]
        for tid in expired:
            del self.contexts[tid]
        server.metrics.contexts_expired += len(expired)

    def on_crash(self) -> None:
        """Drop volatile coordinator state (open transaction contexts).

        The prepared queue survives: 2PC forces it to disk before
        acknowledging (Section III-C).
        """
        self.contexts.clear()
