"""The ``occult`` protocol variant: client-side validated reads (NSDI'17).

Occult inverts PaRiS's division of labour.  Servers do **no** causal
waiting at all: a read slice is answered immediately with the freshest
installed version plus the replica's *shardstamp* (its locally stable cut,
``min(VV)``), and replication applies updates without any gate.  The
entire consistency obligation moves to the client, which keeps a **causal
timestamp** per partition — the shardstamps and update times it has
observed, plus the dependency annotations carried by the versions it
reads.  After each read round the client checks that every answering
replica's shardstamp covers the round's requirements; a stale round is
retried after one replication interval, and the retry count is surfaced in
the run summary (``read_retries_total``) — the metric that makes Occult's
"servers never block, clients absorb staleness" trade visible next to
PaRiS's server-side stabilization wait.

Why whole-round retries: a refreshed slice can carry versions whose
dependency annotations impose *new* requirements on slices already
accepted, so validating slices independently never reaches a fixpoint.
Refetching every slice of the read makes each round a self-contained
candidate snapshot, mirroring Occult's transactional reads.

Soundness of the shardstamp check: ``min(VV) >= t`` at a replica implies
(Proposition 2) every update of the partition with ``ct <= t`` is applied
there, so ``shardstamp >= dep_ts`` guarantees the freshest installed
version is at least the dependency in the per-key version order.
Dependency annotations are ``(partition, ts)`` pairs finalized at commit
with every write partition raised to ct, which makes sibling writes of one
transaction pass or fail validation together (atomic visibility).

The default stabilization plane still runs, but only to drive garbage
collection (the ``oldest_global`` bound): snapshots and read visibility
never consult the UST, and clock-fresh snapshots are never adopted into it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

from ..cluster.topology import server_address
from ..core.client import PaRiSClient, ReadResult, TransactionStateError
from ..core.messages import ReadSliceReq, ReadSliceResp
from ..sim.future import Future, gather
from ..storage.version import Version
from .engine import ComponentSet, ProtocolServer
from .reads import ReadProtocol
from .registry import ProtocolSpec, register


class OccultReadProtocol(ReadProtocol):
    """Wait-free slices: freshest installed version + the shardstamp."""

    __slots__ = ()

    def assign_snapshot(self, client_snapshot: int) -> int:
        """The freshest of the client's floor and the coordinator clock."""
        return max(client_snapshot, self.server.hlc.now())

    def observe_snapshot(self, snapshot: int) -> None:
        """Clock snapshots are not stable times: never adopt them into the UST."""

    def serve_read_slice(self, msg: ReadSliceReq, reply: Callable) -> None:
        """Answer with the freshest installed versions and the shardstamp."""
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
        reply(ReadSliceResp(tuple(versions), server.local_stable_time))

    def visibility_threshold(self) -> int:
        """An update counts as visible once the shardstamp covers it.

        That is the moment client-side validation stops rejecting it for
        same-partition requirements — the Occult analogue of "within the
        snapshot".
        """
        return self.server.local_stable_time

    def on_stable_advance(self) -> None:
        """No parked reads to wake; just settle pending visibility probes."""
        self.drain_visibility_probes()

    def finalize_deps(self, deps, commit_ts: int, write_partitions) -> Tuple:
        """Raise every write partition's entry to ct (atomic visibility)."""
        pairs: Dict[int, int] = dict(deps) if deps else {}
        for partition in write_partitions:
            if pairs.get(partition, 0) < commit_ts:
                pairs[partition] = commit_ts
        return tuple(sorted(pairs.items()))


class OccultServer(ProtocolServer):
    """Occult: wait-free servers; consistency enforced client-side."""

    __slots__ = ()

    components = ComponentSet(reads=OccultReadProtocol)


@dataclass(slots=True)
class _ValidatedRead:
    """One validated read across its retry rounds.

    ``plan`` is the fan-out, fixed for every round: one ``(partition, target
    address, keys)`` triple per slice.  ``responses`` holds each partition's
    latest answer; a retry round overwrites in place, so the dict keeps the
    order in which the first round's slices arrived — the order the accepted
    versions are folded into the result (and so into the recorded trace).
    """

    plan: List[Tuple[int, str, Tuple[str, ...]]]
    results: Dict[str, ReadResult]
    done: Future
    one_shot: bool
    responses: Dict[int, ReadSliceResp] = field(default_factory=dict)
    rounds: int = 0


class OccultClient(PaRiSClient):
    """Session client carrying per-partition causal timestamps.

    Reads bypass the coordinator fan-out and go straight to the preferred
    replica of each partition, because validation needs the per-slice
    shardstamps.  The private write cache is consulted only as an *overlay*
    after the fetch (never served blind): a cached own-write carries no
    shardstamp, and answering from it while other keys come fresh from the
    store could fracture a causal snapshot that validation would have
    caught.  Fetch-then-overlay keeps read-your-writes and still validates
    every partition the read touches.
    """

    #: Class switch for the negative checker test: with validation off the
    #: client accepts every round blind, exposing the server-side fracture
    #: the full TCC checker must catch.
    validation_enabled = True
    #: Convergence backstop: shardstamps advance every replication interval,
    #: so a read that is still stale after this many rounds is a bug.
    max_read_retries = 1000

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: Causal timestamp: partition -> highest required/observed ts.
        self._causal_ts: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Session floors and dependency summaries
    # ------------------------------------------------------------------
    def _snapshot_floor(self) -> int:
        return max(self.last_snapshot, self.highest_write_ts)

    def _prune_cache(self) -> None:
        """Keep every cached own-write: clock snapshots never cover them."""

    def _commit_deps(self) -> Tuple:
        return tuple(sorted(self._causal_ts.items()))

    def _on_committed(self, resp) -> int:
        partitions = {self.spec.key_to_partition(key) for key in self._write_set}
        commit_ts = super()._on_committed(resp)
        causal = self._causal_ts
        for partition in partitions:
            if causal.get(partition, 0) < commit_ts:
                causal[partition] = commit_ts
        return commit_ts

    # ------------------------------------------------------------------
    # Validated reads
    # ------------------------------------------------------------------
    def read(self, keys: Sequence[str]) -> Future:
        """Parallel validated read; resolves to ``{key: ReadResult}``."""
        self._require_transaction()
        wanted = list(dict.fromkeys(keys))
        results: Dict[str, ReadResult] = {}
        remote: List[str] = []
        for key in wanted:
            if key in self._write_set:
                results[key] = ReadResult(key, self._write_set[key], "ws", None)
            elif key in self._read_set:
                previous = self._read_set[key]
                results[key] = ReadResult(key, previous.value, "rs", previous.version)
            else:
                remote.append(key)
        done = Future()
        if not remote:
            self._record_read(results)
            done.resolve(results)
            return done
        self._fetch_validated(remote, results, done, one_shot=False)
        return done

    def read_only(self, keys: Sequence[str]) -> Future:
        """One-shot read-only transaction, validated client-side."""
        if self._tid is not None:
            raise TransactionStateError(
                "read_only cannot run inside an interactive transaction"
            )
        wanted = list(dict.fromkeys(keys))
        results: Dict[str, ReadResult] = {}
        done = Future()
        if not wanted:
            self._record_one_shot(results, self.last_snapshot)
            done.resolve(results)
            return done
        self._fetch_validated(wanted, results, done, one_shot=True)
        return done

    def _fetch_validated(
        self,
        keys: List[str],
        results: Dict[str, ReadResult],
        done: Future,
        one_shot: bool,
    ) -> None:
        """Fetch slices from preferred replicas, validate, retry if stale."""
        route = self.spec.key_to_partition
        slices: Dict[int, List[str]] = {}
        for key in keys:
            slices.setdefault(route(key), []).append(key)
        preferred_dc = self.membership.preferred_dc
        plan = [
            (
                partition,
                server_address(preferred_dc(partition, self.dc_id), partition),
                tuple(slice_keys),
            )
            for partition, slice_keys in slices.items()
        ]
        self._fetch_round(_ValidatedRead(plan, results, done, one_shot))

    def _fetch_round(self, read: "_ValidatedRead") -> None:
        """One round: refetch every slice of the read."""
        floor = self._snapshot_floor()
        futures = [
            self.request(target, ReadSliceReq(slice_keys, floor)).map(
                self._file_slice, read.responses, partition
            )
            for partition, target, slice_keys in read.plan
        ]
        gather(futures, self._validate, read)

    def _file_slice(
        self, response: ReadSliceResp, responses: Dict[int, ReadSliceResp], partition: int
    ) -> ReadSliceResp:
        """File one slice's answer under its partition (replacing last round's)."""
        responses[partition] = response
        return response

    def _validate(self, _round: List[ReadSliceResp], read: "_ValidatedRead") -> None:
        """Check every shardstamp against the round's requirements."""
        if not self.validation_enabled:
            self._accept(read)
            return
        responses = read.responses
        required = dict(self._causal_ts)
        for response in responses.values():
            for _key, version in response.versions:
                deps = version.deps
                if deps:
                    for dep_partition, dep_ts in deps:
                        if required.get(dep_partition, 0) < dep_ts:
                            required[dep_partition] = dep_ts
        stale = any(
            response.shardstamp < required.get(partition, 0)
            for partition, response in responses.items()
        )
        if not stale:
            self._accept(read)
            return
        read.rounds += 1
        if read.rounds > self.max_read_retries:
            read.done.fail(
                RuntimeError(
                    f"occult read at {self.address} still stale after "
                    f"{self.max_read_retries} retry rounds"
                )
            )
            return
        self.read_retries += 1
        self.sim.post_after(self.config.protocol.replication_interval, self._fetch_round, read)

    def _accept(self, read: "_ValidatedRead") -> None:
        """Accept the round: fold observations, overlay the cache."""
        results = read.results
        one_shot = read.one_shot
        for partition, response in read.responses.items():
            self._observe_slice(partition, response)
            for key, version in response.versions:
                cached = self.cache.lookup(key)
                if cached is not None and cached.newer_than(version):
                    result = ReadResult(key, cached.value, "wc", cached)
                else:
                    result = ReadResult(key, version.value, "store", version)
                results[key] = result
                if not one_shot:
                    self._read_set[key] = result
        if one_shot:
            self._record_one_shot(results, self.last_snapshot)
        else:
            self._record_read(results)
        read.done.resolve(results)

    def _observe_slice(self, partition: int, response: ReadSliceResp) -> None:
        """Fold one accepted slice into the session's causal timestamp.

        Shardstamps, observed update times and the versions' own dependency
        annotations all merge in — the last of these is what makes the
        annotation transitive: a later commit's deps cover everything the
        session's reads depended on.  Observed update times also raise
        ``highest_write_ts`` so the next commit's timestamp strictly
        dominates every dependency (Proposition 1).
        """
        causal = self._causal_ts
        if response.shardstamp > causal.get(partition, 0):
            causal[partition] = response.shardstamp
        for _key, version in response.versions:
            if version.ut > causal.get(partition, 0):
                causal[partition] = version.ut
            deps = version.deps
            if deps:
                for dep_partition, dep_ts in deps:
                    if dep_ts > causal.get(dep_partition, 0):
                        causal[dep_partition] = dep_ts
            if version.ut > self.highest_write_ts:
                self.highest_write_ts = version.ut


OCCULT = register(
    ProtocolSpec(
        name="occult",
        description=(
            "client-side validation (Occult): wait-free servers, clients carry "
            "shardstamps and retry stale reads"
        ),
        server_cls=OccultServer,
        client_cls=OccultClient,
        snapshot="clock",
        visibility="shardstamp",
        blocking_reads=False,
        consistency="tcc",
    )
)
