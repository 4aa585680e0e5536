"""TCC invariant checking over a one-pass consistency event stream.

The checker sits outside the protocol: clients report every transactional
read and commit to a :class:`StreamingOracle`, which turns them into
:mod:`repro.consistency.events` and hands each one to a
:class:`StreamingChecker`, a :class:`repro.sim.trace.TraceWriter`, or both.
Nothing in any protocol reads oracle state — it exists so the test suite
can *verify* TCC rather than assume it.

Five invariants are verified (Section II-B semantics):

* **Causal snapshot** — if a transactional read returns version X, and X
  (transitively) depends on some version D of key y, then the read's returned
  version of y (if y was read) is at least D in the per-key version order.
* **Atomic visibility** — if a read returns a version written by transaction
  T and also reads another key T wrote, it must return T's version of that
  key or a newer one (never an older one).
* **Read-your-writes** — a client's reads return its own prior committed
  version of a key or something newer.
* **Monotonic reads** — per client and key, returned versions never go
  backwards across transactions.
* **Dependency timestamps** — Proposition 1: if u1 -> u2 then u1.ut < u2.ut.

Dependency tracking: per client session the oracle keeps an observed
frontier — for each key, the newest version the client has read or written.
When the client commits, the new versions' direct dependencies are the
frontier values at commit time, which matches the causality definition of
Section II-A: same-thread order, reads-from, and transitivity (recovered by
the checker's closure walk).

The checker is sound, not complete: the frontier keeps the newest observed
version per key of a session, so a violation report is always a real
violation, while some exotic violation shapes could in principle escape.
Events are judged in recording (sequence) order, so a read that returns a
version whose commit is recorded only later is not judged for causal
snapshots or atomic visibility (its session invariants still are).

``window=None`` (the default, and what ``repro check`` and the tests use)
keeps every dependency edge, so run size is bounded by RAM.  With a finite
window (seconds of commit time, the ``--big`` run tier) the checker retires
dependency and transaction state older than ``watermark - window`` and
keeps, per key, a *retired tip digest* — the newest retired version's exact
dependency frontier and transaction siblings — so the classic violation
shapes (stale reads, causal fractures, lost read-modify-writes) are still
caught even when the violating version has crossed the retirement boundary.
Windowed state is O(versions committed inside the window) plus O(clients x
keys) of per-client frontiers — independent of run length (docs/scaling.md).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from ..clocks.hlc import micros_to_timestamp
from ..sim.trace import TraceWriter, read_jsonl
from ..storage.version import TransactionId, Version
from .events import (
    CommitEvent,
    ReadEvent,
    TraceEvent,
    VersionId,
    decode_event,
    encode_commit,
    encode_read,
    is_preload,
    version_id,
)


@dataclass(frozen=True)
class Violation:
    """One detected consistency violation."""

    kind: str
    client: str
    detail: str

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"[{self.kind}] client={self.client}: {self.detail}"


#: How many commits between retirement sweeps (amortises the heap pops).
RETIRE_EVERY = 256


def _merge(frontier: Dict[str, VersionId], key: str, vid: VersionId) -> None:
    """Raise ``frontier[key]`` to ``vid`` if ``vid`` is the newer version.

    Version ids of one key share their first element, so plain tuple
    comparison is the per-key ``(ut, tid, sr)`` order.
    """
    current = frontier.get(key)
    if current is None or vid > current:
        frontier[key] = vid


@dataclass(frozen=True, slots=True)
class RetiredTip:
    """Per-key digest of the newest version retired from the window.

    ``frontier`` is the version's dependency frontier as known at
    retirement time (exact if its closure was ever demanded, direct-deps
    otherwise — transitive contributions below it were retired first), and
    ``siblings`` the full write set of its transaction.  Reads returning
    exactly this version are still checked for causal snapshots and atomic
    visibility; reads returning versions retired even earlier are skipped
    (sound, not complete).
    """

    vid: VersionId
    frontier: Tuple[Tuple[str, VersionId], ...]
    siblings: Tuple[VersionId, ...]


class StreamingChecker:
    """One-pass invariant checker over a consistency event stream.

    ``window`` is in seconds of commit (HLC physical) time; ``None`` keeps
    all state.  ``level`` is the consistency level a protocol claims in
    :class:`repro.protocols.registry.ProtocolSpec`: ``"tcc"`` runs all five
    invariants, ``"session"`` only read-your-writes, monotonic reads, and
    dependency timestamps — what an eventually consistent protocol actually
    promises (checking a protocol against guarantees it never claimed says
    nothing, while a session-level pass is a real statement about its cache
    and per-replica installation order).
    """

    def __init__(self, window: Optional[float] = None, level: str = "tcc") -> None:
        if window is not None and window <= 0.0:
            raise ValueError("window must be positive (or None for unbounded)")
        if level not in ("tcc", "session"):
            raise ValueError(f"unknown consistency level {level!r}")
        self.window = window
        self.level = level
        self.violations: List[Violation] = []
        self.reads_checked = 0
        self.commits_checked = 0
        self.versions_retired = 0
        self._window_ts = (
            None if window is None else micros_to_timestamp(int(window * 1_000_000))
        )
        self._watermark = 0
        #: Direct dependencies of each in-window version (event payloads).
        self._deps: Dict[VersionId, Tuple[VersionId, ...]] = {}
        #: Memoized per-key frontier of each transaction's dependency closure
        #: (all versions of one transaction share one ``deps`` tuple).
        self._closures: Dict[TransactionId, Dict[str, VersionId]] = {}
        #: Per client: its last commit's written vids and dependency set.
        self._last: Dict[str, Tuple[Tuple[VersionId, ...], frozenset]] = {}
        #: Per transaction whose session predecessor ``base`` is still among
        #: its deps: ``(base, deps the predecessor did not have)``.
        self._delta: Dict[TransactionId, Tuple[VersionId, Tuple[VersionId, ...]]] = {}
        #: Per closure: the direct deps that were outside the window when it
        #: was built (retired, or their commit still in flight).  If one has
        #: arrived since, the closure no longer serves as a delta base.
        self._leaves: Dict[TransactionId, List[VersionId]] = {}
        self._tx_writes: Dict[TransactionId, Tuple[VersionId, ...]] = {}
        #: Retirement queues: versions by ut, transactions by max write ut.
        self._version_queue: List[Tuple[int, VersionId]] = []
        self._tx_queue: List[Tuple[int, TransactionId]] = []
        self._tips: Dict[str, RetiredTip] = {}
        #: Per-client frontiers (never retired: one vid per client x key).
        self._seen: Dict[str, Dict[str, VersionId]] = {}
        self._own: Dict[str, Dict[str, VersionId]] = {}
        self._commits_since_retire = 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def feed(self, event: TraceEvent) -> None:
        """Consume one event, accumulating any violations it exposes."""
        if isinstance(event, CommitEvent):
            self._on_commit(event)
        elif isinstance(event, ReadEvent):
            self._on_read(event)
        else:
            raise TypeError(f"not a trace event: {event!r}")

    def run(self, events: Iterable[TraceEvent]) -> List[Violation]:
        """Feed a whole stream; returns (and retains) all violations."""
        for event in events:
            self.feed(event)
        return self.violations

    @property
    def state_size(self) -> int:
        """In-window tracked versions (the O(window) part of the state)."""
        return len(self._deps)

    # ------------------------------------------------------------------
    # Commit path
    # ------------------------------------------------------------------
    def _on_commit(self, event: CommitEvent) -> None:
        self.commits_checked += 1
        deps = event.deps
        own = self._own.setdefault(event.client, {})
        for vid in event.written:
            for dep in deps:
                if dep[1] >= vid[1]:
                    self.violations.append(
                        Violation(
                            kind="dependency-timestamps",
                            client="(commit order)",
                            detail=(
                                f"version {vid} has ut {vid[1]} <= its dependency "
                                f"{dep} with ut {dep[1]}"
                            ),
                        )
                    )
            self._deps[vid] = deps
            heappush(self._version_queue, (vid[1], vid))
            _merge(own, vid[0], vid)
        if event.written:
            self._tx_writes[event.tid] = event.written
            heappush(
                self._tx_queue,
                (max(vid[1] for vid in event.written), event.tid),
            )
            depset = frozenset(deps)
            previous, previous_deps = self._last.get(event.client, ((), depset))
            base = next((vid for vid in previous if vid in depset), None)
            if base is not None:
                fresh = depset.difference(previous_deps, (base,))
                self._delta[event.tid] = (base, tuple(sorted(fresh)))
            self._last[event.client] = (event.written, depset)
        if event.commit_ts > self._watermark:
            self._watermark = event.commit_ts
        if self._window_ts is not None:
            self._commits_since_retire += 1
            if self._commits_since_retire >= RETIRE_EVERY:
                self._commits_since_retire = 0
                self._retire()

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def _on_read(self, event: ReadEvent) -> None:
        self.reads_checked += 1
        client = event.client
        check_tcc = self.level == "tcc"
        own = self._own.get(client)
        seen = self._seen.setdefault(client, {})
        for key, (vid, source) in event.returned.items():
            if vid is not None and check_tcc:
                self._check_causal(event, key, vid)
                self._check_atomic(event, key, vid)
            # Read-your-writes (WS reads are served from the write set).
            if vid is not None and source != "ws" and own is not None:
                expected = own.get(key)
                if expected is not None and vid < expected:
                    self.violations.append(
                        Violation(
                            kind="read-your-writes",
                            client=client,
                            detail=(
                                f"read of {key!r} returned {vid}, older than the "
                                f"client's own committed {expected}"
                            ),
                        )
                    )
            # Monotonic reads.
            if vid is not None:
                previous = seen.get(key)
                if previous is not None and vid < previous:
                    self.violations.append(
                        Violation(
                            kind="monotonic-reads",
                            client=client,
                            detail=(
                                f"read of {key!r} returned {vid} after having "
                                f"observed {previous}"
                            ),
                        )
                    )
                if previous is None or vid > previous:
                    seen[key] = vid

    def _check_causal(self, event: ReadEvent, key: str, vid: VersionId) -> None:
        """Causal snapshot: no version observed while missing a dependency."""
        if vid in self._deps:
            frontier = self._closure(vid)
        else:
            tip = self._tips.get(key)
            if tip is None or tip.vid != vid:
                return  # preload, or retired beyond the per-key tip digest
            frontier = dict(tip.frontier)
        for dep_key, (returned, _) in event.returned.items():
            dep_vid = frontier.get(dep_key)
            if dep_vid is None or returned is None or dep_key == key:
                continue
            if returned < dep_vid:
                self.violations.append(
                    Violation(
                        kind="causal-snapshot",
                        client=event.client,
                        detail=(
                            f"tx {event.tid} read {vid} of {key!r} but an older "
                            f"{returned} of {dep_key!r} (requires >= {dep_vid})"
                        ),
                    )
                )

    def _check_atomic(self, event: ReadEvent, key: str, vid: VersionId) -> None:
        """Atomic visibility: no fractured reads of one write set."""
        tid = vid[2]
        siblings = self._tx_writes.get(tid)
        if siblings is None:
            tip = self._tips.get(key)
            if tip is None or tip.vid != vid:
                return
            siblings = tip.siblings
        if not siblings:
            return
        for sibling in siblings:
            sibling_key = sibling[0]
            if sibling_key == key:
                continue
            returned = event.returned.get(sibling_key)
            if returned is None or returned[0] is None:
                continue
            if returned[0] < sibling:
                self.violations.append(
                    Violation(
                        kind="atomic-visibility",
                        client=event.client,
                        detail=(
                            f"tx {event.tid} saw {vid} of {key!r} from tx {tid} but "
                            f"older {returned[0]} of {sibling_key!r} (fractured read)"
                        ),
                    )
                )

    # ------------------------------------------------------------------
    # Closures and retirement
    # ------------------------------------------------------------------
    def _closure(self, vid: VersionId) -> Dict[str, VersionId]:
        """Transitive per-key dependency frontier of ``vid`` (memoized per tx).

        Iterative post-order walk: dependency chains grow with session length
        and would overflow Python's recursion limit if walked recursively.
        Retired dependencies simply act as leaves (their own frontier
        contributions were retired first).

        A commit's deps are its session's frontier, which differs from the
        session's previous commit in the few keys touched since.  While one
        of that commit's versions (``base``) is still among the deps and in
        the window, its frozen closure already covers every dep the two
        commits share, so the walk copies it and merges only the ``fresh``
        deps.  Otherwise (base superseded or retired, or the commit of a dep
        arrived only after base's closure was built) it merges them all.
        """
        closures = self._closures
        cached = closures.get(vid[2])
        if cached is not None:
            return cached
        known = self._deps
        stack = [vid]
        while stack:
            current = stack[-1]
            tid = current[2]
            if tid in closures:
                stack.pop()
                continue
            base, fresh = self._delta.get(tid, (None, ()))
            inner, inherited = None, ()
            if base in known:
                inner = closures.get(base[2])
                if inner is None:
                    stack.append(base)
                    continue
                inherited = self._leaves.get(base[2], ())
                if any(dep in known for dep in inherited):
                    inner, inherited = None, ()
            sources = known.get(current, ()) if inner is None else fresh
            missing = [d for d in sources if d in known and d[2] not in closures]
            if missing:
                stack.extend(missing)
                continue
            frontier: Dict[str, VersionId] = dict(inner or ())
            leaves: List[VersionId] = list(inherited)
            if inner is not None:
                _merge(frontier, base[0], base)
            for dep in sources:
                _merge(frontier, dep[0], dep)
                if dep in known:
                    for key, inner_vid in closures[dep[2]].items():
                        _merge(frontier, key, inner_vid)
                else:
                    leaves.append(dep)
            closures[tid] = frontier
            if leaves:
                self._leaves[tid] = leaves
            stack.pop()
        return closures[vid[2]]

    def _retire(self) -> None:
        """Drop dependency/transaction state older than the window.

        Versions leave in commit-timestamp order; the newest retiree of
        each key becomes that key's :class:`RetiredTip`.
        """
        cutoff = self._watermark - self._window_ts
        queue = self._version_queue
        while queue and queue[0][0] < cutoff:
            _, vid = heappop(queue)
            key = vid[0]
            tip = self._tips.get(key)
            if tip is None or vid > tip.vid:
                self._tips[key] = RetiredTip(
                    vid=vid,
                    frontier=tuple(self._closure(vid).items()),
                    siblings=self._tx_writes.get(vid[2], ()),
                )
            self._deps.pop(vid, None)
            self.versions_retired += 1
        tx_queue = self._tx_queue
        while tx_queue and tx_queue[0][0] < cutoff:
            _, tid = heappop(tx_queue)
            self._tx_writes.pop(tid, None)
            self._closures.pop(tid, None)
            self._delta.pop(tid, None)
            self._leaves.pop(tid, None)


class StreamingOracle:
    """Records reads/commits as events; holds only per-session frontiers.

    Each recorded event goes to ``sink`` (a
    :class:`~repro.sim.trace.TraceWriter`) as one JSON line, to ``checker``
    (a :class:`StreamingChecker`, or anything with a ``feed(event)``
    method) directly, or both.  ``results`` values passed to
    :meth:`record_read` expose ``version`` (Optional[Version]) and
    ``source`` (str) — the client's :class:`~repro.core.client.ReadResult`
    qualifies.
    """

    def __init__(
        self,
        sink: Optional[TraceWriter] = None,
        checker: Optional[StreamingChecker] = None,
    ) -> None:
        if sink is None and checker is None:
            raise ValueError("a StreamingOracle needs a sink, a checker, or both")
        self.sink = sink
        self.checker = checker
        self.reads_recorded = 0
        self.commits_recorded = 0
        self._seq = itertools.count()
        self._frontiers: Dict[str, Dict[str, VersionId]] = {}

    def record_read(
        self,
        client: str,
        tid: TransactionId,
        snapshot: int,
        results: Mapping[str, object],
        at: float,
    ) -> None:
        """Record one read phase; updates the client's observed frontier."""
        frontier = self._frontiers.setdefault(client, {})
        returned: Dict[str, Tuple[Optional[VersionId], str]] = {}
        for key, result in results.items():
            version = result.version
            if version is None:
                returned[key] = (None, result.source)
                continue
            vid = version_id(version)
            returned[key] = (vid, result.source)
            if not is_preload(version):
                _merge(frontier, key, vid)
        event = ReadEvent(
            seq=next(self._seq),
            client=client,
            tid=tid,
            snapshot=snapshot,
            returned=returned,
            at=at,
        )
        self.reads_recorded += 1
        if self.sink is not None:
            self.sink.write(encode_read(event))
        if self.checker is not None:
            self.checker.feed(event)

    def record_commit(
        self,
        client: str,
        tid: TransactionId,
        commit_ts: int,
        written: Mapping[str, Version],
        read_versions: List[Version],
        at: float,
    ) -> None:
        """Record a commit; the written versions depend on the session frontier."""
        frontier = self._frontiers.setdefault(client, {})
        for version in read_versions:
            if not is_preload(version):
                _merge(frontier, version.key, version_id(version))
        deps = tuple(sorted(frontier.values()))
        written_ids = tuple(version_id(version) for version in written.values())
        for vid in written_ids:
            _merge(frontier, vid[0], vid)
        event = CommitEvent(
            seq=next(self._seq),
            client=client,
            tid=tid,
            commit_ts=commit_ts,
            written=written_ids,
            deps=deps,
            at=at,
        )
        self.commits_recorded += 1
        if self.sink is not None:
            self.sink.write(encode_commit(event))
        if self.checker is not None:
            self.checker.feed(event)


def read_events(path) -> Iterator[TraceEvent]:
    """Stream a persisted JSONL trace back as the events it recorded."""
    return (decode_event(obj) for obj in read_jsonl(path))


def check_trace(
    path, window: Optional[float] = None, level: str = "tcc"
) -> StreamingChecker:
    """Re-check a persisted JSONL trace; returns the finished checker."""
    checker = StreamingChecker(window=window, level=level)
    checker.run(read_events(path))
    return checker


class TraceMergeError(RuntimeError):
    """A shard trace could not be merged (truncated, corrupt, or malformed)."""


def _read_merge_events(path, index: int) -> Iterator[Tuple[Tuple[float, int, int], dict]]:
    """Stream one shard trace decorated with its merge key.

    The key is ``(at, input_index, position)``: recording-time order first,
    then input order for cross-shard ties, then file position (which
    preserves each shard's own recording order, already nondecreasing in
    ``at``).  Truncated or corrupt lines raise :class:`TraceMergeError`
    naming the file and line — a short shard file must never merge
    silently.
    """
    import json
    import pathlib

    with pathlib.Path(path).open() as handle:
        position = 0
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceMergeError(
                    f"corrupt or truncated trace {path}, line {lineno}: {exc}"
                ) from exc
            if not isinstance(obj, dict) or "at" not in obj or "seq" not in obj:
                raise TraceMergeError(
                    f"not a consistency event in {path}, line {lineno}: "
                    f"missing 'at'/'seq' fields"
                )
            yield (obj["at"], index, position), obj
            position += 1


def merge_traces(inputs: List, output) -> int:
    """K-way merge shard traces into one canonical stream; returns its length.

    Events are merged in commit/record-time (``at``) order with ties broken
    deterministically by input position, ``seq`` is renumbered to the final
    stream position, and lines are re-serialised through
    :class:`~repro.sim.trace.TraceWriter` — so merging the per-shard traces
    of a sharded run reproduces, byte for byte, the single trace a
    single-kernel run of the same configuration writes.  The merged file is
    directly consumable by ``repro check --trace-in`` and the run
    repository.
    """
    from heapq import merge as heap_merge

    if not inputs:
        raise TraceMergeError("no input traces to merge")
    streams = [_read_merge_events(path, index) for index, path in enumerate(inputs)]
    with TraceWriter(output) as sink:
        for seq, (_, obj) in enumerate(heap_merge(*streams, key=lambda pair: pair[0])):
            obj["seq"] = seq
            sink.write(obj)
        return sink.count
