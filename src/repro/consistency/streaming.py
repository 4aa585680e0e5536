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
the checker's closure walk).  A commit event carries only the entries raised
since the client's previous commit; the checker folds them into its own
copy of the client's frontier, so it sees the same dependencies without any
event carrying all K of them.

The checker is sound, not complete: the frontier keeps the newest observed
version per key of a session, so a violation report is always a real
violation, while some exotic violation shapes could in principle escape.
Events are judged in recording (sequence) order, so a read that returns a
version whose commit is recorded only later is not judged for causal
snapshots or atomic visibility (its session invariants still are).

``window=None`` (the default, and that of ``repro run --big``, ``repro check
--trace-in`` and the tests) keeps every dependency edge, so run size is
bounded by RAM.  With a finite window (seconds of commit time,
``--window``) the checker retires dependency and transaction state older
than ``watermark - window`` and keeps, per key, a *retired tip digest* —
the newest retired version's exact dependency frontier and transaction
siblings — so the classic violation shapes (stale reads, causal fractures,
lost read-modify-writes) are still caught even when the violating version
has crossed the retirement boundary.
Windowed state is O(versions committed inside the window) plus O(clients x
keys) of per-client frontiers — independent of run length (docs/scaling.md).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

from ..clocks.hlc import micros_to_timestamp
from ..record import record
from ..sim.trace import TraceError, TraceWriter, read_jsonl
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


def _push(
    stack: List[VersionId], walking: Set[TransactionId], deps: Iterable[VersionId]
) -> None:
    """Push ``deps`` for :meth:`StreamingChecker._closure`, refusing a cycle."""
    for dep in deps:
        if dep[2] in walking:
            raise TraceError(f"dependency cycle through transaction {dep[2]}")
        stack.append(dep)


class _Session:
    """What the checker knows of one client's commits (never retired)."""

    __slots__ = ("frontier", "max_ut", "last")

    def __init__(self) -> None:
        #: The client's dependency frontier, folded from its commits' deltas.
        self.frontier: Dict[str, VersionId] = {}
        #: The newest ``ut`` in ``frontier`` (raising an entry never lowers it).
        self.max_ut = -1
        #: The versions the client's previous commit wrote.
        self.last: Tuple[VersionId, ...] = ()


@record
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
        #: Direct dependencies of each in-window version (its session's
        #: frontier when it committed).
        self._deps: Dict[VersionId, Tuple[VersionId, ...]] = {}
        #: Memoized per-key frontier of each transaction's dependency closure
        #: (all versions of one transaction share one ``deps`` tuple).
        self._closures: Dict[TransactionId, Dict[str, VersionId]] = {}
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
        self._sessions: Dict[str, _Session] = {}
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
        session = self._sessions.get(event.client)
        if session is None:
            session = self._sessions[event.client] = _Session()
        frontier = session.frontier
        max_ut = session.max_ut
        raised = []
        for dep in event.added_deps:
            current = frontier.get(dep[0])
            if current is None or dep > current:
                frontier[dep[0]] = dep
                raised.append(dep)
                if dep[1] > max_ut:
                    max_ut = dep[1]
        session.max_ut = max_ut
        written = event.written
        if written and min(vid[1] for vid in written) <= max_ut:
            self._check_dependency_timestamps(written, sorted(frontier.values()))
        own = self._own.setdefault(event.client, {})
        if written:
            deps = tuple(frontier.values())
            for vid in written:
                self._deps[vid] = deps
                heappush(self._version_queue, (vid[1], vid))
                _merge(own, vid[0], vid)
            self._tx_writes[event.tid] = written
            heappush(self._tx_queue, (max(vid[1] for vid in written), event.tid))
            # The entries raised since the previous commit are exactly the deps
            # that commit did not have, and they include its own writes.
            base = next((vid for vid in session.last if frontier.get(vid[0]) == vid), None)
            if base is not None:
                self._delta[event.tid] = (base, tuple(dep for dep in raised if dep != base))
        session.last = written
        if event.commit_ts > self._watermark:
            self._watermark = event.commit_ts
        if self._window_ts is not None:
            self._commits_since_retire += 1
            if self._commits_since_retire >= RETIRE_EVERY:
                self._commits_since_retire = 0
                self._retire()

    def _check_dependency_timestamps(
        self, written: Tuple[VersionId, ...], deps: List[VersionId]
    ) -> None:
        """Proposition 1: each written version's ut exceeds every dependency's."""
        for vid in written:
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

        A transaction that pushes its deps is ``walking`` until its closure
        is built, and everything above it on the stack is its dependency.  A
        push that reaches a walking transaction is therefore a dependency
        cycle, which no run can record (each transaction reads only versions
        committed before it) but a malformed stream can: it raises
        :class:`TraceError` instead of walking forever.
        """
        closures = self._closures
        cached = closures.get(vid[2])
        if cached is not None:
            return cached
        known = self._deps
        stack = [vid]
        walking: Set[TransactionId] = set()
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
                    walking.add(tid)
                    _push(stack, walking, (base,))
                    continue
                inherited = self._leaves.get(base[2], ())
                if any(dep in known for dep in inherited):
                    inner, inherited = None, ()
            sources = known.get(current, ()) if inner is None else fresh
            missing = [d for d in sources if d in known and d[2] not in closures]
            if missing:
                walking.add(tid)
                _push(stack, walking, missing)
                continue
            frontier: Dict[str, VersionId] = dict(inner or ())
            leaves: List[VersionId] = list(inherited)
            if inner is not None:
                _merge(frontier, base[0], base)
            shared = base[2] if inner is not None else None
            for dep in sources:
                _merge(frontier, dep[0], dep)
                if dep in known:
                    # A dep written by base's own transaction has base's
                    # closure, already copied in as ``inner``.
                    if dep[2] != shared:
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

    A consumer must see each client's events in the order they were
    recorded: a commit carries only the frontier entries its session raised
    since its previous commit (:class:`~repro.consistency.events.CommitEvent`).
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
        #: Per client: its observed frontier, and the entries of it raised
        #: since the client's last commit.
        self._sessions: Dict[str, Tuple[Dict[str, VersionId], Dict[str, VersionId]]] = {}

    def _session(self, client: str) -> Tuple[Dict[str, VersionId], Dict[str, VersionId]]:
        session = self._sessions.get(client)
        if session is None:
            session = self._sessions[client] = ({}, {})
        return session

    def record_read(
        self,
        client: str,
        tid: TransactionId,
        snapshot: int,
        results: Mapping[str, object],
        at: float,
    ) -> None:
        """Record one read phase; updates the client's observed frontier."""
        frontier, raised = self._session(client)
        returned: Dict[str, Tuple[Optional[VersionId], str]] = {}
        for key, result in results.items():
            version = result.version
            if version is None:
                returned[key] = (None, result.source)
                continue
            vid = version_id(version)
            returned[key] = (vid, result.source)
            if not is_preload(version):
                _raise(frontier, raised, key, vid)
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
        frontier, raised = self._session(client)
        for version in read_versions:
            if not is_preload(version):
                _raise(frontier, raised, version.key, version_id(version))
        added_deps = tuple(sorted(raised.values()))
        raised.clear()
        written_ids = tuple(version_id(version) for version in written.values())
        for vid in written_ids:
            _raise(frontier, raised, vid[0], vid)
        event = CommitEvent(
            seq=next(self._seq),
            client=client,
            tid=tid,
            commit_ts=commit_ts,
            written=written_ids,
            added_deps=added_deps,
            at=at,
        )
        self.commits_recorded += 1
        if self.sink is not None:
            self.sink.write(encode_commit(event))
        if self.checker is not None:
            self.checker.feed(event)


def _raise(
    frontier: Dict[str, VersionId], raised: Dict[str, VersionId], key: str, vid: VersionId
) -> None:
    """:func:`_merge`, also noting in ``raised`` the entry it raised."""
    current = frontier.get(key)
    if current is None or vid > current:
        frontier[key] = raised[key] = vid


def _trace_records(path) -> Iterator[Tuple[int, dict]]:
    """The one validating reader of consistency traces: ``(line, record)`` pairs.

    Built on :func:`~repro.sim.trace.read_jsonl`, which rejects a missing
    file and any line that is not a JSON object; a record without the
    ``at``/``seq`` fields every event has is a :class:`TraceError` too, and
    so is a ``seq`` that does not strictly increase: a reordered stream can
    fold a client's dependency deltas into a cycle the checker would walk
    forever.  Lines are numbered from 1, counting the non-blank lines a
    trace writer emits.
    """
    previous = None
    for line, obj in enumerate(read_jsonl(path), start=1):
        if "at" not in obj or "seq" not in obj:
            raise TraceError(f"{path}:{line}: not a consistency event (no 'at'/'seq' field)")
        seq = obj["seq"]
        if type(seq) is not int:
            raise TraceError(f"{path}:{line}: 'seq' is not an integer: {seq!r}")
        if previous is not None and seq <= previous:
            raise TraceError(
                f"{path}:{line}: events out of order (seq {seq} after {previous})"
            )
        previous = seq
        yield line, obj


def read_events(path) -> Iterator[TraceEvent]:
    """Stream a persisted JSONL trace back as the events it recorded.

    Commit events carry deltas, so the stream is only meaningful read from
    its first line on.  A trace that cannot be decoded raises
    :class:`TraceError` naming ``path:line``.
    """
    for line, obj in _trace_records(path):
        try:
            event = decode_event(obj)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise TraceError(
                f"{path}:{line}: not a consistency event ({type(exc).__name__}: {exc})"
            ) from exc
        yield event


def check_trace(
    path, window: Optional[float] = None, level: str = "tcc"
) -> StreamingChecker:
    """Re-check a persisted JSONL trace; returns the finished checker."""
    checker = StreamingChecker(window=window, level=level)
    for event in read_events(path):
        try:
            checker.feed(event)
        except TraceError as exc:
            raise TraceError(f"{path}: seq {event.seq}: {exc}") from None
    return checker


def _read_merge_events(path, index: int) -> Iterator[Tuple[Tuple[float, int, int], dict]]:
    """Stream one shard trace decorated with its merge key.

    The key is ``(at, input_index, line)``: recording-time order first,
    then input order for cross-shard ties, then file position (which
    preserves each shard's own recording order, already nondecreasing in
    ``at``).  Truncated or corrupt lines raise :class:`TraceError` naming
    the file and line — a short shard file must never merge silently.
    """
    for line, obj in _trace_records(path):
        yield (obj["at"], index, line), obj


def merge_traces(inputs: List, output) -> int:
    """K-way merge shard traces into one canonical stream; returns its length.

    Events are merged in commit/record-time (``at``) order with ties broken
    deterministically by input position, ``seq`` is renumbered to the final
    stream position, and lines are re-serialised through
    :class:`~repro.sim.trace.TraceWriter` — so merging the per-shard traces
    of a sharded run reproduces, byte for byte, the single trace a
    single-kernel run of the same configuration writes.  The merged file is
    directly consumable by ``repro check --trace-in`` and the run
    repository.  A client's events all come from one input, in file order,
    so the merge keeps each client's commits in the order their dependency
    deltas must be folded.
    """
    from heapq import merge as heap_merge

    if not inputs:
        raise TraceError("no input traces to merge")
    streams = [_read_merge_events(path, index) for index, path in enumerate(inputs)]
    with TraceWriter(output) as sink:
        for seq, (_, obj) in enumerate(heap_merge(*streams, key=lambda pair: pair[0])):
            obj["seq"] = seq
            sink.write(obj)
        return sink.count
