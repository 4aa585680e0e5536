"""The checker's delta closures against the closure as defined.

``StreamingChecker._closure`` builds a commit's dependency frontier from its
session predecessor's frozen closure plus the deps the predecessor did not
have, and walks every dep only when it must (predecessor superseded in the
session frontier or retired, or its closure built before the commit of one
of its deps arrived).  Here the shortcut is held to the definition — a
brute-force walk kept in this file — on random multi-session histories, and
to its cost: a commit is O(new deps x keys) frontier merges, not O(keys^2).
Costs are counted in ``_merge`` calls, never in wall clock.
"""

from __future__ import annotations

import contextlib
import random
from typing import Dict, Iterator, List, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.consistency import streaming
from repro.consistency.streaming import StreamingChecker
from repro.core.client import ReadResult
from repro.storage.version import Version
from tests.conftest import EventLog, recording_oracle

KEYS = ["a", "b", "c", "d", "e"]
CLIENTS = ["s0", "s1", "s2", "s3"]
#: Simulated seconds between two steps of a history.
STEP = 0.01


class FullWalkChecker(StreamingChecker):
    """The reference: every dep and every in-window dep's closure, no shortcut."""

    def _closure(self, vid):
        tid = vid[2]
        if tid not in self._closures:
            frontier: Dict[str, tuple] = {}
            for dep in self._deps[vid]:
                inner = self._closure(dep).values() if dep in self._deps else ()
                for each in (dep, *inner):
                    if each[0] not in frontier or each > frontier[each[0]]:
                        frontier[each[0]] = each
            self._closures[tid] = frontier
        return self._closures[tid]


def hlc(seconds: float) -> int:
    """An HLC-packed timestamp at ``seconds`` of simulated physical time."""
    return int(round(seconds * 1_000_000)) << 16


def as_results(versions: List[Version]) -> Dict[str, ReadResult]:
    """Read results returning exactly ``versions``."""
    return {
        v.key: ReadResult(key=v.key, value=v.value, source="store", version=v)
        for v in versions
    }


def random_history(seed: int, n_steps: int, stale: float, late: float) -> EventLog:
    """A multi-session history recorded through the oracle.

    Each step one free session reads a few keys — the newest version, or with
    probability ``stale`` any older one (so there are violations to agree
    on) — and usually commits one or two writes depending on them.  Writes
    are visible to every session at once; with probability ``late`` the
    commit itself is recorded only some steps later (a remote writer's ack
    still in flight), so other sessions depend on versions whose commit has
    not arrived — under a short window it arrives below the retirement
    cutoff.  Sessions overwrite each other's keys freely, so a session's own
    last writes are regularly all superseded in its frontier before it
    commits again.
    """
    rng = random.Random(seed)
    oracle = recording_oracle()
    versions: Dict[str, List[Version]] = {key: [] for key in KEYS}
    in_flight: Dict[str, Tuple[int, dict]] = {}
    for step in range(1, n_steps + 1):
        for client, (due, commit) in list(in_flight.items()):
            if due <= step:
                oracle.record_commit(**commit, at=float(step))
                del in_flight[client]
        free = [client for client in CLIENTS if client not in in_flight]
        if not free:
            continue
        client = rng.choice(free)
        tid = (step, CLIENTS.index(client) + 1)
        read = [
            rng.choice(versions[key]) if rng.random() < stale else versions[key][-1]
            for key in rng.sample(KEYS, rng.randint(1, 3))
            if versions[key]
        ]
        if read:
            oracle.record_read(
                client=client, tid=tid, snapshot=hlc(10_000.0),
                results=as_results(read), at=float(step),
            )
        if rng.random() < 0.15:
            continue
        written = {
            key: Version(key=key, value=step, ut=hlc(step * STEP), tid=tid, sr=0)
            for key in rng.sample(KEYS, rng.randint(1, 2))
        }
        for key, version in written.items():
            versions[key].append(version)
        commit = dict(
            client=client, tid=tid, commit_ts=hlc(step * STEP),
            written=written, read_versions=read,
        )
        if rng.random() < late:
            in_flight[client] = (step + rng.randint(2, 12), commit)
        else:
            oracle.record_commit(**commit, at=float(step))
    for _, commit in in_flight.values():
        oracle.record_commit(**commit, at=float(n_steps + 1))
    return oracle.checker


def verdict(checker: StreamingChecker):
    """What a finished checker concluded: violations in order, tips by key."""
    tips = {
        key: (tip.vid, dict(tip.frontier), tip.siblings)
        for key, tip in checker._tips.items()
    }
    return [(v.kind, v.client, v.detail) for v in checker.violations], tips


@contextlib.contextmanager
def counted_merges() -> Iterator[List[int]]:
    """Count frontier merges while the block runs (``calls[0]``)."""
    calls = [0]
    merge = streaming._merge

    def counting(frontier, key, vid):
        calls[0] += 1
        merge(frontier, key, vid)

    streaming._merge = counting
    try:
        yield calls
    finally:
        streaming._merge = merge


@contextlib.contextmanager
def frequent_retirement() -> Iterator[None]:
    """Sweep every 3 commits so predecessors retire inside short histories."""
    retire_every = streaming.RETIRE_EVERY
    streaming.RETIRE_EVERY = 3
    try:
        yield
    finally:
        streaming.RETIRE_EVERY = retire_every


class TestDeltaClosureEqualsFullWalk:
    @given(
        seed=st.integers(0, 100_000),
        n_steps=st.integers(5, 120),
        window=st.sampled_from([None, 2 * STEP, 6 * STEP, 25 * STEP]),
        stale=st.sampled_from([0.0, 0.1, 0.4]),
        late=st.sampled_from([0.0, 0.1, 0.3]),
    )
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_same_violations_and_tips(self, seed, n_steps, window, stale, late):
        events = random_history(seed, n_steps, stale, late).events
        with frequent_retirement():
            real = StreamingChecker(window=window)
            real.run(events)
            reference = FullWalkChecker(window=window)
            reference.run(events)
        assert verdict(real) == verdict(reference)
        assert real.versions_retired == reference.versions_retired

    def test_histories_disagree_with_a_wrong_shortcut(self):
        """The comparison can fail: a closure missing the fresh deps is noticed."""

        class ForgetsFreshDeps(StreamingChecker):
            def _on_commit(self, event):
                super()._on_commit(event)
                if event.tid in self._delta:
                    self._delta[event.tid] = (self._delta[event.tid][0], ())

        caught = 0
        for seed in range(20):
            events = random_history(seed, 80, stale=0.4, late=0.0).events
            wrong = ForgetsFreshDeps()
            wrong.run(events)
            reference = FullWalkChecker()
            reference.run(events)
            caught += verdict(wrong) != verdict(reference)
        assert caught >= 10


class _History:
    """A scripted history over many keys: who reads and writes what, in order."""

    def __init__(self, window: Optional[float] = None) -> None:
        self.oracle = recording_oracle()
        self.real = StreamingChecker(window=window)
        self.reference = FullWalkChecker(window=window)
        self.step = 0
        self._fed = 0
        self._late: List[dict] = []

    def commit(
        self, client: str, key: str, read: List[Version] = (), late: bool = False
    ) -> Version:
        """``client`` reads ``read`` and writes ``key``; returns the new version.

        A ``late`` commit is recorded only by :meth:`arrive`, though others
        may read the version before.
        """
        self.step += 1
        tid = (self.step, 1)
        if read:
            self.oracle.record_read(
                client=client, tid=tid, snapshot=hlc(10_000.0),
                results=as_results(list(read)), at=float(self.step),
            )
        version = Version(key=key, value=self.step, ut=hlc(self.step * STEP), tid=tid, sr=0)
        commit = dict(
            client=client, tid=tid, commit_ts=version.ut, written={key: version},
            read_versions=list(read),
        )
        if late:
            self._late.append(commit)
        else:
            self.oracle.record_commit(**commit, at=float(self.step))
        return version

    def arrive(self) -> None:
        """Record every commit still in flight."""
        for commit in self._late:
            self.oracle.record_commit(**commit, at=float(self.step))
        self._late.clear()

    def observe(self, *versions: Version) -> int:
        """A bystander reads ``versions``; returns the merges the real checker spent."""
        self.step += 1
        self.oracle.record_read(
            client="bystander", tid=(self.step, 9), snapshot=hlc(10_000.0),
            results=as_results(list(versions)), at=float(self.step),
        )
        pending = self.oracle.checker.events[self._fed:]
        self._fed += len(pending)
        for event in pending:
            self.reference.feed(event)
        with counted_merges() as calls:
            for event in pending:
                self.real.feed(event)
        assert verdict(self.real) == verdict(self.reference)
        return calls[0]

    def wide_frontier(self, client: str, n_keys: int) -> Version:
        """Give ``client`` an ``n_keys``-wide frontier of its own writes."""
        for i in range(n_keys):
            last = self.commit(client, f"k{i:03d}")
        self.observe(last)
        return last


class TestBothPathsAreTaken:
    """Op counts show which walk ran; the verdicts match the reference either way."""

    N_KEYS = 40

    def test_predecessor_among_the_deps_takes_the_delta(self):
        history = _History()
        history.wide_frontier("s", self.N_KEYS)
        foreign = history.commit("other", "foreign")
        merges = history.observe(history.commit("s", "k000", read=[foreign]))
        # The predecessor's closure is copied; only `foreign` is merged.
        assert merges <= 6

    def test_superseded_predecessor_falls_back_to_the_full_walk(self):
        history = _History()
        last = history.wide_frontier("s", self.N_KEYS)
        newer = history.commit("other", last.key)
        merges = history.observe(history.commit("s", "k000", read=[newer]))
        # No own last write is left in the frontier: every dep and its
        # closure is merged (the early writes have small closures).
        assert merges > self.N_KEYS * self.N_KEYS // 4

    def test_retired_predecessor_falls_back_to_the_full_walk(self):
        history = _History(window=5 * STEP)
        with frequent_retirement():
            history.wide_frontier("s", self.N_KEYS)
            for i in range(12):  # fillers push the whole frontier out of the window
                history.commit("filler", f"f{i}")
            merges = history.observe(history.commit("s", "k000"))
        assert history.real.versions_retired >= self.N_KEYS
        # Every dep is a retired leaf now: one merge each, none skipped.
        assert merges >= self.N_KEYS

    def test_dep_arriving_after_the_predecessor_closed_is_walked(self):
        """A base built while a dep's commit was in flight is not reused."""
        history = _History()
        y0 = history.commit("o", "y")
        y1 = history.commit("o", "y")
        x = history.commit("w", "x", read=[y1], late=True)
        history.observe(history.commit("s", "k0", read=[x]))
        history.arrive()
        history.observe(history.commit("s", "k1"), y0)
        # x's own dependency on y1 reaches k1 only through the full walk.
        assert [v.kind for v in history.real.violations] == ["causal-snapshot"]

    def test_straggler_below_the_cutoff_is_walked(self, monkeypatch):
        """The same, with the dep so late that it arrives already due to retire."""
        monkeypatch.setattr(streaming, "RETIRE_EVERY", 8)
        history = _History(window=5 * STEP)
        y0 = history.commit("o", "y")
        y1 = history.commit("o", "y")
        x = history.commit("w", "x", read=[y1], late=True)
        for i in range(6):  # the eighth commit sweeps: y0, y1 and x's ut are past
            history.commit("filler", f"f{i}")
        history.observe(history.commit("s", "k0", read=[x]))
        assert history.real.versions_retired == 2
        history.arrive()
        history.observe(history.commit("s", "k1"), y0)
        assert [v.kind for v in history.real.violations] == ["causal-snapshot"]


class TestCommitCostIsLinearInKeys:
    def test_merges_per_commit_do_not_grow_with_the_frontier(self):
        """One session, N commits over its K keys: at most 2*N*K merges.

        Every commit reads one fresh version of another session's K keys and
        is observed at once, so every closure is built.  It costs the copy
        plus one fresh dep's closure: 3,033 merges here.  Walking all of the
        2K deps' closures per commit took 258,035, 43x the bound.
        """
        n_keys, n_commits = 30, 100
        history = _History()
        merges = 0
        for i in range(n_commits):
            foreign = history.commit("other", f"f{i % n_keys:03d}")
            own = history.commit("s", f"k{i % n_keys:03d}", read=[foreign])
            merges += history.observe(own)
        assert history.real.violations == []
        assert merges <= 2 * n_commits * n_keys
