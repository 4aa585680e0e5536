"""Dependency deltas on the wire: what a commit event carries, and why it suffices.

A commit event carries only the session-frontier entries raised since the
client's previous commit (``CommitEvent.added_deps``); the checker folds
them into its own copy of each client's frontier.  Held here:

* the dependency-timestamp check still sees deps inherited from earlier
  commits, not only the ones in the delta;
* a trace in the format written before deltas, each commit listing the whole
  frontier under ``"deps"``, re-checks to exactly the delta trace's verdicts,
  unbounded and windowed;
* what a commit line costs on the wire is the delta, not the frontier.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List

import pytest

from repro.consistency.events import (
    ReadEvent,
    TraceEvent,
    _encode_vid,
    encode_commit,
    encode_read,
)
from repro.consistency.streaming import StreamingChecker, StreamingOracle, check_trace
from repro.sim.trace import TraceWriter
from repro.storage.version import Version
from tests.conftest import EventLog, recording_oracle
from tests.test_checker_closure import STEP, frequent_retirement, hlc, random_history
from tests.test_checker_streaming import run_recorded


def encode(event: TraceEvent) -> Dict:
    """The wire form the oracle writes."""
    return encode_read(event) if isinstance(event, ReadEvent) else encode_commit(event)


def encode_full_deps(events: Iterable[TraceEvent]) -> Iterable[Dict]:
    """The encoding traces had before deltas: each commit lists its whole frontier."""
    frontiers: Dict[str, Dict[str, tuple]] = {}
    for event in events:
        if isinstance(event, ReadEvent):
            yield encode(event)
            continue
        frontier = frontiers.setdefault(event.client, {})
        frontier.update((dep[0], dep) for dep in event.added_deps)
        line = {k: v for k, v in encode_commit(event).items() if k != "added"}
        yield {**line, "deps": [_encode_vid(dep) for dep in sorted(frontier.values())]}


def write_trace(path, lines: Iterable[Dict]) -> None:
    with TraceWriter(path) as sink:
        for line in lines:
            sink.write(line)


def verdicts(path, window=None, level="tcc"):
    """Every violation a re-check of ``path`` reports, in report order."""
    checker = check_trace(path, window=window, level=level)
    return [(v.kind, v.client, v.detail) for v in checker.violations]


def version(key: str, ut: int, seq: int) -> Version:
    return Version(key=key, value=f"{key}@{ut}", ut=ut, tid=(seq, 1), sr=0)


class TestDependencyTimestampsSeeInheritedDeps:
    def test_offending_dep_outside_the_delta_is_reported(self):
        """``b`` depends on ``x`` only through the session's earlier commit.

        The session read ``x@100`` and wrote ``a@90`` (itself a violation),
        then writes ``b@95``.  The second commit's delta is ``{a@90}``, all
        older than ``b``; the offender ``x@100`` was raised one commit earlier
        and must still be found, with the same detail string as always.
        """
        oracle = recording_oracle()
        x, a, b = version("x", 100, 1), version("a", 90, 2), version("b", 95, 3)
        oracle.record_commit(
            client="w", tid=x.tid, commit_ts=x.ut, written={"x": x},
            read_versions=[], at=0.0,
        )
        oracle.record_commit(
            client="s", tid=a.tid, commit_ts=a.ut, written={"a": a},
            read_versions=[x], at=1.0,
        )
        oracle.record_commit(
            client="s", tid=b.tid, commit_ts=b.ut, written={"b": b},
            read_versions=[], at=2.0,
        )
        second = oracle.checker.commits[-1]
        assert [dep[0] for dep in second.added_deps] == ["a"]
        found = [v.detail for v in oracle.checker.check()]
        x_id, a_id, b_id = ("x", 100, (1, 1), 0), ("a", 90, (2, 1), 0), ("b", 95, (3, 1), 0)
        assert found == [
            f"version {a_id} has ut 90 <= its dependency {x_id} with ut 100",
            f"version {b_id} has ut 95 <= its dependency {x_id} with ut 100",
        ]


class TestPreDeltaTracesRecheckIdentically:
    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("window", [None, 2 * STEP, 6 * STEP])
    def test_random_histories(self, tmp_path, seed, window):
        """Planted stale reads, late commits, and retirement mid-history."""
        events = random_history(seed, 90, stale=0.3, late=0.2).events
        delta, full = tmp_path / "delta.jsonl", tmp_path / "full.jsonl"
        write_trace(delta, map(encode, events))
        write_trace(full, encode_full_deps(events))
        with frequent_retirement():
            expected = verdicts(delta, window)
            assert verdicts(full, window) == expected
        assert full.stat().st_size > delta.stat().st_size

    def test_stale_histories_do_report(self):
        """The comparison above is not vacuous: the histories violate TCC."""
        caught = sum(bool(random_history(seed, 90, 0.3, 0.2).check()) for seed in range(12))
        assert caught >= 8

    def test_cops_run_at_tcc(self, tmp_path):
        """A live session-level protocol, judged at the tcc level it does not claim."""
        delta, full = tmp_path / "delta.jsonl", tmp_path / "full.jsonl"
        log = run_recorded("cops", trace=delta)
        write_trace(full, encode_full_deps(log.events))
        for window in (None, 0.2):
            expected = verdicts(delta, window)
            assert expected, "expected cops to violate tcc"
            assert verdicts(full, window) == expected
            assert [(v.kind, v.client, v.detail) for v in log.check(window=window)] == expected


class TestWireSize:
    N_COMMITS = 100

    def session_trace(self, tmp_path, n_keys: int) -> List[dict]:
        """A session with an ``n_keys``-wide frontier commits N_COMMITS times.

        It first writes each of its keys once.  Then each commit reads a newer
        version of one of its keys, written by another client, and overwrites
        it.  Returns the session's commit lines as written to the trace.
        """
        path = tmp_path / f"k{n_keys}.jsonl"
        with TraceWriter(path) as sink:
            oracle = StreamingOracle(sink=sink, checker=EventLog())
            seq = 0

            def commit(client, key, read=()):
                nonlocal seq
                seq += 1
                new = Version(key=key, value=seq, ut=hlc(seq * STEP), tid=(seq, 1), sr=0)
                oracle.record_commit(
                    client=client, tid=new.tid, commit_ts=new.ut, written={key: new},
                    read_versions=list(read), at=float(seq),
                )
                return new

            for i in range(n_keys):
                commit("s", f"k{i:03d}")
            for i in range(self.N_COMMITS):
                foreign = commit("other", f"k{i % n_keys:03d}")
                commit("s", foreign.key, read=[foreign])
        assert StreamingChecker().run(oracle.checker.events) == []
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        return [line for line in lines if line["client"] == "s"][n_keys:]

    def test_dep_entries_equal_frontier_raises(self, tmp_path):
        """Each commit lists the version it read and the session's previous write.

        Those are the two entries raised since the previous commit, so the
        count is exact and independent of the frontier's width.
        """
        for n_keys in (10, 60):
            lines = self.session_trace(tmp_path, n_keys)
            assert sum(len(line["added"]) for line in lines) == 2 * self.N_COMMITS

    def test_commit_lines_do_not_grow_with_the_frontier(self, tmp_path):
        def line_bytes(n_keys):
            lines = self.session_trace(tmp_path, n_keys)
            return sum(len(json.dumps(line, separators=(",", ":"))) for line in lines)

        narrow, wide = line_bytes(10), line_bytes(60)
        assert wide <= 1.05 * narrow, (narrow, wide)
