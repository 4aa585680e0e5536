"""The checker itself: catches fabricated anomalies, accepts valid histories."""

from __future__ import annotations

from repro.core.client import ReadResult
from repro.storage.version import Version
from tests.conftest import checked_oracle, violations_of


def v(key: str, ut: int, seq: int, sr: int = 0) -> Version:
    return Version(key=key, value=f"{key}@{ut}", ut=ut, tid=(seq, sr), sr=sr)


def store_read(version: Version) -> ReadResult:
    return ReadResult(key=version.key, value=version.value, source="store", version=version)


def record_commit(oracle, client, version_or_versions, read=(), at=0.0):
    versions = (
        version_or_versions
        if isinstance(version_or_versions, (list, tuple))
        else [version_or_versions]
    )
    oracle.record_commit(
        client=client,
        tid=versions[0].tid,
        commit_ts=versions[0].ut,
        written={version.key: version for version in versions},
        read_versions=list(read),
        at=at,
    )


def record_read(oracle, client, versions, tid=(99, 99), snapshot=10**9, at=0.0):
    oracle.record_read(
        client=client,
        tid=tid,
        snapshot=snapshot,
        results={version.key: store_read(version) for version in versions},
        at=at,
    )


class TestCausalSnapshot:
    def test_detects_missing_dependency(self):
        """Writer: X then Y (Y depends on X).  Reader sees new Y, old X."""
        oracle = checked_oracle()
        x_old = v("x", 10, seq=1)
        record_commit(oracle, "writer", x_old)
        x_new = v("x", 20, seq=2)
        record_commit(oracle, "writer", x_new)
        y = v("y", 30, seq=3)
        record_commit(oracle, "writer", y)  # y depends on x@20 via session
        record_read(oracle, "reader", [y, x_old])
        violations = violations_of(oracle, "causal-snapshot")
        assert len(violations) == 1
        assert violations[0].kind == "causal-snapshot"

    def test_accepts_complete_snapshot(self):
        oracle = checked_oracle()
        x = v("x", 20, seq=1)
        record_commit(oracle, "writer", x)
        y = v("y", 30, seq=2)
        record_commit(oracle, "writer", y)
        record_read(oracle, "reader", [y, x])
        assert violations_of(oracle, "causal-snapshot") == []

    def test_transitive_dependency_detected(self):
        """w1 writes X; w2 reads X and writes Y; w3 reads Y and writes Z.
        A reader seeing Z with a pre-X x-version violates causality."""
        oracle = checked_oracle()
        x_old = v("x", 5, seq=1)
        record_commit(oracle, "w0", x_old)
        x = v("x", 10, seq=2)
        record_commit(oracle, "w1", x)
        y = v("y", 20, seq=3)
        record_commit(oracle, "w2", y, read=[x])
        z = v("z", 30, seq=4)
        record_commit(oracle, "w3", z, read=[y])
        record_read(oracle, "reader", [z, x_old])
        violations = violations_of(oracle, "causal-snapshot")
        assert len(violations) == 1

    def test_newer_than_dependency_is_fine(self):
        oracle = checked_oracle()
        x = v("x", 10, seq=1)
        record_commit(oracle, "w1", x)
        y = v("y", 20, seq=2)
        record_commit(oracle, "w1", y)
        x_newer = v("x", 30, seq=3)
        record_commit(oracle, "w2", x_newer)
        record_read(oracle, "reader", [y, x_newer])
        assert violations_of(oracle, "causal-snapshot") == []

    def test_unread_dependency_key_not_flagged(self):
        oracle = checked_oracle()
        x = v("x", 10, seq=1)
        record_commit(oracle, "w1", x)
        y = v("y", 20, seq=2)
        record_commit(oracle, "w1", y)
        record_read(oracle, "reader", [y])  # x not read at all
        assert violations_of(oracle, "causal-snapshot") == []


class TestAtomicVisibility:
    def test_detects_fractured_read(self):
        oracle = checked_oracle()
        a_old = v("a", 5, seq=1)
        record_commit(oracle, "w0", a_old)
        pair = [v("a", 20, seq=2), v("b", 20, seq=2)]
        record_commit(oracle, "writer", pair)
        record_read(oracle, "reader", [pair[1], a_old])  # new b, old a
        violations = violations_of(oracle, "atomic-visibility")
        assert len(violations) == 1
        assert violations[0].kind == "atomic-visibility"

    def test_accepts_whole_transaction(self):
        oracle = checked_oracle()
        pair = [v("a", 20, seq=2), v("b", 20, seq=2)]
        record_commit(oracle, "writer", pair)
        record_read(oracle, "reader", pair)
        assert violations_of(oracle, "atomic-visibility") == []

    def test_newer_sibling_is_fine(self):
        oracle = checked_oracle()
        pair = [v("a", 20, seq=2), v("b", 20, seq=2)]
        record_commit(oracle, "writer", pair)
        b_newer = v("b", 30, seq=3)
        record_commit(oracle, "w2", b_newer)
        record_read(oracle, "reader", [pair[0], b_newer])
        assert violations_of(oracle, "atomic-visibility") == []


class TestReadYourWrites:
    def test_detects_lost_own_write(self):
        oracle = checked_oracle()
        old = v("x", 5, seq=1)
        record_commit(oracle, "other", old, at=0.0)
        mine = v("x", 20, seq=2)
        record_commit(oracle, "me", mine, at=1.0)
        record_read(oracle, "me", [old], at=2.0)  # sees pre-own-write version
        violations = violations_of(oracle, "read-your-writes")
        assert len(violations) == 1
        assert violations[0].kind == "read-your-writes"

    def test_accepts_own_write(self):
        oracle = checked_oracle()
        mine = v("x", 20, seq=2)
        record_commit(oracle, "me", mine, at=1.0)
        record_read(oracle, "me", [mine], at=2.0)
        assert violations_of(oracle, "read-your-writes") == []

    def test_read_before_write_not_flagged(self):
        oracle = checked_oracle()
        old = v("x", 5, seq=1)
        record_commit(oracle, "other", old, at=0.0)
        record_read(oracle, "me", [old], at=0.5)  # before my commit
        mine = v("x", 20, seq=2)
        record_commit(oracle, "me", mine, at=1.0)
        assert violations_of(oracle, "read-your-writes") == []

    def test_ws_reads_skipped(self):
        oracle = checked_oracle()
        mine = v("x", 20, seq=2)
        record_commit(oracle, "me", mine, at=1.0)
        oracle.record_read(
            client="me",
            tid=(3, 3),
            snapshot=10,
            results={"x": ReadResult(key="x", value="buffered", source="ws", version=None)},
            at=2.0,
        )
        assert violations_of(oracle, "read-your-writes") == []


class TestMonotonicReads:
    def test_detects_regression(self):
        oracle = checked_oracle()
        old = v("x", 10, seq=1)
        new = v("x", 20, seq=2)
        record_commit(oracle, "w", old, at=0.0)
        record_commit(oracle, "w", new, at=0.1)
        record_read(oracle, "reader", [new], at=1.0)
        record_read(oracle, "reader", [old], at=2.0)
        violations = violations_of(oracle, "monotonic-reads")
        assert len(violations) == 1
        assert violations[0].kind == "monotonic-reads"

    def test_accepts_repeated_and_advancing_reads(self):
        oracle = checked_oracle()
        old = v("x", 10, seq=1)
        new = v("x", 20, seq=2)
        record_commit(oracle, "w", old, at=0.0)
        record_commit(oracle, "w", new, at=0.1)
        record_read(oracle, "reader", [old], at=1.0)
        record_read(oracle, "reader", [old], at=2.0)
        record_read(oracle, "reader", [new], at=3.0)
        assert violations_of(oracle, "monotonic-reads") == []

    def test_clients_tracked_independently(self):
        oracle = checked_oracle()
        old = v("x", 10, seq=1)
        new = v("x", 20, seq=2)
        record_commit(oracle, "w", old, at=0.0)
        record_commit(oracle, "w", new, at=0.1)
        record_read(oracle, "r1", [new], at=1.0)
        record_read(oracle, "r2", [old], at=2.0)  # different client: fine
        assert violations_of(oracle, "monotonic-reads") == []


class TestDependencyTimestamps:
    def test_detects_inverted_commit_order(self):
        """A version whose ut does not exceed its dependency's ut."""
        oracle = checked_oracle()
        x = v("x", 50, seq=1)
        record_commit(oracle, "w1", x)
        y = v("y", 40, seq=2)  # depends on x but carries a SMALLER ut
        record_commit(oracle, "w1", y, read=[x])
        violations = violations_of(oracle, "dependency-timestamps")
        assert len(violations) == 1
        assert violations[0].kind == "dependency-timestamps"

    def test_accepts_strictly_increasing_chain(self):
        oracle = checked_oracle()
        x = v("x", 10, seq=1)
        record_commit(oracle, "w1", x)
        y = v("y", 20, seq=2)
        record_commit(oracle, "w1", y, read=[x])
        z = v("z", 30, seq=3)
        record_commit(oracle, "w2", z, read=[y])
        assert violations_of(oracle, "dependency-timestamps") == []

    def test_equal_timestamps_flagged(self):
        oracle = checked_oracle()
        x = v("x", 10, seq=1)
        record_commit(oracle, "w1", x)
        y = v("y", 10, seq=2)
        record_commit(oracle, "w1", y, read=[x])
        assert len(violations_of(oracle, "dependency-timestamps")) == 1


class TestReadRecordedBeforeItsCommit:
    """Events are judged in recording order.

    A client records its commit when the commit response arrives; another
    session can read the new version before that.  Such a read is skipped
    for causal snapshots and atomic visibility (the version's dependencies
    and siblings are not known yet) and still judged for the session
    invariants, which need only per-client frontiers.
    """

    def test_causal_snapshot_not_judged(self):
        oracle = checked_oracle()
        x_old = v("x", 10, seq=1)
        record_commit(oracle, "writer", x_old)
        record_commit(oracle, "writer", v("x", 20, seq=2))
        y = v("y", 30, seq=3)  # depends on x@20 via the writer's session
        record_read(oracle, "reader", [y, x_old])
        record_commit(oracle, "writer", y)
        assert oracle.checker.violations == []
        # The same read after the commit is recorded is the classic fracture.
        record_read(oracle, "reader-2", [y, x_old])
        assert [found.kind for found in oracle.checker.violations] == ["causal-snapshot"]

    def test_atomic_visibility_not_judged(self):
        oracle = checked_oracle()
        a_old = v("a", 5, seq=1)
        record_commit(oracle, "w0", a_old)
        pair = [v("a", 20, seq=2), v("b", 20, seq=2)]
        record_read(oracle, "reader", [pair[1], a_old])
        record_commit(oracle, "writer", pair)
        assert oracle.checker.violations == []
        record_read(oracle, "reader-2", [pair[1], a_old])
        assert [found.kind for found in oracle.checker.violations] == ["atomic-visibility"]

    def test_session_invariants_still_judged(self):
        oracle = checked_oracle()
        mine = v("x", 30, seq=3)
        record_commit(oracle, "me", mine)
        record_read(oracle, "me", [mine])
        late = v("x", 20, seq=2)  # its commit is recorded only afterwards
        record_read(oracle, "me", [late])
        record_commit(oracle, "other", late)
        kinds = sorted(found.kind for found in oracle.checker.violations)
        assert kinds == ["monotonic-reads", "read-your-writes"]


class TestCheckAll:
    def test_check_all_aggregates_every_kind(self):
        oracle = checked_oracle()
        x_old = v("x", 5, seq=1)
        record_commit(oracle, "w0", x_old, at=0.0)
        x_new = v("x", 20, seq=2)
        record_commit(oracle, "me", x_new, at=1.0)
        record_read(oracle, "me", [x_new], at=2.0)
        record_read(oracle, "me", [x_old], at=3.0)  # RYW + monotonic violation
        violations = oracle.checker.violations
        kinds = {violation.kind for violation in violations}
        assert "read-your-writes" in kinds
        assert "monotonic-reads" in kinds

    def test_empty_history_is_clean(self):
        assert checked_oracle().checker.violations == []

    def test_preload_reads_are_exempt(self):
        from repro.storage.version import preload_version

        oracle = checked_oracle()
        record_read(oracle, "reader", [preload_version("x", "init")])
        assert oracle.checker.violations == []
