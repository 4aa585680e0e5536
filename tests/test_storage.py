"""Unit + property tests for the multi-version store."""

from __future__ import annotations

import bisect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.mvstore import MultiVersionStore
from repro.storage.version import PRELOAD_TID, Version, preload_version


def tid(seq: int, uid: int = 1):
    return (seq, uid)


class TestVersionOrder:
    def test_order_by_ut_first(self):
        a = Version("k", 1, ut=1, tid=tid(9), sr=9)
        b = Version("k", 2, ut=2, tid=tid(1), sr=0)
        assert b.newer_than(a)
        assert not a.newer_than(b)

    def test_ties_broken_by_tid_then_sr(self):
        base = Version("k", 1, ut=5, tid=tid(1), sr=0)
        same_ut = Version("k", 2, ut=5, tid=tid(2), sr=0)
        assert same_ut.newer_than(base)
        same_tid = Version("k", 3, ut=5, tid=tid(1), sr=1)
        assert same_tid.newer_than(base)

    def test_preload_sorts_before_everything(self):
        pre = preload_version("k", "init")
        real = Version("k", 1, ut=1, tid=tid(1), sr=0)
        assert real.newer_than(pre)
        assert pre.tid == PRELOAD_TID

    def test_versions_are_frozen(self):
        version = Version("k", 1, ut=1, tid=tid(1), sr=0)
        with pytest.raises(AttributeError):
            version.value = 2


class TestStoreBasics:
    def test_read_unknown_key_is_none(self):
        assert MultiVersionStore().read("ghost", 100) is None

    def test_preload_visible_at_any_snapshot(self):
        store = MultiVersionStore()
        store.preload("k", "init")
        assert store.read("k", 0).value == "init"

    def test_snapshot_read_excludes_future(self):
        store = MultiVersionStore()
        store.preload("k", "init")
        store.apply("k", "new", ut=100, tid=tid(1), sr=0)
        assert store.read("k", 99).value == "init"
        assert store.read("k", 100).value == "new"
        assert store.read("k", 101).value == "new"

    def test_freshest_within_snapshot_wins(self):
        store = MultiVersionStore()
        for i in (10, 30, 20):
            store.apply("k", f"v{i}", ut=i, tid=tid(i), sr=0)
        assert store.read("k", 25).value == "v20"
        assert store.read("k", 9) is None

    def test_equal_ut_resolved_by_tid_sr(self):
        store = MultiVersionStore()
        store.apply("k", "a", ut=10, tid=tid(1), sr=0)
        store.apply("k", "b", ut=10, tid=tid(2), sr=0)
        store.apply("k", "c", ut=10, tid=tid(2), sr=1)
        assert store.read("k", 10).value == "c"

    def test_duplicate_version_rejected(self):
        store = MultiVersionStore()
        store.apply("k", "a", ut=10, tid=tid(1), sr=0)
        with pytest.raises(ValueError):
            store.apply("k", "b", ut=10, tid=tid(1), sr=0)

    def test_read_latest(self):
        store = MultiVersionStore()
        assert store.read_latest("k") is None
        store.apply("k", "a", ut=10, tid=tid(1), sr=0)
        store.apply("k", "b", ut=5, tid=tid(2), sr=0)
        assert store.read_latest("k").value == "a"

    def test_counters(self):
        store = MultiVersionStore()
        store.preload("a", 0)
        store.apply("a", 1, ut=1, tid=tid(1), sr=0)
        store.apply("b", 1, ut=1, tid=tid(1), sr=0)
        assert store.key_count == 2
        assert store.version_count == 3
        assert sorted(store.keys()) == ["a", "b"]

    def test_versions_of_returns_copy_in_order(self):
        store = MultiVersionStore()
        store.apply("k", "b", ut=20, tid=tid(1), sr=0)
        store.apply("k", "a", ut=10, tid=tid(1), sr=0)
        versions = store.versions_of("k")
        assert [v.ut for v in versions] == [10, 20]
        versions.clear()
        assert len(store.versions_of("k")) == 2

    def test_versions_of_unknown_key(self):
        assert MultiVersionStore().versions_of("ghost") == []


class TestGarbageCollection:
    def test_keeps_newest_within_threshold_and_all_newer(self):
        store = MultiVersionStore()
        for i in (10, 20, 30, 40):
            store.apply("k", f"v{i}", ut=i, tid=tid(i), sr=0)
        removed = store.collect(25)
        assert removed == 1  # only v10 goes; v20 is the newest <= 25
        assert [v.ut for v in store.versions_of("k")] == [20, 30, 40]

    def test_gc_preserves_reads_at_or_above_threshold(self):
        store = MultiVersionStore()
        for i in (10, 20, 30):
            store.apply("k", f"v{i}", ut=i, tid=tid(i), sr=0)
        store.collect(25)
        assert store.read("k", 25).value == "v20"
        assert store.read("k", 30).value == "v30"

    def test_gc_noop_when_nothing_below(self):
        store = MultiVersionStore()
        store.apply("k", "a", ut=50, tid=tid(1), sr=0)
        assert store.collect(10) == 0
        assert store.collect(50) == 0
        assert store.version_count == 1

    def test_gc_counts_accumulate(self):
        store = MultiVersionStore()
        for key in ("a", "b"):
            for i in (1, 2, 3):
                store.apply(key, i, ut=i, tid=tid(i), sr=0)
        removed = store.collect(3)
        assert removed == 4
        assert store.version_count == 2

    def test_gc_empty_store(self):
        assert MultiVersionStore().collect(100) == 0


versions_strategy = st.lists(
    st.tuples(st.integers(1, 50), st.integers(1, 20), st.integers(0, 3)),
    min_size=1,
    max_size=60,
    unique=True,
)


class TestStoreProperties:
    @given(versions_strategy, st.integers(0, 60))
    @settings(max_examples=100)
    def test_snapshot_read_is_max_visible(self, triples, snapshot):
        """read(k, s) returns exactly max{(ut,tid,sr) : ut <= s}."""
        store = MultiVersionStore()
        for ut, seq, sr in triples:
            store.apply("k", (ut, seq, sr), ut=ut, tid=tid(seq), sr=sr)
        visible = [(ut, (seq, 1), sr) for ut, seq, sr in triples if ut <= snapshot]
        result = store.read("k", snapshot)
        if not visible:
            assert result is None
        else:
            expected = max(visible)
            assert (result.ut, result.tid, result.sr) == expected

    @given(versions_strategy, st.integers(0, 60), st.integers(0, 60))
    @settings(max_examples=100)
    def test_gc_never_changes_reads_at_or_above_threshold(self, triples, threshold, snapshot):
        store = MultiVersionStore()
        for ut, seq, sr in triples:
            store.apply("k", (ut, seq, sr), ut=ut, tid=tid(seq), sr=sr)
        before = store.read("k", max(threshold, snapshot))
        store.collect(threshold)
        after = store.read("k", max(threshold, snapshot))
        assert (before is None) == (after is None)
        if before is not None:
            assert before.order_key() == after.order_key()

    @given(versions_strategy)
    @settings(max_examples=50)
    def test_chain_always_sorted(self, triples):
        store = MultiVersionStore()
        for ut, seq, sr in triples:
            store.apply("k", None, ut=ut, tid=tid(seq), sr=sr)
        keys = [v.order_key() for v in store.versions_of("k")]
        assert keys == sorted(keys)


def bisect_only_read(chain, snapshot):
    """``_Chain.read`` without its newest-version fast path, kept as the test oracle."""
    keys = [version.order_key() for version in chain.versions]
    index = bisect.bisect_left(keys, (snapshot + 1, (-1, -1), -1))
    return chain.versions[index - 1] if index else None


class TestNewestVersionFastPath:
    """``_Chain.read`` answers from ``versions[-1]`` when the snapshot covers it."""

    @given(versions_strategy, st.one_of(st.none(), st.integers(0, 60)))
    @settings(max_examples=100)
    def test_read_equals_the_bisect_only_read(self, triples, collect_at):
        store = MultiVersionStore()
        for ut, seq, sr in triples:
            store.apply("k", (ut, seq, sr), ut=ut, tid=tid(seq), sr=sr)
        chain = store._chains["k"]
        if collect_at is not None:
            chain.collect(collect_at)  # may leave _order_keys invalidated
        oldest, newest = chain.versions[0].ut, chain.versions[-1].ut
        for snapshot in range(-1, 62):
            cache_was_invalid = chain._order_keys is None
            found = chain.read(snapshot)
            assert found is bisect_only_read(chain, snapshot)
            assert (found is None) == (snapshot < oldest)
            if snapshot >= newest and cache_was_invalid:
                assert chain._order_keys is None  # served without rebuilding the keys

    def test_empty_chain_reads_none(self):
        store = MultiVersionStore()
        store._chain("k")
        assert store.read("k", 10) is None


class TestOrderKeyLazyRebuild:
    """The _order_keys cache is invalidated by GC and rebuilt lazily."""

    def _chain(self, store, key="k"):
        return store._chains[key]

    def test_gc_invalidates_cache_and_read_rebuilds(self):
        store = MultiVersionStore()
        for ut in range(1, 11):
            store.apply("k", ut, ut=ut, tid=tid(ut), sr=0)
        assert store.collect(5) == 4
        assert self._chain(store)._order_keys is None  # invalidated, not sliced
        assert store.read("k", 7).ut == 7  # rebuild on demand
        assert self._chain(store)._order_keys is not None

    def test_insert_after_gc_rebuilds_and_stays_sorted(self):
        store = MultiVersionStore()
        for ut in (2, 6, 4, 10, 8):
            store.apply("k", ut, ut=ut, tid=tid(ut), sr=0)
        store.collect(5)
        # Out-of-order insert straight after GC forces the rebuild path.
        store.apply("k", 5, ut=5, tid=tid(5), sr=0)
        keys = [v.order_key() for v in store.versions_of("k")]
        assert keys == sorted(keys)
        assert store.read("k", 5).ut == 5

    def test_in_order_insert_takes_append_fast_path(self):
        store = MultiVersionStore()
        for ut in range(1, 101):
            store.apply("k", ut, ut=ut, tid=tid(ut), sr=0)
        chain = self._chain(store)
        assert chain._order_keys == [v.order_key() for v in chain.versions]
        assert store.read("k", 50).ut == 50

    def test_duplicate_still_rejected_after_gc(self):
        store = MultiVersionStore()
        for ut in range(1, 6):
            store.apply("k", ut, ut=ut, tid=tid(ut), sr=0)
        store.collect(3)
        with pytest.raises(ValueError, match="duplicate"):
            store.apply("k", 4, ut=4, tid=tid(4), sr=0)

    def test_repeated_gc_cycles_consistent(self):
        store = MultiVersionStore()
        for ut in range(1, 31):
            store.apply("k", ut, ut=ut, tid=tid(ut), sr=0)
        store.collect(10)
        store.collect(20)  # second GC runs against a lazily rebuilt cache
        assert store.read("k", 20).ut == 20
        assert store.read("k", 19) is None or store.read("k", 19).ut <= 19
        keys = [v.order_key() for v in store.versions_of("k")]
        assert keys == sorted(keys)
