"""Unit + property tests for cluster shape and placement."""

from __future__ import annotations

import dataclasses
import pickle
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.topology import ClusterSpec, client_address, server_address


cluster_shapes = st.tuples(
    st.integers(1, 10),  # n_dcs
    st.integers(1, 60),  # n_partitions
).flatmap(
    lambda pair: st.tuples(
        st.just(pair[0]), st.just(pair[1]), st.integers(1, pair[0])
    )
)


def spec_from(shape) -> ClusterSpec:
    n_dcs, n_partitions, rf = shape
    return ClusterSpec(n_dcs=n_dcs, n_partitions=n_partitions, replication_factor=rf)


class TestValidation:
    def test_rf_cannot_exceed_dcs(self):
        with pytest.raises(ValueError):
            ClusterSpec(n_dcs=2, n_partitions=4, replication_factor=3)

    def test_positive_sizes(self):
        with pytest.raises(ValueError):
            ClusterSpec(n_dcs=0, n_partitions=1, replication_factor=1)
        with pytest.raises(ValueError):
            ClusterSpec(n_dcs=1, n_partitions=0, replication_factor=1)

    def test_from_machines_matches_paper_default(self):
        # 5 DCs x 18 machines, RF 2  ->  45 partitions (Section V-A).
        spec = ClusterSpec.from_machines(5, 18, 2)
        assert spec.n_partitions == 45
        assert spec.machines_per_dc == 18
        assert spec.total_servers == 90

    def test_from_machines_requires_divisibility(self):
        with pytest.raises(ValueError):
            ClusterSpec.from_machines(3, 1, 2)

    def test_partition_range_checked(self):
        spec = ClusterSpec(3, 6, 2)
        with pytest.raises(ValueError):
            spec.replica_dcs(6)
        with pytest.raises(ValueError):
            spec.dc_partitions(3)


class TestPlacement:
    def test_replicas_are_distinct_dcs(self):
        spec = ClusterSpec(5, 45, 2)
        for p in range(45):
            dcs = spec.replica_dcs(p)
            assert len(dcs) == 2
            assert len(set(dcs)) == 2

    def test_replica_index_round_trips(self):
        spec = ClusterSpec(5, 45, 2)
        for p in range(45):
            for i, dc in enumerate(spec.replica_dcs(p)):
                assert spec.replica_index(p, dc) == i

    def test_replica_index_unknown_dc(self):
        spec = ClusterSpec(5, 45, 2)
        absent = next(d for d in range(5) if d not in spec.replica_dcs(0))
        with pytest.raises(ValueError):
            spec.replica_index(0, absent)

    def test_balanced_load_paper_default(self):
        spec = ClusterSpec(5, 45, 2)
        sizes = [len(spec.dc_partitions(dc)) for dc in range(5)]
        assert sizes == [18] * 5

    def test_preferred_dc_is_local_when_replicated(self):
        spec = ClusterSpec(5, 45, 2)
        for p in range(45):
            for dc in spec.replica_dcs(p):
                assert spec.preferred_dc(p, dc) == dc

    def test_preferred_dc_is_a_replica_otherwise(self):
        spec = ClusterSpec(5, 45, 2)
        for p in range(45):
            for dc in range(5):
                assert spec.preferred_dc(p, dc) in spec.replica_dcs(p)

    def test_preferred_remote_varies_round_robin(self):
        spec = ClusterSpec(5, 45, 2)
        # Different non-replica DCs should not all pick the same remote.
        choices = set()
        for dc in range(5):
            if not spec.is_replicated_at(7, dc):
                choices.add(spec.preferred_dc(7, dc))
        assert len(choices) == 2  # both replicas get used

    @given(cluster_shapes)
    @settings(max_examples=100)
    def test_placement_invariants(self, shape):
        spec = spec_from(shape)
        counts = {dc: 0 for dc in range(spec.n_dcs)}
        for p in range(spec.n_partitions):
            dcs = spec.replica_dcs(p)
            assert len(set(dcs)) == spec.replication_factor
            for dc in dcs:
                counts[dc] += 1
        # Every replica is accounted for in exactly one DC list.
        assert sum(counts.values()) == spec.n_partitions * spec.replication_factor
        # Placement is balanced to within one partition per DC.
        if spec.n_partitions % spec.n_dcs == 0:
            assert len(set(counts.values())) == 1

    @given(cluster_shapes)
    @settings(max_examples=100)
    def test_dc_partitions_consistent_with_replicas(self, shape):
        spec = spec_from(shape)
        for dc in range(spec.n_dcs):
            for p in spec.dc_partitions(dc):
                assert spec.is_replicated_at(p, dc)


class TestKeyRouting:
    def test_prefixed_keys_route_by_prefix(self):
        spec = ClusterSpec(3, 9, 2)
        assert spec.key_to_partition("p4:k000001") == 4
        assert spec.key_to_partition("p0:anything") == 0

    def test_prefix_wraps_modulo(self):
        spec = ClusterSpec(3, 9, 2)
        assert spec.key_to_partition("p10:k") == 1

    def test_unprefixed_keys_hash_consistently(self):
        spec = ClusterSpec(3, 9, 2)
        assert spec.key_to_partition("user:42") == spec.key_to_partition("user:42")
        assert 0 <= spec.key_to_partition("user:42") < 9

    def test_malformed_prefix_falls_back_to_hash(self):
        spec = ClusterSpec(3, 9, 2)
        assert 0 <= spec.key_to_partition("pxx:k") < 9
        assert 0 <= spec.key_to_partition("p:") < 9

    def test_hash_spreads_keys(self):
        spec = ClusterSpec(3, 9, 2)
        partitions = {spec.key_to_partition(f"user:{i}") for i in range(500)}
        assert len(partitions) == 9

    def test_digit_that_is_no_decimal_falls_back_to_hash(self):
        spec = ClusterSpec(3, 9, 2)
        assert spec.key_to_partition("p²:k") == reference_route(9, "p²:k")


def reference_route(n_partitions: int, key: str) -> int:
    """The routing formula, unmemoized, kept as the test oracle."""
    prefix, sep, _rest = key.partition(":")
    if sep and len(prefix) > 1 and prefix[0] == "p" and prefix[1:].isdecimal():
        return int(prefix[1:]) % n_partitions
    return zlib.crc32(key.encode("utf-8")) % n_partitions


routing_keys = st.one_of(
    st.builds("p{}:k{:06d}".format, st.integers(0, 200), st.integers(0, 999_999)),
    st.sampled_from(["p:", "px1:", "p:k", "p1", "p-1:k", "pp3:k", "p 3:k", "p²:k", "p٣:k", ":p1"]),
    st.text(max_size=12),
)


class TestRoutingMemo:
    @given(st.lists(routing_keys, min_size=1, max_size=30))
    @settings(max_examples=200)
    def test_memoized_route_is_the_formula_for_specs_used_alternately(self, keys):
        narrow, wide = ClusterSpec(3, 7, 2), ClusterSpec(3, 12, 2)
        for _ in range(2):  # second pass: every answer now comes from the memo
            for key in keys:
                assert narrow.key_to_partition(key) == reference_route(7, key)
                assert wide.key_to_partition(key) == reference_route(12, key)

    def test_routing_leaves_no_trace_on_the_spec(self):
        """``==``, ``hash``, ``repr``, ``asdict`` and pickles do not see the memo."""

        def observe(spec):
            return (hash(spec), repr(spec), dataclasses.asdict(spec), pickle.dumps(spec), dict(vars(spec)))

        spec, twin = ClusterSpec(4, 8, 2), ClusterSpec(4, 8, 2)
        before = observe(spec)
        for rank in range(1000):
            spec.key_to_partition(f"p{rank % 8}:memo{rank:06d}")
            spec.key_to_partition(f"memo:{rank}")
        assert observe(spec) == before == observe(twin)
        assert spec == twin == pickle.loads(pickle.dumps(spec))


class TestCapacityModel:
    def test_partial_fraction(self):
        spec = ClusterSpec(5, 45, 2)
        assert spec.storage_fraction_per_dc() == pytest.approx(0.4)
        assert spec.capacity_vs_full_replication() == pytest.approx(2.5)

    def test_full_replication_fraction_is_one(self):
        spec = ClusterSpec(5, 45, 5)
        assert spec.storage_fraction_per_dc() == pytest.approx(1.0)
        assert spec.capacity_vs_full_replication() == pytest.approx(1.0)


class TestStabilizationTree:
    def test_root_is_first_member(self):
        spec = ClusterSpec(5, 45, 2)
        tree = spec.dc_tree(0)
        assert tree.root == tree.members[0]
        assert tree.parent(tree.root) is None

    def test_parent_child_symmetry(self):
        spec = ClusterSpec(5, 45, 2)
        tree = spec.dc_tree(2, fanout=3)
        for member in tree.members:
            for child in tree.children(member):
                assert tree.parent(child) == member

    def test_all_members_reachable_from_root(self):
        spec = ClusterSpec(5, 45, 2)
        tree = spec.dc_tree(1, fanout=2)
        reached = set()
        frontier = [tree.root]
        while frontier:
            node = frontier.pop()
            reached.add(node)
            frontier.extend(tree.children(node))
        assert reached == set(tree.members)

    def test_leaves_have_no_children(self):
        spec = ClusterSpec(3, 6, 2)
        tree = spec.dc_tree(0)
        leaves = [m for m in tree.members if tree.is_leaf(m)]
        assert leaves
        for leaf in leaves:
            assert tree.children(leaf) == []

    def test_fanout_one_is_a_chain(self):
        spec = ClusterSpec(3, 6, 2)
        tree = spec.dc_tree(0, fanout=1)
        for i, member in enumerate(tree.members[:-1]):
            assert tree.children(member) == [tree.members[i + 1]]

    def test_invalid_fanout(self):
        spec = ClusterSpec(3, 6, 2)
        with pytest.raises(ValueError):
            spec.dc_tree(0, fanout=0)

    @given(cluster_shapes, st.integers(1, 4))
    @settings(max_examples=50)
    def test_tree_spans_every_dc_partition(self, shape, fanout):
        spec = spec_from(shape)
        for dc in range(spec.n_dcs):
            members = spec.dc_partitions(dc)
            if not members:
                continue
            tree = spec.dc_tree(dc, fanout=fanout)
            reached = set()
            frontier = [tree.root]
            while frontier:
                node = frontier.pop()
                reached.add(node)
                frontier.extend(tree.children(node))
            assert reached == set(members)


class TestAddresses:
    def test_server_address_format(self):
        assert server_address(2, 7) == "server/d2/p7"

    def test_client_address_format(self):
        assert client_address(1, 3, 4) == "client/d1/p3/c4"
        assert client_address(1, 3) == "client/d1/p3/c0"
