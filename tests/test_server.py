"""Server-level tests: 2PC mechanics, the apply loop, and Proposition 2."""

from __future__ import annotations

import pytest

from repro import build_cluster
from repro.core.messages import (
    CommitTxMsg,
    HeartbeatMsg,
    PrepareReq,
    ReadSliceReq,
    ReadSliceResp,
    ReplicatedTx,
    ReplicateMsg,
    StartTxReq,
)
from tests.conftest import run_for


def collect_reply():
    """A reply callable capturing its payloads."""
    replies = []
    return replies, replies.append


class TestCoordinator:
    def test_start_adopts_fresher_client_snapshot(self, tiny_cluster):
        server = tiny_cluster.server(0, 0)
        replies, reply = collect_reply()
        fresher = server.ust + 1000
        server.coordinator.handle_start_tx("c", StartTxReq(client_snapshot=fresher), reply)
        assert server.ust == fresher
        assert replies[0].snapshot == fresher

    def test_start_ignores_staler_client_snapshot(self, tiny_cluster):
        server = tiny_cluster.server(0, 0)
        before = server.ust
        replies, reply = collect_reply()
        server.coordinator.handle_start_tx("c", StartTxReq(client_snapshot=1), reply)
        assert server.ust == before
        assert replies[0].snapshot == before

    def test_tids_unique_and_tagged_with_server_uid(self, tiny_cluster):
        server = tiny_cluster.server(0, 0)
        replies, reply = collect_reply()
        for _ in range(10):
            server.coordinator.handle_start_tx("c", StartTxReq(client_snapshot=0), reply)
        tids = [r.tid for r in replies]
        assert len(set(tids)) == 10
        assert all(tid[1] == server.uid for tid in tids)

    def test_expired_context_falls_back_to_current_ust(self, tiny_cluster):
        server = tiny_cluster.server(0, 0)
        assert server.coordinator.context_snapshot((424242, server.uid)) == server.ust

    def test_context_expiry_cleans_abandoned_transactions(self, tiny_config):
        from dataclasses import replace

        config = tiny_config.with_(
            protocol=replace(tiny_config.protocol, tx_context_timeout=0.5)
        )
        cluster = build_cluster(config, protocol="paris")
        cluster.sim.run(until=0.2)
        client = cluster.new_client(0, 0)

        def orphan():
            yield client.start_tx()
            client.abort_local()  # never tells the coordinator

        cluster.sim.spawn(orphan())
        run_for(cluster, 2.0)
        server = cluster.server(0, 0)
        assert server.metrics.contexts_expired >= 1
        assert not server.coordinator.contexts


class TestCohort:
    def test_read_slice_returns_freshest_within_snapshot(self, tiny_cluster):
        server = tiny_cluster.server(0, 0)
        server.store.apply("p0:k000000", "newer", ut=server.ust + 5000, tid=(9, 9), sr=0)
        replies, reply = collect_reply()
        server.reads.handle_read_slice(
            "x", ReadSliceReq(keys=("p0:k000000",), snapshot=server.ust), reply
        )
        (key, version), = replies[0].versions
        assert version.value == "init"  # the future write is outside the snapshot

    def test_read_slice_unknown_key_raises(self, tiny_cluster):
        server = tiny_cluster.server(0, 0)
        with pytest.raises(LookupError):
            server.reads.handle_read_slice(
                "x", ReadSliceReq(keys=("ghost",), snapshot=server.ust), lambda r: None
            )

    def test_prepare_proposes_above_snapshot_and_hwt(self, tiny_cluster):
        server = tiny_cluster.server(0, 0)
        replies, reply = collect_reply()
        snapshot = server.ust
        hwt = server.hlc.current + 777
        server.coordinator.handle_prepare(
            "x",
            PrepareReq(tid=(1, 1), snapshot=snapshot, highest_ts=hwt, writes=(("p0:k000000", "v"),)),
            reply,
        )
        proposed = replies[0].proposed_ts
        assert proposed > snapshot  # Lemma 1
        assert proposed > hwt  # Proposition 1 case 1
        assert server.prepared_count == 1

    def test_commit_moves_prepared_to_committed(self, tiny_cluster):
        server = tiny_cluster.server(0, 0)
        replies, reply = collect_reply()
        server.coordinator.handle_prepare(
            "x",
            PrepareReq(tid=(1, 1), snapshot=0, highest_ts=0, writes=(("p0:k000000", "v"),)),
            reply,
        )
        ct = replies[0].proposed_ts + 5
        server.coordinator.handle_commit_tx(
            "x", CommitTxMsg(tid=(1, 1), commit_ts=ct, decided_at=0.0), None
        )
        assert server.prepared_count == 0
        assert server.committed_backlog == 1
        assert server.hlc.current >= ct  # clock moved past the commit ts

    def test_commit_for_unknown_tid_raises(self, tiny_cluster):
        server = tiny_cluster.server(0, 0)
        with pytest.raises(KeyError):
            server.coordinator.handle_commit_tx(
                "x", CommitTxMsg(tid=(404, 404), commit_ts=1, decided_at=0.0), None
            )


class TestApplyLoop:
    def test_version_clock_bound_blocked_by_prepared(self, tiny_cluster):
        """ub = min(prepared) - 1 while a transaction is in flight."""
        server = tiny_cluster.server(0, 0)
        replies, reply = collect_reply()
        server.coordinator.handle_prepare(
            "x", PrepareReq(tid=(1, 1), snapshot=0, highest_ts=0, writes=(("p0:k000000", "v"),)),
            reply,
        )
        assert server.replication.version_clock_bound() == replies[0].proposed_ts - 1

    def test_version_clock_bound_tracks_clock_when_idle(self, tiny_cluster):
        server = tiny_cluster.server(0, 0)
        bound = server.replication.version_clock_bound()
        assert bound >= server.hlc.current - 1
        run_for(tiny_cluster, 0.1)
        assert server.replication.version_clock_bound() > bound

    def test_committed_below_bound_applied_in_order(self, tiny_cluster):
        server = tiny_cluster.server(0, 0)
        base = server.replication.version_clock_bound()
        for i, offset in enumerate((3, 1, 2)):
            replies, reply = collect_reply()
            server.coordinator.handle_prepare(
                "x",
                PrepareReq(
                    tid=(100 + i, 1), snapshot=0, highest_ts=base,
                    writes=((f"p0:k00000{i}", f"v{offset}"),),
                ),
                reply,
            )
            server.coordinator.handle_commit_tx(
                "x",
                CommitTxMsg(tid=(100 + i, 1), commit_ts=replies[0].proposed_ts, decided_at=0.0),
                None,
            )
        run_for(tiny_cluster, 0.1)
        assert server.committed_backlog == 0
        assert server.local_stable_time > base

    def test_proposition_2_local(self, tiny_cluster):
        """VV[r] = t implies every local commit with ct <= t is applied."""
        cluster = tiny_cluster
        client = cluster.new_client(0, 0)

        def txs():
            for i in range(5):
                yield client.start_tx()
                client.write({"p0:k000000": f"v{i}"})
                yield client.commit()

        cluster.sim.spawn(txs())
        for _ in range(100):
            run_for(cluster, 0.01)
            for server in cluster.all_servers():
                own = server.vv[server.dc_id]
                for ct, _, _, _ in server.replication.committed:
                    assert ct > own, "unapplied commit below the version clock"

    def test_proposition_2_remote(self, tiny_cluster):
        """VV[i] = t implies all updates from replica i with ct <= t arrived."""
        cluster = tiny_cluster
        client = cluster.new_client(0, 0)

        def txs():
            for i in range(10):
                yield client.start_tx()
                client.write({"p0:k000000": f"v{i}"})
                yield client.commit()
                yield 0.02

        process = cluster.sim.spawn(txs())
        run_for(cluster, 3.0)
        assert process.done
        # After quiescence both replicas converge to identical chains.
        dcs = cluster.spec.replica_dcs(0)
        chains = [
            [v.order_key() for v in cluster.server(dc, 0).store.versions_of("p0:k000000")]
            for dc in dcs
        ]
        assert chains[0] == chains[1]

    def test_replicate_batches_arrive_in_commit_order(self, tiny_cluster):
        """FIFO + batch ordering: a replica applies groups in ct order."""
        server = tiny_cluster.server(1, 0)  # peer replica of partition 0
        applied_order = []

        class SpyStore:
            """Record apply timestamps, then forward to the real store."""

            def __init__(self, inner):
                self._inner = inner

            def apply(self, key, value, ut, tid, sr, deps=None, dedup=False):
                applied_order.append(ut)
                return self._inner.apply(key, value, ut, tid, sr, deps, dedup=dedup)

            def __getattr__(self, name):
                return getattr(self._inner, name)

        server.store = SpyStore(server.store)
        client = tiny_cluster.new_client(0, 0)

        def txs():
            for i in range(10):
                yield client.start_tx()
                client.write({"p0:k000000": f"v{i}"})
                yield client.commit()

        process = tiny_cluster.sim.spawn(txs())
        run_for(tiny_cluster, 2.0)
        assert process.done
        assert applied_order == sorted(applied_order)
        assert len(applied_order) == 10


class TestServiceCosts:
    def test_read_cost_scales_with_keys(self, tiny_cluster):
        server = tiny_cluster.server(0, 0)
        small = server.service_cost(ReadSliceReq(keys=("a",), snapshot=0))
        large = server.service_cost(ReadSliceReq(keys=tuple("abcdefgh"), snapshot=0))
        assert large > small

    def test_prepare_cost_scales_with_writes(self, tiny_cluster):
        server = tiny_cluster.server(0, 0)
        small = server.service_cost(
            PrepareReq(tid=(1, 1), snapshot=0, highest_ts=0, writes=(("a", 1),))
        )
        large = server.service_cost(
            PrepareReq(
                tid=(1, 1), snapshot=0, highest_ts=0,
                writes=tuple((f"k{i}", i) for i in range(10)),
            )
        )
        assert large > small

    def test_costs_are_base_plus_count_times_rate(self, tiny_cluster):
        server = tiny_cluster.server(0, 0)
        service = tiny_cluster.config.service
        base, read, write = service.base_cost, service.per_key_read, service.per_key_write
        writes = (("a", 1), ("b", 2), ("c", 3))
        groups = (
            ReplicatedTx((1, 1), 5, writes, 1, 0.0),
            ReplicatedTx((2, 1), 6, writes[:2], 1, 0.0),
        )
        cases = [
            (ReadSliceReq(tuple("abcd"), 0), base + 4 * read),
            (ReadSliceResp((("a", None), ("b", None))), base + 2 * read),
            (PrepareReq((1, 1), 0, 0, writes), base + 3 * write),
            (ReplicateMsg(groups, 6), base + 5 * write),
            (HeartbeatMsg(6), base),
        ]
        for payload, expected in cases:
            assert server.service_cost(payload) == expected, type(payload).__name__

    def test_unknown_message_has_base_cost(self, tiny_cluster):
        server = tiny_cluster.server(0, 0)
        assert server.service_cost(object()) == tiny_cluster.config.service.base_cost

    def test_start_stop_cancels_timers(self, tiny_config):
        cluster = build_cluster(tiny_config, protocol="paris")
        server = cluster.server(0, 0)
        cluster.sim.run(until=0.1)
        server.stop()
        heartbeats = server.metrics.heartbeats_sent
        cluster.sim.run(until=0.5)
        assert server.metrics.heartbeats_sent == heartbeats
