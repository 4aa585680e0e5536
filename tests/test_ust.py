"""Tests of the UST stabilization protocol (Section IV-B) and its safety.

The central safety property (Proposition 2 + the UST definition): at any
moment, every server's UST is at most every server's locally installed
snapshot, i.e. ``ust_any <= min(VV)_any`` over servers of the whole system.
A transaction reading at the UST therefore never waits (non-blocking reads).
"""

from __future__ import annotations

import pytest

from repro import build_cluster
from tests.conftest import run_for


def global_min_installed(cluster) -> int:
    return min(server.local_stable_time for server in cluster.all_servers())


def max_ust(cluster) -> int:
    return max(server.ust for server in cluster.all_servers())


class TestConvergence:
    def test_ust_starts_at_zero(self, tiny_config):
        cluster = build_cluster(tiny_config, protocol="paris")
        assert all(server.ust == 0 for server in cluster.all_servers())

    def test_ust_becomes_positive_after_warmup(self, tiny_cluster):
        assert all(server.ust > 0 for server in tiny_cluster.all_servers())

    def test_ust_advances_over_time(self, tiny_cluster):
        before = [server.ust for server in tiny_cluster.all_servers()]
        run_for(tiny_cluster, 0.5)
        after = [server.ust for server in tiny_cluster.all_servers()]
        assert all(b > a for a, b in zip(before, after))

    def test_staleness_is_bounded_by_wan_and_gossip(self, tiny_cluster):
        run_for(tiny_cluster, 1.0)
        staleness = tiny_cluster.ust_staleness()
        # Lower bound: the farthest one-way latency (GSTs must cross the WAN).
        # Upper bound: a handful of gossip rounds + replication lag on top.
        max_one_way = tiny_cluster.network.latency_model.max_one_way()
        assert staleness >= max_one_way * 0.9
        assert staleness < max_one_way * 2 + 0.2

    def test_servers_agree_within_gossip_lag(self, tiny_cluster):
        run_for(tiny_cluster, 1.0)
        usts = [server.ust for server in tiny_cluster.all_servers()]
        # All servers see a recent UST; spreads stay within the gossip cadence.
        from repro.clocks.hlc import timestamp_to_seconds

        spread = timestamp_to_seconds(max(usts)) - timestamp_to_seconds(min(usts))
        assert spread < 0.1


class TestSafety:
    def test_ust_never_exceeds_global_min_installed(self, tiny_config):
        cluster = build_cluster(tiny_config, protocol="paris")
        for _ in range(60):
            run_for(cluster, 0.05)
            assert max_ust(cluster) <= global_min_installed(cluster)

    def test_ust_safe_under_load(self, tiny_config):
        from repro.bench.harness import deploy_sessions
        from repro.workload.runner import SessionStats

        cluster = build_cluster(tiny_config, protocol="paris")
        stats = SessionStats()
        for driver in deploy_sessions(cluster, stats):
            driver.start()
        for _ in range(40):
            run_for(cluster, 0.05)
            assert max_ust(cluster) <= global_min_installed(cluster)

    def test_ust_monotonic_per_server(self, tiny_config):
        cluster = build_cluster(tiny_config, protocol="paris")
        last = {address: 0 for address in (s.address for s in cluster.all_servers())}
        for _ in range(40):
            run_for(cluster, 0.05)
            for server in cluster.all_servers():
                assert server.ust >= last[server.address]
                last[server.address] = server.ust

    def test_version_clock_never_regresses(self, tiny_cluster):
        server = tiny_cluster.server(0, 0)
        with pytest.raises(AssertionError):
            server.replication.advance_version_clock(0)

    def test_snapshot_reads_never_block(self, tiny_cluster):
        """The non-blocking property: a read at the UST is served from data
        already installed — the read slice path has no wait state at all."""
        client = tiny_cluster.new_client(0, 0)
        served_before = sum(
            s.metrics.read_slices_served for s in tiny_cluster.all_servers()
        )

        def tx():
            yield client.start_tx()
            yield client.read(["p0:k000000", "p1:k000000", "p2:k000000"])
            client.finish()

        process = tiny_cluster.sim.spawn(tx())
        run_for(tiny_cluster, 0.5)
        assert process.done
        served_after = sum(
            s.metrics.read_slices_served for s in tiny_cluster.all_servers()
        )
        assert served_after - served_before == 3
        # PaRiS never records blocking time.
        assert all(
            s.metrics.blocking.summary.count == 0 for s in tiny_cluster.all_servers()
        )


class TestFreezeUnderPartition:
    def test_isolating_a_dc_freezes_ust_everywhere(self, tiny_cluster):
        run_for(tiny_cluster, 0.5)
        tiny_cluster.network.isolate_dc(2)
        run_for(tiny_cluster, 0.5)  # let in-flight gossip drain
        frozen = [server.ust for server in tiny_cluster.all_servers()]
        run_for(tiny_cluster, 1.0)
        after = [server.ust for server in tiny_cluster.all_servers()]
        assert after == frozen

    def test_staleness_grows_during_partition(self, tiny_cluster):
        run_for(tiny_cluster, 0.5)
        tiny_cluster.network.isolate_dc(2)
        run_for(tiny_cluster, 0.5)
        staleness_early = tiny_cluster.ust_staleness()
        run_for(tiny_cluster, 1.0)
        staleness_late = tiny_cluster.ust_staleness()
        assert staleness_late - staleness_early == pytest.approx(1.0, abs=0.1)

    def test_heal_resumes_ust(self, tiny_cluster):
        run_for(tiny_cluster, 0.5)
        tiny_cluster.network.isolate_dc(2)
        run_for(tiny_cluster, 1.0)
        frozen = max_ust(tiny_cluster)
        tiny_cluster.network.heal()
        run_for(tiny_cluster, 1.0)
        assert max_ust(tiny_cluster) > frozen
        assert tiny_cluster.ust_staleness() < 0.5

    def test_local_transactions_remain_available_during_partition(self, tiny_cluster):
        """Partition 0 is replicated at DCs 0 and 1; with DC 2 cut off, a
        client in DC 0 writing partition 0 keys still commits (availability,
        Section III-C)."""
        run_for(tiny_cluster, 0.5)
        tiny_cluster.network.isolate_dc(2)
        client = tiny_cluster.new_client(0, 0)

        def txs():
            for i in range(10):
                yield client.start_tx()
                client.write({"p0:k000000": f"v{i}"})
                yield client.commit()

        process = tiny_cluster.sim.spawn(txs())
        run_for(tiny_cluster, 2.0)
        assert process.done
        assert client.transactions_committed == 10

    def test_remote_reads_to_isolated_dc_block_until_heal(self, tiny_cluster):
        """Partition 1 is replicated at DCs 1 and 2.  A client in DC 0 prefers
        the replica in DC 1 = replicas[0 % 2]; isolating *that* replica's DC
        makes the remote read unavailable until heal (Section III-C)."""
        run_for(tiny_cluster, 0.5)
        spec = tiny_cluster.spec
        target_dc = spec.preferred_dc(1, 0)
        assert target_dc != 0
        tiny_cluster.network.isolate_dc(target_dc)
        client = tiny_cluster.new_client(0, 0)

        def tx():
            yield client.start_tx()
            yield client.read(["p1:k000000"])
            client.finish()

        process = tiny_cluster.sim.spawn(tx())
        run_for(tiny_cluster, 1.0)
        assert not process.done  # unavailable while partitioned
        tiny_cluster.network.heal()
        run_for(tiny_cluster, 1.0)
        assert process.done


class TestGossipPlumbing:
    def test_root_collects_reports_from_every_dc(self, tiny_cluster):
        spec = tiny_cluster.spec
        for dc in range(spec.n_dcs):
            root = tiny_cluster.server(dc, spec.dc_tree(dc).root)
            assert root.is_root
            assert set(root.stabilization.dc_reports) == set(range(spec.n_dcs))

    def test_non_roots_do_not_gossip_across_dcs(self, tiny_cluster):
        spec = tiny_cluster.spec
        for dc in range(spec.n_dcs):
            tree = spec.dc_tree(dc)
            for partition in spec.dc_partitions(dc):
                server = tiny_cluster.server(dc, partition)
                assert server.is_root == (partition == tree.root)
                if not server.is_root:
                    assert not server.stabilization.dc_reports

    def test_heartbeats_flow_when_idle(self, tiny_cluster):
        run_for(tiny_cluster, 0.5)
        assert all(
            server.metrics.heartbeats_sent > 0 for server in tiny_cluster.all_servers()
        )

    def test_stabilization_messages_are_periodic_and_bounded(self, tiny_config):
        """Gossip is lightweight: message rate scales with servers, not load."""
        cluster = build_cluster(tiny_config, protocol="paris")
        run_for(cluster, 1.0)
        counts = cluster.network.metrics.by_type
        n_servers = len(cluster.all_servers())
        seconds = 1.0
        gst_rate = counts.get("AggUpMsg", 0) / seconds
        # Each non-root server sends one AggUp per Delta_G = 5 ms.
        n_non_roots = n_servers - tiny_config.cluster.n_dcs
        expected = n_non_roots / 0.005
        assert gst_rate == pytest.approx(expected, rel=0.3)
