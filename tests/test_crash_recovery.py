"""Server crash / recovery behaviour (Section III-C, "Failures within a DC").

The paper: "the failure of a server blocks the progress of UST, but only as
long as a backup has not taken over."  We model fail-stop crashes with
durable state and retransmitting peers; recovery drains the backlog and the
UST resumes.  Consistency must survive the whole episode.
"""

from __future__ import annotations


from repro import build_cluster
from tests.conftest import checked_oracle, drive, run_for


def max_ust(cluster) -> int:
    return max(server.ust for server in cluster.all_servers())


class TestCrash:
    def test_crash_freezes_ust_everywhere(self, tiny_cluster):
        run_for(tiny_cluster, 0.5)
        tiny_cluster.crash_server(0, 0)
        run_for(tiny_cluster, 0.5)  # drain in-flight gossip
        frozen = max_ust(tiny_cluster)
        run_for(tiny_cluster, 1.0)
        assert max_ust(tiny_cluster) == frozen

    def test_crashed_server_queues_instead_of_processing(self, tiny_cluster):
        tiny_cluster.crash_server(0, 0)
        server = tiny_cluster.server(0, 0)
        before = server.metrics.read_slices_served
        client = tiny_cluster.new_client(1, 1)  # coordinator elsewhere

        def tx():
            yield client.start_tx()
            yield client.read(["p0:k000000"])  # slice served by (1,0) locally
            client.finish()

        process = tiny_cluster.sim.spawn(tx())
        run_for(tiny_cluster, 1.0)
        assert process.done  # the other replica serves it
        assert server.metrics.read_slices_served == before
        assert server.paused

    def test_operations_through_crashed_coordinator_stall_then_recover(
        self, tiny_cluster
    ):
        run_for(tiny_cluster, 0.2)
        tiny_cluster.crash_server(0, 0)
        client = tiny_cluster.new_client(0, 0)  # session pinned to crashed server

        def tx():
            yield client.start_tx()
            client.write({"p0:k000000": "survived"})
            commit_ts = yield client.commit()
            return commit_ts

        process = tiny_cluster.sim.spawn(tx())
        run_for(tiny_cluster, 1.0)
        assert not process.done  # stalled on the crashed coordinator
        tiny_cluster.recover_server(0, 0)
        run_for(tiny_cluster, 1.0)
        assert process.done
        assert process.completed.value > 0


class TestRecovery:
    def test_ust_resumes_after_recovery(self, tiny_cluster):
        run_for(tiny_cluster, 0.5)
        tiny_cluster.crash_server(0, 0)
        run_for(tiny_cluster, 1.0)
        frozen = max_ust(tiny_cluster)
        tiny_cluster.recover_server(0, 0)
        run_for(tiny_cluster, 1.0)
        assert max_ust(tiny_cluster) > frozen
        assert tiny_cluster.ust_staleness() < 0.5

    def test_backlogged_replication_is_applied_in_order(self, tiny_cluster):
        """Updates committed while a replica was down arrive after recovery,
        in commit order, leaving replicas identical."""
        run_for(tiny_cluster, 0.2)
        tiny_cluster.crash_server(1, 0)  # peer replica of partition 0
        writer = tiny_cluster.new_client(0, 0)

        def txs():
            for i in range(8):
                yield writer.start_tx()
                writer.write({"p0:k000000": f"v{i}"})
                yield writer.commit()

        drive(tiny_cluster, txs())
        run_for(tiny_cluster, 0.5)
        crashed = tiny_cluster.server(1, 0)
        assert crashed.store.read_latest("p0:k000000").value == "init"
        tiny_cluster.recover_server(1, 0)
        run_for(tiny_cluster, 1.5)
        chains = [
            [v.order_key() for v in tiny_cluster.server(dc, 0).store.versions_of("p0:k000000")]
            for dc in tiny_cluster.spec.replica_dcs(0)
        ]
        assert chains[0] == chains[1]
        assert crashed.store.read_latest("p0:k000000").value == "v7"

    def test_consistency_survives_crash_episode(self, tiny_config):
        """A full workload with a crash + recovery in the middle stays TCC."""
        from repro.bench.harness import deploy_sessions
        from repro.workload.runner import SessionStats

        oracle = checked_oracle()
        cluster = build_cluster(tiny_config, protocol="paris", oracle=oracle)
        stats = SessionStats()
        for driver in deploy_sessions(cluster, stats):
            driver.start()
        run_for(cluster, 0.6)
        cluster.crash_server(2, 1)
        run_for(cluster, 0.6)
        cluster.recover_server(2, 1)
        run_for(cluster, 1.0)
        assert stats.completed_total > 20
        violations = oracle.checker.violations
        assert violations == [], "\n".join(str(v) for v in violations[:5])

    def test_recovery_is_idempotent(self, tiny_cluster):
        tiny_cluster.crash_server(0, 0)
        tiny_cluster.recover_server(0, 0)
        run_for(tiny_cluster, 0.3)
        server = tiny_cluster.server(0, 0)
        assert not server.paused
        before = server.metrics.heartbeats_sent + server.metrics.replicate_batches_sent
        run_for(tiny_cluster, 0.3)
        after = server.metrics.heartbeats_sent + server.metrics.replicate_batches_sent
        assert after > before  # timers are running again (exactly once)
