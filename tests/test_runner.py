"""Tests for closed-loop session drivers and their metrics plumbing."""

from __future__ import annotations


from repro.workload.generator import WorkloadGenerator
from repro.workload.runner import SessionDriver, SessionStats, run_transaction
from tests.conftest import run_for


def make_driver(cluster, stats, dc_id=0, partition=0, seed_name="t"):
    client = cluster.new_client(dc_id, partition)
    generator = WorkloadGenerator(
        cluster.spec,
        cluster.config.workload,
        dc_id,
        cluster.rngs.stream(f"test.workload.{seed_name}"),
    )
    return SessionDriver(client, generator, stats)


class TestSessionDriver:
    def test_closed_loop_progresses(self, tiny_cluster):
        stats = SessionStats()
        driver = make_driver(tiny_cluster, stats)
        driver.start()
        run_for(tiny_cluster, 1.0)
        assert driver.transactions_run > 5
        assert stats.completed_total == driver.transactions_run

    def test_window_gating(self, tiny_cluster):
        stats = SessionStats()
        driver = make_driver(tiny_cluster, stats)
        driver.start()
        run_for(tiny_cluster, 0.5)
        assert stats.latency == []  # window not open yet
        assert stats.completed_in_window == 0
        stats.open_window(tiny_cluster.sim.now)
        run_for(tiny_cluster, 0.5)
        stats.close_window(tiny_cluster.sim.now)
        in_window = len(stats.latency)
        assert in_window > 0
        run_for(tiny_cluster, 0.5)
        assert len(stats.latency) == in_window  # closed: no more samples
        assert stats.completed_in_window == in_window

    def test_default_workload_writes_in_every_transaction(self, tiny_cluster):
        generator = make_driver(tiny_cluster, SessionStats()).generator
        specs = [generator.next_transaction() for _ in range(200)]
        assert all(spec.writes for spec in specs)

    def test_multiple_drivers_share_stats(self, tiny_cluster):
        stats = SessionStats()
        drivers = [
            make_driver(tiny_cluster, stats, seed_name=f"s{i}") for i in range(3)
        ]
        for driver in drivers:
            driver.start()
        stats.open_window(tiny_cluster.sim.now)
        run_for(tiny_cluster, 0.5)
        stats.close_window(tiny_cluster.sim.now)  # sessions keep running
        run_for(tiny_cluster, 0.5)
        assert 0 < stats.completed_in_window < stats.completed_total
        assert stats.completed_in_window == len(stats.latency)
        assert stats.multi_dc_count <= stats.completed_in_window
        assert stats.completed_total == sum(d.transactions_run for d in drivers)


class TestSessionStatsWindow:
    """One window test decides what counts and what is sampled."""

    def test_counts_only_inside_window(self):
        stats = SessionStats()
        stats.record_completion(0.1, multi_dc=True)  # before the window
        stats.open_window(1.0)
        stats.record_completion(0.2, multi_dc=True)
        stats.record_completion(0.3, multi_dc=False)
        stats.close_window(3.0)
        stats.record_completion(0.4, multi_dc=True)  # after the window
        assert stats.completed_in_window == 2
        assert stats.completed_total == 4
        assert stats.latency == [0.2, 0.3]
        assert stats.multi_dc_count == 1


class TestRunTransaction:
    def test_update_transaction(self, tiny_cluster):
        from repro.workload.generator import TransactionSpec

        client = tiny_cluster.new_client(0, 0)
        spec = TransactionSpec(
            reads=("p0:k000000",),
            writes=(("p0:k000001", "x"),),
            partitions=(0,),
            is_local=True,
        )
        process = tiny_cluster.sim.spawn(run_transaction(client, spec))
        run_for(tiny_cluster, 1.0)
        commit_ts, results = process.completed.value
        assert commit_ts is not None and commit_ts > 0
        assert results["p0:k000000"].value == "init"

    def test_read_only_transaction(self, tiny_cluster):
        from repro.workload.generator import TransactionSpec

        client = tiny_cluster.new_client(0, 0)
        spec = TransactionSpec(
            reads=("p0:k000000",), writes=(), partitions=(0,), is_local=True
        )
        process = tiny_cluster.sim.spawn(run_transaction(client, spec))
        run_for(tiny_cluster, 1.0)
        commit_ts, results = process.completed.value
        assert commit_ts is None
        assert results is not None
        assert client.transactions_finished == 1
