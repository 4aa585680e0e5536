"""The paper's availability story, end to end (ISSUE 2 acceptance).

Under an inter-DC partition (the committed plan in
``examples/plans/partition_stall.json``):

* PaRiS reads complete at pre-partition snapshots — no read ever blocks;
* BPR reads park until the partition heals, so their latency is bounded only
  by the partition's duration;
* the consistency checker reports zero violations for both protocols;
* two runs with the same seed and plan produce identical traces.
"""

from __future__ import annotations

import os

import pytest

from repro import build_cluster, small_test_config
from repro.bench.experiments import BenchScale, partition_stall
from repro.bench.figures import FIGURES
from repro.faults import FaultPlan
from repro.sim.trace import Tracer

PLAN_PATH = os.path.join(
    os.path.dirname(__file__), "..", "examples", "plans", "partition_stall.json"
)

#: A cut-down scale so the scenario (and its checker passes) stays test-fast.
TINY_SCALE = BenchScale(
    name="tiny",
    n_dcs=3,
    machines_per_dc=2,
    replication_factor=2,
    thread_ladder=(1,),
    saturating_threads=8,
    warmup=0.5,
    duration=1.0,
    keys_per_partition=30,
    fig2a_machines=(2,),
    fig2a_dcs=(3,),
    fig2b_dcs=(3,),
    fig2b_machines=(2,),
)


@pytest.fixture(scope="module")
def stall_rows():
    """One partition-stall episode for each protocol (module-scoped: slow)."""
    return {row.protocol: row for row in partition_stall(TINY_SCALE)}


class TestPartitionStall:
    def test_paris_stays_available_and_non_blocking(self, stall_rows):
        paris = stall_rows["paris"]
        assert paris.committed_during > 100  # kept committing through the cut
        assert paris.blocked_slices == 0  # no read ever blocked
        assert paris.parked_at_heal == 0

    def test_bpr_reads_block_for_the_partition_duration(self, stall_rows):
        paris, bpr = stall_rows["paris"], stall_rows["bpr"]
        assert bpr.committed_during < paris.committed_during * 0.1
        assert bpr.parked_at_heal > 0  # reads still parked when the cut healed
        assert bpr.blocked_slices > 0
        # The longest block spans (most of) the partition window: latency is
        # bounded only by how long the partition lasts.
        window = 0.5 * TINY_SCALE.duration
        assert bpr.blocking_max > 0.8 * window

    def test_staleness_grew_while_partitioned(self, stall_rows):
        window = 0.5 * TINY_SCALE.duration
        for row in stall_rows.values():
            assert row.ust_staleness_at_heal > 0.8 * window

    def test_zero_violations_under_the_fault(self, stall_rows):
        for row in stall_rows.values():
            assert row.violations == 0

    def test_phase_counts_are_pinned(self, stall_rows):
        """The episode is deterministic: a completion that moves across a
        window edge (heal, partition or drain horizon) changes these."""
        counts = {
            protocol: (
                row.committed_before,
                row.committed_during,
                row.committed_after,
                row.parked_at_heal,
                row.blocked_slices,
            )
            for protocol, row in stall_rows.items()
        }
        assert counts == {
            "paris": (2226, 1646, 3836, 0, 0),
            "bpr": (74, 6, 127, 8, 418),
        }

    def test_report_renders(self, stall_rows):
        text = FIGURES["partition"].render(list(stall_rows.values()))
        assert "paris" in text and "bpr" in text and "violations" in text


def _config(plan: FaultPlan):
    return small_test_config(n_dcs=3, machines_per_dc=2, keys_per_partition=20).with_(
        warmup=0.8, duration=1.5, faults=plan
    )


class TestSnapshotSemantics:
    def test_paris_reads_complete_at_pre_partition_snapshots(self):
        plan = FaultPlan.load(PLAN_PATH)  # partition at 1.05s, heal at 1.55s
        cluster = build_cluster(_config(plan), protocol="paris")
        sim = cluster.sim
        sim.run(until=1.15)  # partition in force, in-flight gossip drained
        coordinator = cluster.server(0, 0)
        frozen = coordinator.ust
        client = cluster.new_client(0, 0)

        # Partition 2 is replicated at DC 0 and the isolated DC 2, so its
        # local replica's version vector is frozen — the interesting case.
        def probe():
            results = yield client.read_only(["p2:k000000"])
            return results

        process = sim.spawn(probe())
        sim.run(until=1.3)  # still partitioned
        assert process.done  # the read completed without blocking...
        assert client.last_snapshot <= frozen  # ...at a pre-partition snapshot

    def test_bpr_read_blocks_until_heal(self):
        plan = FaultPlan.load(PLAN_PATH)
        cluster = build_cluster(_config(plan), protocol="bpr")
        sim = cluster.sim
        sim.run(until=1.15)
        client = cluster.new_client(0, 0)

        # Read a partition whose peer replica lives in the isolated DC: its
        # local version vector is frozen, so the fresh BPR snapshot outruns it.
        def probe():
            results = yield client.read_only(["p2:k000000"])
            return results

        process = sim.spawn(probe())
        sim.run(until=1.5)  # the whole remaining partition window
        assert not process.done  # parked: snapshot outran the frozen VV
        sim.run(until=2.5)  # heal at 1.55 releases held replication traffic
        assert process.done


class TestDeterminism:
    def _trace_one_run(self, protocol: str) -> list:
        from repro.bench.harness import deploy_sessions
        from repro.workload.runner import SessionStats

        plan = FaultPlan.load(PLAN_PATH)
        tracer = Tracer()
        config = _config(plan)
        cluster = build_cluster(config, protocol=protocol)
        for server in cluster.all_servers():
            server.tracer = tracer
        stats = SessionStats()
        for driver in deploy_sessions(cluster, stats):
            driver.start()
        with tracer.capture("commit", "ust", "apply", "block"):
            cluster.sim.run(until=2.5)
        assert stats.completed_total > 0
        return tracer.records

    @pytest.mark.parametrize("protocol", ["paris", "bpr"])
    def test_same_seed_and_plan_same_trace(self, protocol):
        first = self._trace_one_run(protocol)
        second = self._trace_one_run(protocol)
        assert len(first) > 100
        assert first == second
