"""Membership change as a fault event, checker-verified across the transition.

The ISSUE 8 headline: for every protocol that claims TCC, a run containing
at least one replica *join* and one replica *leave* passes the consistency
checker — unbounded, with a retirement window that straddles the
reconfiguration point, and through a trace-file round trip — with zero
violations.  A negative test proves the verdicts are earned: deliberately
skipping the join's catch-up fractures causality, and every one of those
three ways of checking catches it.

Edge cases from the issue ride along: a join during an active network
partition, a leave of the stabilization tree's root, and a back-to-back
leave/join of the same replica inside one drain window.
"""

from __future__ import annotations

import pytest

from repro import build_cluster, small_test_config
from repro.bench.harness import deploy_sessions
from repro.cluster.topology import server_address
from repro.config import ReconfigConfig
from repro.consistency.streaming import check_trace
from repro.faults import FaultEvent, FaultPlan
from repro.protocols import get_protocol, protocol_names
from repro.sim.trace import TraceWriter
from repro.workload.runner import SessionStats
from tests.conftest import recording_oracle

TCC_PROTOCOLS = sorted(
    name for name in protocol_names() if get_protocol(name).consistency == "tcc"
)

#: Sim seconds past the last event before the run is summarised (covers the
#: drain window plus replication of everything in flight).
SETTLE = 0.5


def base_config(**overrides):
    return small_test_config(n_dcs=3, machines_per_dc=2, keys_per_partition=20).with_(
        **overrides
    )


def join_leave_plan(spec) -> FaultPlan:
    """One leave, one guest join, a rejoin, and the guest's leave — all
    inside the measurement window of ``small_test_config`` (ends at 1.5)."""
    home = spec.dc_partitions(0)[0]  # DC0 hosts this per the spec
    guest = next(p for p in range(spec.n_partitions) if p not in spec.dc_partitions(0))
    return FaultPlan(
        name="join-leave",
        events=(
            FaultEvent(at=0.7, action="remove_replica", dc=0, partition=home),
            FaultEvent(at=0.8, action="add_replica", dc=0, partition=guest),
            FaultEvent(at=1.1, action="add_replica", dc=0, partition=home),
            FaultEvent(at=1.25, action="remove_replica", dc=0, partition=guest),
        ),
    )


def run_plan(protocol: str, plan: FaultPlan, trace=None, **config_overrides):
    """A seeded live run under ``plan``; returns (its EventLog, the cluster).

    With ``trace`` the recorded events are spilled to that JSONL file too.
    """
    config = base_config(faults=plan, **config_overrides)
    sink = TraceWriter(trace) if trace is not None else None
    oracle = recording_oracle(sink)
    try:
        cluster = build_cluster(config, protocol=protocol, oracle=oracle)
        stats = SessionStats()
        for driver in deploy_sessions(cluster, stats):
            driver.start()
        cluster.sim.run(until=plan.horizon + SETTLE)
    finally:
        if sink is not None:
            sink.close()
    return oracle.checker, cluster


def applied_actions(cluster):
    return [event.action for _at, event in cluster.injector.log]


class TestJoinAndLeaveStayConsistent:
    """The tentpole acceptance: every tcc protocol, unbounded and windowed."""

    @pytest.fixture(scope="class")
    def traces(self, tmp_path_factory):
        return tmp_path_factory.mktemp("reconfig-traces")

    @pytest.fixture(scope="class")
    def runs(self, traces):
        cache = {}
        spec = base_config().cluster
        plan = join_leave_plan(spec)
        for protocol in TCC_PROTOCOLS:
            cache[protocol] = run_plan(
                protocol, plan, trace=traces / f"{protocol}.jsonl"
            )
        return cache

    def test_registry_claims_the_expected_tcc_set(self):
        assert TCC_PROTOCOLS == ["bpr", "cure", "gst_local", "occult", "paris"]

    @pytest.mark.parametrize("protocol", TCC_PROTOCOLS)
    def test_plan_ran_at_least_one_join_and_one_leave(self, runs, protocol):
        actions = applied_actions(runs[protocol][1])
        assert actions.count("add_replica") >= 1
        assert actions.count("remove_replica") >= 1
        assert runs[protocol][1].membership.epoch >= 4

    @pytest.mark.parametrize("protocol", TCC_PROTOCOLS)
    def test_run_is_big_enough_to_mean_something(self, runs, protocol):
        log = runs[protocol][0]
        assert len(log.commits) > 50
        assert len(log.reads) > 50

    @pytest.mark.parametrize("protocol", TCC_PROTOCOLS)
    def test_checker_clean_unbounded(self, runs, protocol):
        assert runs[protocol][0].check("tcc") == []

    @pytest.mark.parametrize("protocol", TCC_PROTOCOLS)
    def test_checker_clean_with_window_straddling_reconfig(self, runs, protocol):
        """A finite retirement window spanning the membership events must not
        invent violations: versions the joiner inherited predate the window,
        and retirement has to stay sound across the epoch change."""
        assert runs[protocol][0].check("tcc", window=0.3) == []

    def test_trace_file_round_trip_clean(self, runs, traces):
        log = runs["paris"][0]
        checker = check_trace(traces / "paris.jsonl", window=None, level="tcc")
        assert checker.commits_checked + checker.reads_checked == len(log.events)
        assert checker.violations == []


class TestSkipCatchupIsCaught:
    """Mutation test: break the migration, and the checker must say so."""

    @pytest.fixture(scope="class")
    def fractured(self, tmp_path_factory):
        spec = base_config().cluster
        plan = join_leave_plan(spec)
        path = tmp_path_factory.mktemp("fractured") / "trace.jsonl"
        log, _cluster = run_plan(
            "paris", plan, trace=path, reconfig=ReconfigConfig(skip_catchup=True)
        )
        return log, path

    def test_checker_catches_the_fracture(self, fractured):
        assert fractured[0].check("tcc") != []

    def test_recheck_of_the_trace_file_catches_the_fracture(self, fractured):
        assert check_trace(fractured[1], window=None, level="tcc").violations != []

    def test_windowed_checker_catches_it_too(self, fractured):
        """The stale reads land right at the join, so a window straddling the
        reconfiguration point must still surface them."""
        assert fractured[0].check("tcc", window=0.3) != []

    def test_same_plan_without_the_mutation_is_clean(self):
        spec = base_config().cluster
        log, _cluster = run_plan("paris", join_leave_plan(spec))
        assert log.check("tcc") == []


class TestReconfigEdgeCases:
    def test_join_during_active_partition(self):
        """A replica joins while an inter-DC link is severed; the checker
        stays clean and the join completes against a reachable donor."""
        spec = base_config().cluster
        guest = next(
            p for p in range(spec.n_partitions) if p not in spec.dc_partitions(0)
        )
        plan = FaultPlan(
            name="join-under-partition",
            events=(
                FaultEvent(at=0.6, action="partition", dcs=(0, 2)),
                FaultEvent(at=0.8, action="add_replica", dc=0, partition=guest),
                FaultEvent(at=1.1, action="heal", dcs=(0, 2)),
            ),
        )
        log, cluster = run_plan("paris", plan)
        assert applied_actions(cluster) == ["partition", "add_replica", "heal"]
        assert cluster.membership.is_replicated_at(guest, 0)
        assert log.check("tcc") == []

    def test_leave_of_the_stabilization_tree_root(self):
        """Retiring the root of a DC's aggregation tree forces a rebuild;
        the UST must keep advancing afterwards (stall ok, overshoot never)."""
        spec = base_config().cluster
        root = spec.dc_partitions(1)[0]  # members are ascending; root first
        plan = FaultPlan(
            name="root-leave",
            events=(FaultEvent(at=0.7, action="remove_replica", dc=1, partition=root),),
        )
        log, cluster = run_plan("paris", plan)
        assert log.check("tcc") == []
        survivors = [
            server
            for (dc, partition), server in cluster.servers.items()
            if cluster.membership.is_replicated_at(partition, dc)
        ]
        # Committed work exists from after the event, and the survivors'
        # stabilization plane kept moving past it.
        assert any(commit.at > 0.7 for commit in log.commits)
        assert all(server.local_stable_time > 0 for server in survivors)

    @pytest.mark.parametrize("protocol", ["paris", "cops"])
    def test_replication_peers_follow_the_membership(self, protocol):
        """Ticks cast to a precomputed peer list; every membership change must
        refresh it on every server — with (paris) or without (cops) a
        stabilization plane, members and retired replicas alike."""
        _, cluster = run_plan(protocol, join_leave_plan(base_config().cluster))
        assert cluster.membership.epoch == 4
        for (dc, partition), server in cluster.servers.items():
            assert server.replication.peer_addrs == [
                server_address(peer, partition)
                for peer in cluster.membership.replica_dcs(partition)
                if peer != dc
            ]

    def test_back_to_back_leave_join_within_drain_window(self):
        """Re-adding a replica before its drain-window teardown fires keeps
        the old incarnation alive: no teardown, no retired set entry, and a
        clean history."""
        spec = base_config().cluster
        home = spec.dc_partitions(0)[0]
        plan = FaultPlan(
            name="flap",
            events=(
                FaultEvent(at=0.7, action="remove_replica", dc=0, partition=home),
                FaultEvent(at=0.8, action="add_replica", dc=0, partition=home),
            ),
        )
        log, cluster = run_plan("paris", plan)
        server = cluster.servers[(0, home)]
        assert not server.paused
        assert (0, home) not in cluster.injector.reconfig._retired
        assert cluster.membership.is_replicated_at(home, 0)
        assert log.check("tcc") == []
