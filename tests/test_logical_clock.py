"""Logical (Lamport) clock mode: unit laws and the Section III-B defect."""

from __future__ import annotations

import pytest

from repro import build_cluster
from repro.clocks.hlc import HybridLogicalClock
from repro.clocks.logical import LogicalClock
from repro.config import ClockConfig
from tests.conftest import run_for


class TestLogicalClockLaws:
    def test_now_strictly_monotonic(self):
        clock = LogicalClock()
        values = [clock.now() for _ in range(50)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_update_exceeds_both(self):
        clock = LogicalClock()
        clock.now()
        merged = clock.update(100)
        assert merged == 101
        assert clock.update(5) == 102  # still above local

    def test_observe(self):
        clock = LogicalClock()
        clock.observe(50)
        assert clock.current == 50
        clock.observe(10)
        assert clock.current == 50

    def test_does_not_advance_without_events(self):
        clock = LogicalClock()
        reading = clock.now()
        # No amount of waiting changes the counter — the defining difference
        # from HLCs.
        assert clock.current == reading

    def test_interface_flags(self):
        assert LogicalClock.uses_physical_time is False
        assert HybridLogicalClock.uses_physical_time is True


class TestLogicalClockMode:
    @pytest.fixture
    def logical_config(self, tiny_config):
        return tiny_config.with_(clocks=ClockConfig(mode="logical"))

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            ClockConfig(mode="quartz")

    def test_servers_use_logical_clocks(self, logical_config):
        cluster = build_cluster(logical_config, protocol="paris")
        assert all(
            isinstance(server.hlc, LogicalClock) for server in cluster.all_servers()
        )

    def test_transactions_still_work(self, logical_config):
        cluster = build_cluster(logical_config, protocol="paris")
        run_for(cluster, 1.0)
        client = cluster.new_client(0, 0)

        def tx():
            yield client.start_tx()
            client.write({"p0:k000000": "lamport"})
            yield client.commit()
            yield 1.0
            values = yield client.read_only(["p0:k000000"])
            return values

        process = cluster.sim.spawn(tx())
        run_for(cluster, 3.0)
        assert process.done
        assert process.completed.value["p0:k000000"].value == "lamport"

    def test_consistency_preserved_under_logical_clocks(self, logical_config):
        """Correctness never depended on physical time — only freshness does."""
        from repro.bench.harness import deploy_sessions
        from tests.conftest import checked_oracle
        from repro.workload.runner import SessionStats

        oracle = checked_oracle()
        cluster = build_cluster(logical_config, protocol="paris", oracle=oracle)
        stats = SessionStats()
        for driver in deploy_sessions(cluster, stats):
            driver.start()
        run_for(cluster, 1.5)
        assert stats.completed_total > 10
        assert oracle.checker.violations == []

    def test_idle_version_clocks_freeze(self, logical_config):
        """Without traffic, logical version clocks cannot advance (the UST
        freshness defect); HLC clocks keep moving."""
        logical = build_cluster(logical_config, protocol="paris")
        run_for(logical, 1.0)
        before = [s.local_stable_time for s in logical.all_servers()]
        run_for(logical, 1.0)
        after = [s.local_stable_time for s in logical.all_servers()]
        assert after == before  # no events, no progress

        hlc_cluster = build_cluster(
            logical_config.with_(clocks=ClockConfig(mode="hlc")), protocol="paris"
        )
        run_for(hlc_cluster, 1.0)
        before = [s.local_stable_time for s in hlc_cluster.all_servers()]
        run_for(hlc_cluster, 1.0)
        after = [s.local_stable_time for s in hlc_cluster.all_servers()]
        assert all(b > a for a, b in zip(before, after))
