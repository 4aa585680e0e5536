"""One-round read-only transactions (the paper's headline fast path)."""

from __future__ import annotations

import pytest

from repro.core.client import TransactionStateError
from repro.core.messages import OneShotReadReq, StartTxReq
from tests.conftest import drive, run_for


class TestOneRound:
    def test_values_match_interactive_read(self, tiny_cluster):
        client = tiny_cluster.new_client(0, 0)
        keys = ["p0:k000000", "p1:k000000", "p2:k000000"]

        def interactive():
            yield client.start_tx()
            values = yield client.read(keys)
            client.finish()
            return values

        def one_shot():
            values = yield client.read_only(keys)
            return values

        interactive_values = drive(tiny_cluster, interactive())
        one_shot_values = drive(tiny_cluster, one_shot())
        for key in keys:
            assert one_shot_values[key].value == interactive_values[key].value

    def test_single_client_round(self, tiny_cluster):
        """One OneShotReadReq replaces a StartTxReq + ReadReq exchange."""
        client = tiny_cluster.new_client(0, 0)
        metrics = tiny_cluster.network.metrics
        before_one_shot = metrics.by_type.get("OneShotReadReq", 0)
        before_start = metrics.by_type.get("StartTxReq", 0)

        def one_shot():
            return (yield client.read_only(["p0:k000000", "p1:k000000"]))

        drive(tiny_cluster, one_shot())
        assert metrics.by_type.get("OneShotReadReq", 0) == before_one_shot + 1
        assert metrics.by_type.get("StartTxReq", 0) == before_start  # no START-TX

    def test_leaves_no_coordinator_context(self, tiny_cluster):
        client = tiny_cluster.new_client(0, 0)

        def one_shot():
            return (yield client.read_only(["p0:k000000"]))

        drive(tiny_cluster, one_shot())
        assert not tiny_cluster.server(0, 0).coordinator.contexts
        assert not client.in_transaction

    def test_rejected_inside_interactive_transaction(self, tiny_cluster):
        client = tiny_cluster.new_client(0, 0)

        def tx():
            yield client.start_tx()
            client.read_only(["p0:k000000"])

        with pytest.raises(TransactionStateError):
            drive(tiny_cluster, tx())

    def test_empty_and_duplicate_keys(self, tiny_cluster):
        client = tiny_cluster.new_client(0, 0)

        def dupes():
            return (yield client.read_only(["p0:k000000", "p0:k000000"]))

        values = drive(tiny_cluster, dupes())
        assert len(values) == 1


class TestOneShotSessionGuarantees:
    def test_read_your_writes_via_cache_overlay(self, tiny_cluster):
        client = tiny_cluster.new_client(0, 0)

        def scenario():
            yield client.start_tx()
            client.write({"p0:k000000": "mine"})
            yield client.commit()
            # The UST cannot cover the commit yet: cache must overlay.
            values = yield client.read_only(["p0:k000000", "p1:k000000"])
            return values

        values = drive(tiny_cluster, scenario())
        assert values["p0:k000000"].value == "mine"
        assert values["p0:k000000"].source == "wc"
        assert values["p1:k000000"].source == "store"

    def test_snapshot_advances_client_floor(self, tiny_cluster):
        client = tiny_cluster.new_client(0, 0)

        def scenario():
            before = client.last_snapshot
            yield client.read_only(["p0:k000000"])
            return before, client.last_snapshot

        before, after = drive(tiny_cluster, scenario())
        assert after >= before
        run_for(tiny_cluster, 0.5)

        def again():
            yield client.read_only(["p0:k000000"])
            return client.last_snapshot

        later = drive(tiny_cluster, again())
        assert later > after  # snapshots are monotone across one-shot reads

    def test_cache_pruned_by_returned_snapshot(self, tiny_cluster):
        client = tiny_cluster.new_client(0, 0)

        def scenario():
            yield client.start_tx()
            client.write({"p0:k000000": "mine"})
            yield client.commit()
            assert len(client.cache) == 1
            yield 1.0  # UST covers the commit
            # A cached key short-circuits locally (the client cannot know the
            # UST moved without asking a server) ...
            first = yield client.read_only(["p0:k000000"])
            assert first["p0:k000000"].source == "wc"
            # ... but any one-shot read that does reach the coordinator
            # returns the fresher snapshot and prunes the cache.
            yield client.read_only(["p1:k000000"])
            values = yield client.read_only(["p0:k000000"])
            return values

        values = drive(tiny_cluster, scenario())
        assert len(client.cache) == 0
        assert values["p0:k000000"].value == "mine"
        assert values["p0:k000000"].source == "store"

    def test_oracle_records_one_shot_reads(self, tiny_config):
        from repro import build_cluster
        from tests.conftest import checked_oracle

        oracle = checked_oracle()
        cluster = build_cluster(tiny_config, protocol="paris", oracle=oracle)
        cluster.sim.run(until=1.0)
        client = cluster.new_client(0, 0)

        def scenario():
            yield client.start_tx()
            client.write({"p0:k000000": "v"})
            yield client.commit()
            yield client.read_only(["p0:k000000"])

        drive(cluster, scenario())
        assert oracle.reads_recorded == 1
        assert oracle.checker.violations == []


class TestOneShotOnBpr:
    def test_bpr_one_shot_blocks_for_freshness(self, tiny_bpr_cluster):
        """The fast path inherits BPR's blocking cohort reads unchanged."""
        client = tiny_bpr_cluster.new_client(0, 0)

        def one_shot():
            started = tiny_bpr_cluster.sim.now
            yield client.read_only(["p0:k000000"])
            return tiny_bpr_cluster.sim.now - started

        elapsed = drive(tiny_bpr_cluster, one_shot())
        assert elapsed > 0.01  # blocked ~ the replication lag
        blocked = sum(
            s.metrics.reads_parked for s in tiny_bpr_cluster.all_servers()
        )
        assert blocked >= 1
