"""Tests for the BPR baseline: fresh snapshots, blocking reads (Section V)."""

from __future__ import annotations


from repro import build_cluster
from repro.protocols.bpr import BPRServer
from tests.conftest import drive, run_for


class TestSnapshots:
    def test_snapshot_is_fresh_clock_value(self, tiny_bpr_cluster):
        """BPR snapshots track the coordinator clock, not the (stale) UST."""
        client = tiny_bpr_cluster.new_client(0, 0)
        coordinator = tiny_bpr_cluster.server(0, 0)

        def tx():
            handle = yield client.start_tx()
            client.finish()
            return handle

        handle = drive(tiny_bpr_cluster, tx())
        assert handle.snapshot > coordinator.ust  # fresher than stable

    def test_snapshots_monotonic_across_commits(self, tiny_bpr_cluster):
        client = tiny_bpr_cluster.new_client(0, 0)

        def txs():
            snapshots = []
            for i in range(5):
                handle = yield client.start_tx()
                snapshots.append(handle.snapshot)
                client.write({"p0:k000000": f"v{i}"})
                yield client.commit()
            return snapshots

        snapshots = drive(tiny_bpr_cluster, txs())
        assert snapshots == sorted(snapshots)

    def test_client_floor_includes_last_commit(self, tiny_bpr_cluster):
        client = tiny_bpr_cluster.new_client(0, 0)

        def txs():
            yield client.start_tx()
            client.write({"p0:k000000": "x"})
            commit_ts = yield client.commit()
            handle = yield client.start_tx()
            client.finish()
            return commit_ts, handle.snapshot

        commit_ts, snapshot = drive(tiny_bpr_cluster, txs())
        assert snapshot >= commit_ts  # hwt_c raised the floor

    def test_bpr_does_not_corrupt_ust(self, tiny_bpr_cluster):
        """Fresh snapshots must never be adopted into the UST machinery."""
        client = tiny_bpr_cluster.new_client(0, 0)

        def txs():
            for _ in range(5):
                yield client.start_tx()
                yield client.read(["p0:k000000", "p1:k000000"])
                client.finish()

        drive(tiny_bpr_cluster, txs())
        for server in tiny_bpr_cluster.all_servers():
            assert server.ust <= server.local_stable_time


class TestBlockingReads:
    def test_reads_block_for_about_the_replication_lag(self, tiny_bpr_cluster):
        """Every fresh-snapshot read waits ~ (peer one-way latency + Delta_R)."""
        client = tiny_bpr_cluster.new_client(0, 0)

        def tx():
            yield client.start_tx()
            yield client.read(["p0:k000000"])
            client.finish()

        drive(tiny_bpr_cluster, tx())
        samples = [
            sample
            for server in tiny_bpr_cluster.all_servers()
            for sample in server.metrics.blocking
        ]
        assert samples, "the read should have parked"
        lag = max(samples)
        spec = tiny_bpr_cluster.spec
        peer_dc = [d for d in spec.replica_dcs(0) if d != 0][0]
        one_way = tiny_bpr_cluster.network.latency_model.base_one_way(0, peer_dc)
        assert one_way * 0.5 < lag < one_way * 2 + 0.05

    def test_blocked_read_still_returns_correct_data(self, tiny_bpr_cluster):
        client = tiny_bpr_cluster.new_client(0, 0)

        def txs():
            yield client.start_tx()
            client.write({"p0:k000000": "fresh"})
            yield client.commit()
            yield client.start_tx()
            values = yield client.read(["p0:k000000"])
            client.finish()
            return values

        values = drive(tiny_bpr_cluster, txs())
        assert values["p0:k000000"].value == "fresh"

    def test_parked_reads_counted(self, tiny_bpr_cluster):
        client = tiny_bpr_cluster.new_client(0, 0)

        def tx():
            yield client.start_tx()
            yield client.read(["p0:k000000", "p1:k000000"])
            client.finish()

        drive(tiny_bpr_cluster, tx())
        parked = sum(s.metrics.reads_parked for s in tiny_bpr_cluster.all_servers())
        assert parked >= 1
        # Nothing remains parked after the reads completed.
        assert all(s.parked_reads == 0 for s in tiny_bpr_cluster.all_servers())

    def test_blocking_wakes_in_snapshot_order(self, tiny_bpr_cluster):
        """Two reads with increasing snapshots wake in order."""
        server: BPRServer = tiny_bpr_cluster.server(0, 0)
        results = []
        low, high = server.local_stable_time + 1, server.local_stable_time + 2

        from repro.core.messages import ReadSliceReq

        server.reads.handle_read_slice(
            "test", ReadSliceReq(keys=("p0:k000000",), snapshot=high),
            lambda resp: results.append("high"),
        )
        server.reads.handle_read_slice(
            "test", ReadSliceReq(keys=("p0:k000000",), snapshot=low),
            lambda resp: results.append("low"),
        )
        assert server.parked_reads == 2
        run_for(tiny_bpr_cluster, 0.5)
        assert results == ["low", "high"]

    def test_fresh_visibility_threshold(self, tiny_bpr_cluster):
        """BPR's visibility threshold is the locally installed snapshot."""
        for server in tiny_bpr_cluster.all_servers():
            assert server.reads.visibility_threshold() == server.local_stable_time
            assert server.reads.visibility_threshold() >= server.ust


class TestBprSemantics:
    def test_bpr_read_your_writes(self, tiny_bpr_cluster):
        client = tiny_bpr_cluster.new_client(0, 0)

        def txs():
            yield client.start_tx()
            client.write({"p0:k000001": "mine"})
            yield client.commit()
            yield client.start_tx()
            values = yield client.read(["p0:k000001"])
            client.finish()
            return values

        values = drive(tiny_bpr_cluster, txs())
        assert values["p0:k000001"].value == "mine"

    def test_bpr_atomic_multi_partition_commit(self, tiny_bpr_cluster):
        writer = tiny_bpr_cluster.new_client(0, 0)
        reader = tiny_bpr_cluster.new_client(1, 1)
        keys = ["p0:k000002", "p1:k000002"]
        observations = []

        def write_tx():
            yield writer.start_tx()
            writer.write({k: "both" for k in keys})
            yield writer.commit()

        def read_loop():
            for _ in range(25):
                yield reader.start_tx()
                values = yield reader.read(keys)
                reader.finish()
                observations.append(tuple(values[k].value for k in keys))
                yield 0.03

        tiny_bpr_cluster.sim.spawn(write_tx())
        process = tiny_bpr_cluster.sim.spawn(read_loop())
        run_for(tiny_bpr_cluster, 8.0)
        assert process.done
        for a, b in observations:
            assert a == b
        assert ("both", "both") in observations

    def test_bpr_sees_updates_faster_than_paris(self, tiny_config):
        """The Figure 4 trade-off: BPR exposes fresher data than PaRiS.

        One writer in the partition's home DC; one reader polling the same
        key in another DC.  BPR's reader observes the write sooner.
        """

        def first_seen(protocol: str) -> float:
            cluster = build_cluster(tiny_config, protocol=protocol)
            cluster.sim.run(until=1.0)
            writer = cluster.new_client(0, 0)
            reader_dc = [d for d in cluster.spec.replica_dcs(0) if d != 0][0]
            reader = cluster.new_client(reader_dc, 0)
            seen_at = []

            def write_tx():
                yield writer.start_tx()
                writer.write({"p0:k000003": "new"})
                yield writer.commit()

            def read_loop():
                while not seen_at:
                    yield reader.start_tx()
                    values = yield reader.read(["p0:k000003"])
                    reader.finish()
                    if values["p0:k000003"].value == "new":
                        seen_at.append(cluster.sim.now)
                        return
                    yield 0.01

            cluster.sim.spawn(write_tx())
            cluster.sim.spawn(read_loop())
            run_for(cluster, 3.0)
            assert seen_at, f"{protocol}: update never became visible"
            return seen_at[0]

        assert first_seen("bpr") < first_seen("paris")
