"""Oracle + checker against live clusters — including broken protocols.

PaRiS and BPR must produce violation-free histories.  Two deliberately
TCC-breaking variants must be *caught*, demonstrating the checker has
teeth:

* the registered ``eventual`` protocol: fresh clock snapshots (like BPR)
  served immediately without blocking (like PaRiS) — the classic
  causal-consistency violation of Section III-A, which is why its
  registered consistency claim is only ``"session"``;
* a cache-less client: UST alone cannot give read-your-writes
  (Section III-B, "UST alone cannot enforce causality").
"""

from __future__ import annotations

import pytest

from repro import build_cluster, small_test_config
from repro.bench.harness import deploy_sessions
from repro.core.client import PaRiSClient
from repro.workload.runner import SessionStats
from tests.conftest import checked_oracle, drive, recording_oracle, run_for


def run_workload_with_oracle(config, protocol: str, level: str = "tcc"):
    oracle = checked_oracle(level)
    cluster = build_cluster(config, protocol=protocol, oracle=oracle)
    stats = SessionStats()
    for driver in deploy_sessions(cluster, stats):
        driver.start()
    cluster.sim.run(until=config.warmup + config.duration)
    return oracle


class TestValidProtocolsAreClean:
    @pytest.mark.parametrize("protocol", ["paris", "bpr", "cure", "occult"])
    def test_no_violations_under_workload(self, protocol):
        config = small_test_config(
            n_dcs=3, machines_per_dc=2, keys_per_partition=15, threads_per_client=1
        ).with_(warmup=0.6, duration=0.8)
        oracle = run_workload_with_oracle(config, protocol)
        assert oracle.commits_recorded > 20, "workload too small to be meaningful"
        violations = oracle.checker.violations
        assert violations == [], "\n".join(str(v) for v in violations[:10])

    def test_cops_session_guarantees_hold(self):
        """cops claims (and delivers) session guarantees, not causal snapshots."""
        config = small_test_config(
            n_dcs=3, machines_per_dc=2, keys_per_partition=15, threads_per_client=1
        ).with_(warmup=0.6, duration=0.8)
        oracle = run_workload_with_oracle(config, "cops", level="session")
        assert oracle.commits_recorded > 20, "workload too small to be meaningful"
        violations = oracle.checker.violations
        assert violations == [], "\n".join(str(v) for v in violations[:10])

    def test_paris_clean_with_hot_keys_and_multi_dc(self):
        """Skewed keys + low locality stress cross-DC dependencies."""
        config = small_test_config(
            n_dcs=3,
            machines_per_dc=2,
            keys_per_partition=5,
            threads_per_client=2,
            locality=0.5,
            zipf_theta=0.9,
        ).with_(warmup=0.6, duration=0.8)
        oracle = run_workload_with_oracle(config, "paris")
        assert oracle.checker.violations == []


class TestBrokenProtocolsAreCaught:
    # The race (5 DCs, 5 partitions, Delta_R = 50 ms so apply-phase skew is
    # tens of ms wide):
    #
    # * writer in DC 0 commits x on partition 0 (applied locally at DC 0,
    #   replicated to DC 1 with one-way latency + apply-tick lag), then y on
    #   partition 4 (also applied at DC 0, the writer's preferred replica);
    # * the reader in DC 1 reads x from its *local*, lagging replica of
    #   partition 0, but reads y *remotely* from DC 0 where it is fresh.
    #
    # A fresh-snapshot reader therefore observes y without its dependency x.
    X_KEY, Y_KEY = "p0:k000000", "p4:k000000"

    @staticmethod
    def _racy_config():
        from dataclasses import replace

        config = small_test_config(n_dcs=5, machines_per_dc=2, keys_per_partition=20)
        return config.with_(
            protocol=replace(config.protocol, replication_interval=0.05)
        )

    def _write_pairs(self, writer, rounds: int, done: list):
        """x then y, in separate transactions, so y causally depends on x."""
        for i in range(rounds):
            yield writer.start_tx()
            writer.write({self.X_KEY: f"x-{i}"})
            yield writer.commit()
            yield writer.start_tx()
            writer.write({self.Y_KEY: f"y-{i}"})
            yield writer.commit()
            yield 0.15
        done.append(True)

    def _poll_reads(self, reader, done: list):
        while not done:
            yield reader.start_tx()
            yield reader.read([self.X_KEY, self.Y_KEY])
            reader.finish()
            yield 0.002

    def _run_race(self, protocol, oracle, tweak=None):
        cluster = build_cluster(self._racy_config(), protocol=protocol, oracle=oracle)
        cluster.sim.run(until=1.0)
        writer = cluster.new_client(0, 0)
        reader = cluster.new_client(1, 1)
        if tweak is not None:
            tweak(writer)
            tweak(reader)
        done = []
        cluster.sim.spawn(self._write_pairs(writer, 12, done))
        process = cluster.sim.spawn(self._poll_reads(reader, done))
        run_for(cluster, 12.0)
        assert process.done

    def test_fresh_nonblocking_snapshots_violate_causality(self):
        """The registered eventual protocol is the Section III-A trap: the
        full TCC checker must catch its causal fractures (which is why its
        registered claim is only session-level consistency)."""
        oracle = recording_oracle()
        self._run_race("eventual", oracle)
        kinds = {violation.kind for violation in oracle.checker.check()}
        assert "causal-snapshot" in kinds
        # ... while the guarantees eventual actually claims survive the race.
        assert oracle.checker.check("session") == []

    def test_same_race_is_clean_on_real_paris_even_with_slow_apply(self):
        """Identical racy scenario on real PaRiS: the stale-but-stable UST
        snapshot absorbs the apply skew; zero violations."""
        oracle = checked_oracle()
        self._run_race("paris", oracle)
        assert oracle.checker.violations == []

    def test_occult_without_client_validation_is_caught(self):
        """Occult's servers are wait-free: the whole TCC obligation lives in
        the client's shardstamp validation.  Disabling it (an instance
        attribute shadows the class switch) exposes the server-side fracture,
        which the full checker must catch — while the session guarantees the
        cache and per-replica apply order provide still hold."""

        def disable_validation(client):
            client.validation_enabled = False

        oracle = recording_oracle()
        self._run_race("occult", oracle, tweak=disable_validation)
        kinds = {violation.kind for violation in oracle.checker.check()}
        assert "causal-snapshot" in kinds
        assert oracle.checker.check("session") == []

    @pytest.mark.parametrize("protocol", ["occult", "cure"])
    def test_same_race_is_clean_on_validating_variants(self, protocol):
        """The identical race on the real variants: occult's validation
        retries the stale round, cure's vector snapshot pins both keys."""
        oracle = checked_oracle()
        self._run_race(protocol, oracle)
        assert oracle.checker.violations == []

    def test_same_race_keeps_cops_session_clean(self):
        """cops never claims causal snapshots; its session guarantees must
        survive the race (its dep-gated replication is about apply order,
        not read-time snapshots)."""
        oracle = checked_oracle("session")
        self._run_race("cops", oracle)
        assert oracle.checker.violations == []

    def test_cacheless_client_breaks_read_your_writes(self, tiny_config):
        class NoCacheClient(PaRiSClient):
            def _on_committed(self, resp):
                commit_ts = super()._on_committed(resp)
                self.cache.prune(commit_ts)  # throw the cache away
                return commit_ts

        oracle = checked_oracle()
        cluster = build_cluster(tiny_config, protocol="paris", oracle=oracle)
        cluster.sim.run(until=1.0)
        client = NoCacheClient(
            network=cluster.network,
            spec=cluster.spec,
            config=cluster.config,
            dc_id=0,
            coordinator_partition=0,
            client_index=0,
            oracle=oracle,
        )

        def txs():
            for i in range(5):
                yield client.start_tx()
                client.write({"p0:k000000": f"v{i}"})
                yield client.commit()
                # Immediately read back: the stable snapshot cannot contain
                # the write yet, and without the cache it is lost.
                yield client.start_tx()
                yield client.read(["p0:k000000"])
                client.finish()

        drive(cluster, txs())
        violations = oracle.checker.violations
        kinds = {violation.kind for violation in violations}
        assert "read-your-writes" in kinds

    def test_same_scenarios_clean_on_real_paris(self, tiny_config):
        """The exact broken-protocol scenario is clean under real PaRiS."""
        oracle = checked_oracle()
        cluster = build_cluster(tiny_config, protocol="paris", oracle=oracle)
        cluster.sim.run(until=1.0)
        writer = cluster.new_client(0, 0)
        reader = cluster.new_client(1, 1)
        done = []

        def writes():
            yield writer.start_tx()
            writer.write({"p0:k000000": "x-new"})
            yield writer.commit()
            yield writer.start_tx()
            writer.write({"p1:k000000": "y-new"})
            yield writer.commit()
            done.append(True)

        def reads():
            while not done:
                yield 0.002
            for _ in range(30):
                yield reader.start_tx()
                yield reader.read(["p0:k000000", "p1:k000000"])
                reader.finish()
                yield 0.002

        cluster.sim.spawn(writes())
        process = cluster.sim.spawn(reads())
        run_for(cluster, 5.0)
        assert process.done
        assert oracle.checker.violations == []
