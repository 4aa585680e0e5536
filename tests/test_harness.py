"""Tests for the experiment harness and results plumbing."""

from __future__ import annotations

import pytest

from repro import build_cluster, run_experiment, small_test_config
from repro.bench.harness import deploy_sessions, summarize_measures
from repro.workload.runner import SessionStats


class TestBuildCluster:
    def test_servers_cover_every_replica(self, tiny_config):
        cluster = build_cluster(tiny_config, protocol="paris")
        spec = tiny_config.cluster
        expected = {
            (dc, p) for dc in range(spec.n_dcs) for p in spec.dc_partitions(dc)
        }
        assert set(cluster.servers) == expected
        assert len(cluster.all_servers()) == spec.total_servers

    def test_preload_covers_every_replica(self, tiny_config):
        cluster = build_cluster(tiny_config, protocol="paris")
        keys = tiny_config.workload.keys_per_partition
        for server in cluster.all_servers():
            assert server.store.key_count == keys

    def test_preload_can_be_skipped(self, tiny_config):
        cluster = build_cluster(tiny_config, protocol="paris", preload=False)
        assert all(s.store.key_count == 0 for s in cluster.all_servers())

    def test_unknown_protocol_rejected(self, tiny_config):
        with pytest.raises(ValueError):
            build_cluster(tiny_config, protocol="espresso")

    def test_bpr_uses_bpr_classes(self, tiny_config):
        from repro.protocols.bpr import BPRClient, BPRServer

        cluster = build_cluster(tiny_config, protocol="bpr")
        assert all(isinstance(s, BPRServer) for s in cluster.all_servers())
        assert isinstance(cluster.new_client(0, 0), BPRClient)

    def test_new_client_auto_indexes(self, tiny_cluster):
        a = tiny_cluster.new_client(0, 0)
        b = tiny_cluster.new_client(0, 0)
        assert a.address != b.address
        assert len(tiny_cluster.clients) == 2

    def test_min_ust_and_staleness(self, tiny_cluster):
        assert tiny_cluster.min_ust() > 0
        assert 0 < tiny_cluster.ust_staleness() < 1.0


class TestDeploySessions:
    def test_one_driver_per_server_thread(self, tiny_config):
        cluster = build_cluster(tiny_config, protocol="paris")
        stats = SessionStats()
        drivers = deploy_sessions(cluster, stats)
        expected = (
            tiny_config.cluster.total_servers
            * tiny_config.workload.threads_per_client
        )
        assert len(drivers) == expected
        assert cluster.drivers is drivers

    def test_sessions_progress(self, tiny_config):
        cluster = build_cluster(tiny_config, protocol="paris")
        stats = SessionStats()
        drivers = deploy_sessions(cluster, stats)
        for driver in drivers:
            driver.start()
        cluster.sim.run(until=1.0)
        assert all(driver.transactions_run > 0 for driver in drivers)
        assert stats.completed_total > 0


def _window_measures(window_start, window_end, completed_in_window):
    """A measures dict with no samples: only the window and its count."""
    return {
        "sessions": 1,
        "latency_samples": [],
        "completed_in_window": completed_in_window,
        "window_start": window_start,
        "window_end": window_end,
        "multi_dc_count": 0,
        "servers": {},
        "now": 3.0,
        "min_ust": 0,
        "messages_total": 0,
        "messages_inter_dc": 0,
        "metadata_bytes_total": 0,
        "read_retries_total": 0,
    }


class TestSummarizeThroughput:
    """Throughput is ``completed_in_window / window``, computed in one place."""

    def test_completions_per_window_second(self, tiny_config):
        result = summarize_measures(tiny_config, "paris", _window_measures(1.0, 3.0, 2))
        assert result.throughput == pytest.approx(1.0)
        assert result.transactions_measured == 2

    @pytest.mark.parametrize("start, end", [(None, None), (1.0, None), (None, 3.0)])
    def test_no_window_means_zero(self, tiny_config, start, end):
        result = summarize_measures(tiny_config, "paris", _window_measures(start, end, 2))
        assert result.throughput == 0.0


class TestExactReductions:
    """Result means are exactly rounded, so no Python version moves a digest.

    A naive left-to-right ``sum`` of ``[1e16, 1.0, -1e16]`` is 0.0 (3.11 and
    older); ``math.fsum`` and 3.12's compensated ``sum`` give 1.0.
    """

    def test_means_use_exact_sums(self, tiny_config):
        measures = _window_measures(0.0, 1.0, 1)
        measures["servers"] = {
            (0, index): {
                "blocking": [value],
                "read_slices": 1,
                "visibility": [value],
                "utilization": value,
            }
            for index, value in enumerate([1e16, 1.0, -1e16])
        }
        config = tiny_config.with_(visibility_sample_rate=0.5)
        result = summarize_measures(config, "paris", measures)
        assert result.blocking_mean == 1.0 / 3
        assert result.read_phase_blocking == 1.0
        assert result.visibility_mean == 1.0 / 3
        assert {value for value, _ in result.visibility_cdf} == {1.0 / 3}
        assert result.mean_cpu_utilization == 1.0 / 3


class TestRunExperiment:
    def test_result_fields_are_sane(self, tiny_config):
        result = run_experiment(tiny_config, protocol="paris")
        assert result.protocol == "paris"
        assert result.throughput > 0
        assert 0 < result.latency_mean < 1.0
        assert result.latency_p50 <= result.latency_p95 <= result.latency_p99
        assert result.transactions_measured > 0
        assert result.sessions == tiny_config.cluster.total_servers
        assert 0 <= result.multi_dc_fraction <= 1
        assert result.messages_total > 0
        assert result.messages_inter_dc < result.messages_total
        assert 0 < result.mean_cpu_utilization < 1
        assert result.blocking_mean == 0.0  # PaRiS never blocks
        assert result.visibility_cdf == []  # sampling disabled by default

    def test_bpr_reports_blocking(self, tiny_config):
        result = run_experiment(tiny_config, protocol="bpr")
        assert result.blocking_mean > 0
        assert result.blocked_fraction > 0.5
        assert result.read_phase_blocking > 0

    def test_visibility_sampling_produces_cdf(self, tiny_config):
        config = tiny_config.with_(visibility_sample_rate=1.0)
        result = run_experiment(config, protocol="paris")
        assert result.visibility_cdf
        assert result.visibility_mean > 0
        values = [v for v, _ in result.visibility_cdf]
        fractions = [f for _, f in result.visibility_cdf]
        assert values == sorted(values)
        assert fractions[0] == 0.0 and fractions[-1] == 1.0

    def test_derived_properties(self, tiny_config):
        result = run_experiment(tiny_config, protocol="paris")
        assert result.latency_mean_ms == pytest.approx(result.latency_mean * 1000)
        assert result.throughput_ktx == pytest.approx(result.throughput / 1000)

    def test_deterministic_given_seed(self):
        config = small_test_config(seed=123).with_(warmup=0.4, duration=0.5)
        a = run_experiment(config, protocol="paris")
        b = run_experiment(config, protocol="paris")
        assert a.throughput == b.throughput
        assert a.latency_mean == b.latency_mean
        assert a.messages_total == b.messages_total

    def test_different_seeds_differ(self):
        base = small_test_config(seed=1).with_(warmup=0.4, duration=0.5)
        a = run_experiment(base, protocol="paris")
        b = run_experiment(base.with_(seed=2), protocol="paris")
        assert a.transactions_measured != b.transactions_measured

    def test_more_threads_more_throughput_until_saturation(self):
        low = small_test_config(threads_per_client=1).with_(warmup=0.5, duration=0.8)
        high = small_test_config(threads_per_client=8).with_(warmup=0.5, duration=0.8)
        assert (
            run_experiment(high, protocol="paris").throughput
            > run_experiment(low, protocol="paris").throughput * 2
        )
