"""Unit tests for configuration validation and builders."""

from __future__ import annotations


import pytest

from repro.cluster.topology import ClusterSpec
from repro.config import (
    ClockConfig,
    ProtocolConfig,
    ServiceModel,
    SimulationConfig,
    WorkloadConfig,
    small_test_config,
)


class TestProtocolConfig:
    def test_defaults_match_paper(self):
        config = ProtocolConfig()
        assert config.gst_interval == 0.005  # "every 5 milliseconds"
        assert config.ust_interval == 0.005

    def test_positive_intervals_required(self):
        with pytest.raises(ValueError):
            ProtocolConfig(replication_interval=0.0)
        with pytest.raises(ValueError):
            ProtocolConfig(gst_interval=-1.0)

    def test_fanout_validated(self):
        with pytest.raises(ValueError):
            ProtocolConfig(tree_fanout=0)


class TestServiceModel:
    def test_nonnegative_costs(self):
        with pytest.raises(ValueError):
            ServiceModel(base_cost=-1e-6)
        with pytest.raises(ValueError):
            ServiceModel(cores=0)


class TestClockConfig:
    def test_bounds_nonnegative(self):
        with pytest.raises(ValueError):
            ClockConfig(max_offset=-0.1)


class TestWorkloadConfig:
    def test_paper_mixes_are_twenty_ops(self):
        read_heavy = WorkloadConfig.read_heavy()
        assert (read_heavy.reads_per_tx, read_heavy.writes_per_tx) == (19, 1)
        assert read_heavy.ops_per_tx == 20
        write_heavy = WorkloadConfig.write_heavy()
        assert (write_heavy.reads_per_tx, write_heavy.writes_per_tx) == (10, 10)
        assert write_heavy.ops_per_tx == 20

    def test_defaults_match_paper(self):
        config = WorkloadConfig()
        assert config.partitions_per_tx == 4
        assert config.locality == 0.95
        assert config.zipf_theta == 0.99
        assert config.value_size == 8

    def test_at_least_one_operation(self):
        with pytest.raises(ValueError):
            WorkloadConfig(reads_per_tx=0, writes_per_tx=0)

    def test_locality_range(self):
        with pytest.raises(ValueError):
            WorkloadConfig(locality=1.5)

    def test_zipf_theta_range(self):
        with pytest.raises(ValueError):
            WorkloadConfig(zipf_theta=1.0)

    def test_threads_positive(self):
        with pytest.raises(ValueError):
            WorkloadConfig(threads_per_client=0)


class TestSimulationConfig:
    def test_default_is_paper_deployment(self):
        config = SimulationConfig()
        assert config.cluster.n_dcs == 5
        assert config.cluster.n_partitions == 45
        assert config.cluster.replication_factor == 2

    def test_duration_positive(self):
        with pytest.raises(ValueError):
            SimulationConfig(duration=0.0)

    @pytest.mark.parametrize(
        "field, value",
        [("warmup", float("nan")), ("warmup", float("inf")),
         ("duration", float("nan")), ("duration", float("inf"))],
    )
    def test_run_length_finite(self, field, value):
        """NaN passes a plain sign check and measures nothing; inf never ends."""
        with pytest.raises(ValueError, match="finite"):
            SimulationConfig(**{field: value})

    def test_visibility_rate_range(self):
        with pytest.raises(ValueError):
            SimulationConfig(visibility_sample_rate=1.5)

    def test_latency_model_caps_dcs(self):
        with pytest.raises(ValueError):
            SimulationConfig(
                cluster=ClusterSpec(n_dcs=11, n_partitions=11, replication_factor=1)
            )

    def test_with_replaces_fields(self):
        config = SimulationConfig()
        changed = config.with_(seed=99, warmup=0.1)
        assert changed.seed == 99
        assert changed.warmup == 0.1
        assert config.seed == 1  # original untouched

    def test_configs_are_frozen(self):
        config = SimulationConfig()
        with pytest.raises(AttributeError):
            config.seed = 5


class TestSmallTestConfig:
    def test_builds_consistent_cluster(self):
        config = small_test_config(n_dcs=3, machines_per_dc=2)
        assert config.cluster.n_dcs == 3
        assert config.cluster.machines_per_dc == 2

    def test_overrides_flow_through(self):
        config = small_test_config(keys_per_partition=7, threads_per_client=3)
        assert config.workload.keys_per_partition == 7
        assert config.workload.threads_per_client == 3

    def test_workload_override_kwargs(self):
        config = small_test_config(locality=0.5)
        assert config.workload.locality == 0.5
