"""Randomized end-to-end properties: whatever the seed, skew, topology or
message timing, the protocol invariants must hold.

These are the highest-value property tests of the suite: each example builds
a complete cluster with randomized parameters, runs a real workload, and then
checks (a) the TCC history is violation-free and (b) the UST safety bound
held throughout.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import build_cluster, small_test_config
from repro.bench.harness import deploy_sessions
from repro.config import ClockConfig
from repro.workload.runner import SessionStats
from tests.conftest import checked_oracle

e2e_settings = settings(
    max_examples=10,
    deadline=None,
    derandomize=True,  # tier-1 must draw the same clusters on every run
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def cluster_parameters(draw):
    n_dcs = draw(st.integers(2, 5))
    machines = draw(st.integers(1, 3))
    rf = draw(st.integers(1, min(2, n_dcs)))
    # Every DC must host at least one partition (N >= M needs machines >= rf)
    # and N = M * machines / rf must be integral.
    machines = max(machines, rf)
    if (n_dcs * machines) % rf != 0:
        machines = rf
    return {
        "n_dcs": n_dcs,
        "machines_per_dc": machines,
        "replication_factor": rf,
        "seed": draw(st.integers(0, 10_000)),
        "locality": draw(st.sampled_from([0.5, 0.9, 1.0])),
        "zipf": draw(st.sampled_from([0.0, 0.7, 0.99])),
        "max_offset": draw(st.sampled_from([0.0, 0.001, 0.02])),
        "replication_interval": draw(st.sampled_from([0.001, 0.002, 0.01])),
    }


def run_random_cluster(params, protocol: str):
    config = small_test_config(
        n_dcs=params["n_dcs"],
        machines_per_dc=params["machines_per_dc"],
        replication_factor=params["replication_factor"],
        seed=params["seed"],
        keys_per_partition=10,
        locality=params["locality"],
        zipf_theta=params["zipf"],
    )
    config = config.with_(
        warmup=0.5,
        duration=0.5,
        clocks=ClockConfig(max_offset=params["max_offset"], max_drift=1e-5),
        protocol=replace(
            config.protocol, replication_interval=params["replication_interval"]
        ),
    )
    oracle = checked_oracle()
    cluster = build_cluster(config, protocol=protocol, oracle=oracle)
    stats = SessionStats()
    for driver in deploy_sessions(cluster, stats):
        driver.start()
    # Interleave execution with safety checks of the UST bound.
    violations_of_bound = []
    end = config.warmup + config.duration
    t = 0.0
    while t < end:
        t += 0.1
        cluster.sim.run(until=t)
        ust_max = max(s.ust for s in cluster.all_servers())
        installed_min = min(s.local_stable_time for s in cluster.all_servers())
        if ust_max > installed_min:
            violations_of_bound.append((t, ust_max, installed_min))
    return cluster, oracle, stats, violations_of_bound


class TestRandomizedParis:
    @given(cluster_parameters())
    @e2e_settings
    def test_paris_invariants_hold(self, params):
        cluster, oracle, stats, bound_violations = run_random_cluster(params, "paris")
        assert bound_violations == [], "UST exceeded an installed snapshot"
        assert stats.meter.completed_total > 0, "workload made no progress"
        violations = oracle.checker.violations
        assert violations == [], "\n".join(str(v) for v in violations[:5])

    @given(cluster_parameters())
    @e2e_settings
    def test_bpr_history_is_consistent_too(self, params):
        _, oracle, stats, _ = run_random_cluster(params, "bpr")
        assert stats.meter.completed_total > 0
        violations = oracle.checker.violations
        assert violations == [], "\n".join(str(v) for v in violations[:5])

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "open question (ROADMAP item 4): a random draw of this suite, made "
            "before it was derandomised, yields one atomic-visibility violation "
            "under bpr — tx (6, 20) sees tx (5, 6)'s p2:k000001 next to an older "
            "p3:k000003. Either BPR fractures a read here or the checker "
            "misjudges it; whichever fix lands must flip this test."
        ),
    )
    def test_bpr_lead_one_fractured_read(self):
        params = {
            "n_dcs": 4, "machines_per_dc": 3, "replication_factor": 2, "seed": 141,
            "locality": 0.9, "zipf": 0.7, "max_offset": 0.02,
            "replication_interval": 0.001,
        }
        _, oracle, _, _ = run_random_cluster(params, "bpr")
        assert oracle.checker.violations == []
