"""Causal-metadata wire accounting across the three layers that carry it.

The design-space study compares protocols by the *bytes* their causal
metadata costs on the wire: a scalar UST snapshot (8 bytes), cure's per-DC
vector (8 per entry), occult/cops dependency pairs (16 per pair).  These
tests pin the per-message footprints, the fabric-level summation, and the
exposure of the total in run summaries.
"""

from __future__ import annotations

from repro import small_test_config
from repro.bench.harness import run_experiment
from repro.core.messages import (
    CommitReq,
    HeartbeatMsg,
    OneShotReadResp,
    ReadReq,
    ReadSliceResp,
    StartTxReq,
    UsvBroadcastMsg,
    UstBroadcastMsg,
)
from repro.sim.kernel import Simulator
from repro.sim.latency import LatencyModel
from repro.sim.network import Envelope, Network
from repro.sim.rng import RngRegistry
from repro.storage.version import Version


def _version(deps=None) -> Version:
    return Version(key="p0:k000000", value="v", ut=10, tid=(1, 0), sr=0, deps=deps)


class TestMessageFootprints:
    def test_scalar_snapshot_costs_eight_bytes(self):
        assert StartTxReq(client_snapshot=42).metadata_bytes() == 8

    def test_vector_snapshot_costs_eight_per_entry(self):
        assert StartTxReq(client_snapshot=(1, 2, 3)).metadata_bytes() == 24

    def test_keys_and_values_are_not_metadata(self):
        assert ReadReq(tid=(1, 0), keys=("a", "b", "c")).metadata_bytes() == 0

    def test_dep_pairs_cost_sixteen_per_pair(self):
        deps = (("p0:k000000", 5), ("p1:k000001", 9))
        msg = CommitReq(tid=(1, 0), highest_write_ts=9, writes=(), deps=deps)
        assert msg.metadata_bytes() == 8 + 16 * 2

    def test_dep_vector_costs_eight_per_entry(self):
        msg = CommitReq(tid=(1, 0), highest_write_ts=9, writes=(), deps=(1, 2, 3))
        assert msg.metadata_bytes() == 8 + 8 * 3

    def test_scalar_protocols_ship_no_deps(self):
        msg = CommitReq(tid=(1, 0), highest_write_ts=9, writes=(), deps=None)
        assert msg.metadata_bytes() == 8

    def test_version_deps_ship_with_read_responses(self):
        bare = ReadSliceResp(versions=(("k", _version()),))
        annotated = ReadSliceResp(
            versions=(("k", _version(deps=((0, 5), (1, 9)))),)
        )
        assert bare.metadata_bytes() == 8  # the version's ut alone
        assert annotated.metadata_bytes() == 8 + 16 * 2

    def test_shardstamp_costs_eight_only_when_set(self):
        versions = (("k", _version()),)
        assert ReadSliceResp(versions=versions).metadata_bytes() == 8
        assert ReadSliceResp(versions=versions, shardstamp=7).metadata_bytes() == 16

    def test_one_shot_response_sums_snapshot_and_versions(self):
        msg = OneShotReadResp(snapshot=(1, 2), versions=(("k", _version()),))
        assert msg.metadata_bytes() == 16 + 8

    def test_vector_broadcast_dominates_scalar_broadcast(self):
        scalar = UstBroadcastMsg(ust=5, oldest_global=1).metadata_bytes()
        vector = UsvBroadcastMsg(usv=(5, 6, 7), oldest_global=1).metadata_bytes()
        assert scalar == 16
        assert vector == 8 + 8 * 3
        assert vector > scalar


def _fabric() -> Network:
    """Two DCs with one sink endpoint each: ``a0``/``b0`` in DC 0, ``c1`` in DC 1."""
    network = Network(Simulator(), LatencyModel.for_paper_deployment(2), RngRegistry(1))
    for address, dc_id in (("a0", 0), ("b0", 0), ("c1", 1)):
        network.register(address, dc_id, lambda envelope: None)
    return network


class TestFabricAccounting:
    def test_send_sums_metadata_bytes(self):
        network = _fabric()
        network.send(Envelope("a0", "b0", StartTxReq(client_snapshot=(1, 2, 3))))
        network.send(Envelope("a0", "c1", HeartbeatMsg(ts=5)))
        metrics = network.metrics
        assert metrics.metadata_bytes_total == 24 + 8
        assert (metrics.messages_total, metrics.messages_inter_dc) == (2, 1)
        assert metrics.by_type == {"StartTxReq": 1, "HeartbeatMsg": 1}

    def test_payload_without_hook_costs_nothing(self):
        network = _fabric()
        network.send(Envelope("a0", "b0", object()))
        assert network.metrics.messages_total == 1
        assert network.metrics.metadata_bytes_total == 0


class TestRunSummaryExposure:
    def test_experiment_result_reports_metadata_total(self):
        config = small_test_config(keys_per_partition=10).with_(
            warmup=0.2, duration=0.3
        )
        result = run_experiment(config, protocol="paris")
        assert result.metadata_bytes_total > 0
        data = result.to_dict()
        assert data["metadata_bytes_total"] == result.metadata_bytes_total
        assert "read_retries_total" in data
