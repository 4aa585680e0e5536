"""Causal-metadata wire accounting across the three layers that carry it.

The design-space study compares protocols by the *bytes* their causal
metadata costs on the wire: a scalar UST snapshot (8 bytes), cure's per-DC
vector (8 per entry), occult/cops dependency pairs (16 per pair).  These
tests pin the per-message footprints, the fabric-level summation, and the
exposure of the total in run summaries.
"""

from __future__ import annotations

import inspect

import pytest

from repro import small_test_config
from repro.bench.harness import run_experiment
from repro.core import messages
from repro.core.messages import (
    AggUpMsg,
    CommitReq,
    CommitResp,
    CommitTxMsg,
    DcGstMsg,
    DepCheckReq,
    DepCheckResp,
    FinishTxMsg,
    GstBroadcastMsg,
    HeartbeatMsg,
    OneShotReadReq,
    OneShotReadResp,
    PrepareReq,
    PrepareResp,
    ReadReq,
    ReadResp,
    ReadSliceReq,
    ReadSliceResp,
    ReplicatedTx,
    ReplicateMsg,
    RetireMsg,
    StartTxReq,
    StartTxResp,
    UstBroadcastMsg,
)
from repro.sim.kernel import Simulator
from repro.sim.latency import LatencyModel
from repro.sim.network import Envelope, Network
from repro.sim.rng import RngRegistry
from repro.storage.version import Version


def _version(deps=None) -> Version:
    return Version(key="p0:k000000", value="v", ut=10, tid=(1, 0), sr=0, deps=deps)


# Samples for the footprint table.  Snapshots: none, scalar, 3-DC vector.
S0, S1, S3 = None, 42, (1, 2, 3)
# Dependency annotations: none, 3-DC vector, two (key, ut) pairs.
D0, DV, DP = None, (1, 2, 3), (("p0:k000000", 5), ("p1:k000001", 9))
# Read-response versions: none, one bare, one with pair deps + one with vector deps.
V0 = ()
V1 = (("k", _version()),)
V2 = (("k", _version(deps=((0, 5), (1, 9)))), ("j", _version(deps=(1, 2, 3))))
TID, KEYS, W = (1, 0), ("a", "b"), (("a", 1), ("b", 2))
# Replication batches: empty, and two groups (pair deps + no deps).
G0 = ()
G2 = (ReplicatedTx(TID, 9, W, 1, 0.5, DP), ReplicatedTx(TID, 10, W, 2, 0.5))

#: Every message class -> ``(positional args, literal metadata bytes)`` rows.
#: Non-timestamp fields that count (``RetireMsg.dc_id``, ``DepCheck*.key``)
#: and ids that do not (``DcGstMsg.dc_id``, ``ReplicatedTx.source_dc``,
#: ``AggUpMsg.partition``) are pinned here as they are.
FOOTPRINTS = {
    StartTxReq: [((S0,), 0), ((S1,), 8), ((S3,), 24)],
    StartTxResp: [((TID, S0), 0), ((TID, S1), 8), ((TID, S3), 24)],
    ReadReq: [((TID, KEYS), 0)],
    ReadResp: [((V0,), 0), ((V1,), 8), ((V2,), 72)],
    CommitReq: [((TID, 9, W), 8), ((TID, 9, W, DV), 32), ((TID, 9, W, DP), 40)],
    CommitResp: [((TID, 9), 8), ((TID, 9, ((0, 1), (2, 0))), 8)],
    FinishTxMsg: [((TID,), 0)],
    OneShotReadReq: [((S0, KEYS), 0), ((S1, KEYS), 8), ((S3, KEYS), 24)],
    OneShotReadResp: [
        ((S0, V0), 0), ((S0, V1), 8), ((S0, V2), 72),
        ((S1, V0), 8), ((S1, V1), 16), ((S1, V2), 80),
        ((S3, V0), 24), ((S3, V1), 32), ((S3, V2), 96),
    ],
    ReadSliceReq: [((KEYS, S0), 0), ((KEYS, S1), 8), ((KEYS, S3), 24)],
    ReadSliceResp: [
        ((V0,), 0), ((V1,), 8), ((V2,), 72),
        ((V0, 7), 8), ((V1, 7), 16), ((V2, 7), 80),
    ],
    PrepareReq: [((TID, S0, 9, W), 8), ((TID, S1, 9, W), 16), ((TID, S3, 9, W), 32)],
    PrepareResp: [((TID, 9), 8)],
    CommitTxMsg: [((TID, 9, 0.5), 8), ((TID, 9, 0.5, DV), 32), ((TID, 9, 0.5, DP), 40)],
    ReplicatedTx: [
        ((TID, 9, W, 1, 0.5), 8), ((TID, 9, W, 1, 0.5, DV), 32),
        ((TID, 9, W, 1, 0.5, DP), 40), ((TID, 9, W, 7, 0.5), 8),
    ],
    ReplicateMsg: [((G0, 9), 8), ((G2, 9), 56)],
    HeartbeatMsg: [((9,), 8)],
    RetireMsg: [((1,), 8)],
    DepCheckReq: [(("p0:k000000", 5), 16)],
    DepCheckResp: [(("p0:k000000", 5), 16)],
    # The stabilization plane carries a scalar (paris) or a per-DC vector (cure).
    AggUpMsg: [((3, 9, 4), 16), ((3, (), 4), 8), ((3, (1, 2, 3), 4), 32)],
    DcGstMsg: [((1, 9, 4), 16), ((1, (), 4), 8), ((1, (1, 2, 3), 4), 32)],
    UstBroadcastMsg: [((9, 4), 16), (((), 4), 8), (((1, 2, 3), 4), 32)],
    GstBroadcastMsg: [((9,), 8)],
}


def test_footprint_table_covers_every_message_class():
    defined = {
        cls
        for _, cls in inspect.getmembers(messages, inspect.isclass)
        if cls.__module__ == messages.__name__
    }
    assert set(FOOTPRINTS) == defined


@pytest.mark.parametrize(
    "cls, args, expected",
    [
        pytest.param(cls, args, expected, id=f"{cls.__name__}-{row}")
        for cls, rows in FOOTPRINTS.items()
        for row, (args, expected) in enumerate(rows)
    ],
)
def test_footprint(cls, args, expected):
    assert cls(*args).metadata_bytes() == expected


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
        vector = UstBroadcastMsg(ust=(5, 6, 7), oldest_global=1).metadata_bytes()
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
