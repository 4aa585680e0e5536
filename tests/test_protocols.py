"""The protocol registry and the layered engine (repro.protocols)."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import build_cluster, small_test_config
from repro.config import SimulationConfig
from repro.core.messages import ReadSliceReq, StartTxReq
from repro.protocols import (
    BPRServer,
    ComponentSet,
    EventualServer,
    GstLocalServer,
    PaRiSServer,
    ProtocolSpec,
    ReadProtocol,
    UnknownProtocolError,
    all_protocols,
    get_protocol,
    is_registered,
    protocol_names,
    register,
    unregister,
)
from repro.protocols.bpr import BprReadProtocol
from repro.protocols.coordinator import TxCoordinator
from repro.protocols.eventual import EventualReadProtocol
from repro.protocols.gst_local import GstLocalReadProtocol, GstLocalStabilization
from repro.protocols.replication import ReplicationPipeline
from repro.protocols.stabilization import StabilizationService
from tests.conftest import drive, run_for


class TestRegistry:
    def test_builtins_registered_in_order(self):
        assert protocol_names()[:4] == ("paris", "bpr", "eventual", "gst_local")

    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register(replace(get_protocol("paris")))

    def test_unknown_name_lists_catalogue(self):
        with pytest.raises(UnknownProtocolError, match="paris"):
            get_protocol("espresso")

    def test_unknown_protocol_error_is_value_error(self):
        assert issubclass(UnknownProtocolError, ValueError)

    def test_is_registered(self):
        assert is_registered("bpr")
        assert not is_registered("espresso")

    def test_register_unregister_roundtrip(self):
        spec = replace(get_protocol("paris"), name="paris_test_clone")
        register(spec)
        try:
            assert get_protocol("paris_test_clone") is spec
        finally:
            unregister("paris_test_clone")
        assert not is_registered("paris_test_clone")

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="consistency"):
            replace(get_protocol("paris"), name="x", consistency="strong")
        with pytest.raises(ValueError, match="name"):
            replace(get_protocol("paris"), name="no spaces allowed")

    def test_every_spec_describes_itself(self):
        for spec in all_protocols():
            assert spec.description
            assert spec.consistency in ("tcc", "session")


class TestComposition:
    def test_component_sets_per_protocol(self):
        assert PaRiSServer.components == ComponentSet()
        assert BPRServer.components == ComponentSet(reads=BprReadProtocol)
        assert EventualServer.components == ComponentSet(reads=EventualReadProtocol)
        assert GstLocalServer.components == ComponentSet(
            reads=GstLocalReadProtocol, stabilization=GstLocalStabilization
        )

    def test_variants_share_every_other_component(self):
        """The seam: bpr/eventual override only the read protocol."""
        for server_cls in (BPRServer, EventualServer):
            kit = server_cls.components
            assert kit.coordinator is TxCoordinator
            assert kit.replication is ReplicationPipeline
            assert kit.stabilization is StabilizationService

    def test_dispatch_table_binds_components_directly(self, tiny_cluster):
        """Hot-path flatness: dispatch goes straight to the component."""
        server = tiny_cluster.server(0, 0)
        handler = server._handler_cache[StartTxReq]
        assert handler.__self__ is server.coordinator
        slice_handler = server._handler_cache[ReadSliceReq]
        assert slice_handler.__self__ is server.reads

    def test_servers_and_components_have_no_dict(self, tiny_cluster):
        server = tiny_cluster.server(0, 0)
        for obj in (server, server.coordinator, server.reads,
                    server.replication, server.stabilization):
            assert not hasattr(obj, "__dict__"), type(obj).__name__

    def test_custom_variant_via_registry_seam(self):
        """The how-to-add-a-protocol recipe from docs/protocol.md works."""

        class StaleReads(ReadProtocol):
            """Always serve at snapshot zero (preloaded state only)."""

            __slots__ = ()

            def assign_snapshot(self, client_snapshot: int) -> int:
                return 0

        class StaleServer(PaRiSServer.__mro__[1]):  # ProtocolServer
            """Composes the stale read protocol over the stock components."""

            __slots__ = ()

            components = ComponentSet(reads=StaleReads)

        spec = ProtocolSpec(
            name="stale_test_variant",
            description="test-only: frozen zero snapshots",
            server_cls=StaleServer,
            client_cls=get_protocol("paris").client_cls,
            snapshot="zero",
        )
        register(spec)
        try:
            cluster = build_cluster(small_test_config(), protocol="stale_test_variant")
            client = cluster.new_client(0, 0)
            run_for(cluster, 0.3)

            def tx():
                handle = yield client.start_tx()
                client.finish()
                return handle

            handle = drive(cluster, tx())
            assert handle.snapshot == 0
        finally:
            unregister("stale_test_variant")


class TestConfigWiring:
    def test_unknown_protocol_name_rejected_at_config(self):
        with pytest.raises(ValueError, match="registered"):
            small_test_config().with_(protocol_name="espresso")

    def test_build_cluster_defaults_to_config_protocol(self):
        config = small_test_config().with_(protocol_name="bpr")
        cluster = build_cluster(config)
        assert cluster.protocol == "bpr"
        assert all(isinstance(s, BPRServer) for s in cluster.all_servers())

    def test_default_protocol_is_paris(self):
        assert SimulationConfig().protocol_name == "paris"


class TestEventual:
    @pytest.fixture()
    def eventual_cluster(self):
        cluster = build_cluster(
            small_test_config(threads_per_client=1), protocol="eventual"
        )
        run_for(cluster, 0.5)
        return cluster

    def test_snapshots_are_fresh_clock_values(self, eventual_cluster):
        client = eventual_cluster.new_client(0, 0)
        coordinator = eventual_cluster.server(0, 0)

        def tx():
            handle = yield client.start_tx()
            client.finish()
            return handle

        handle = drive(eventual_cluster, tx())
        assert handle.snapshot > coordinator.ust

    def test_reads_never_park(self, eventual_cluster):
        client = eventual_cluster.new_client(0, 0)

        def txs():
            for _ in range(5):
                yield client.start_tx()
                yield client.read(["p0:k000000", "p1:k000000"])
                client.finish()

        drive(eventual_cluster, txs())
        assert all(s.metrics.reads_parked == 0 for s in eventual_cluster.all_servers())
        assert all(s.parked_reads == 0 for s in eventual_cluster.all_servers())

    def test_read_your_writes_through_unpruned_cache(self, eventual_cluster):
        client = eventual_cluster.new_client(0, 0)

        def txs():
            yield client.start_tx()
            client.write({"p0:k000000": "mine"})
            yield client.commit()
            # Immediately read back: the store cannot have applied the write
            # yet, so only the (never-pruned) cache preserves RYW.
            yield client.start_tx()
            values = yield client.read(["p0:k000000"])
            client.finish()
            return values

        values = drive(eventual_cluster, txs())
        assert values["p0:k000000"].value == "mine"
        assert len(client.cache) == 1  # not pruned by the fresh snapshot

    def test_ust_not_corrupted_by_clock_snapshots(self, eventual_cluster):
        client = eventual_cluster.new_client(0, 0)

        def txs():
            for _ in range(5):
                yield client.start_tx()
                yield client.read(["p0:k000000", "p1:k000000"])
                client.finish()

        drive(eventual_cluster, txs())
        for server in eventual_cluster.all_servers():
            assert server.ust <= server.local_stable_time


class TestGstLocal:
    @pytest.fixture()
    def gst_cluster(self):
        cluster = build_cluster(
            small_test_config(threads_per_client=1), protocol="gst_local"
        )
        run_for(cluster, 0.5)
        return cluster

    def test_dc_stable_advances_everywhere(self, gst_cluster):
        for server in gst_cluster.all_servers():
            assert server.stabilization.dc_stable > 0

    def test_dc_stable_at_most_local_gst(self, gst_cluster):
        """The broadcast DC stable time never overshoots any local min(VV)."""
        spec = gst_cluster.spec
        for dc in range(spec.n_dcs):
            members = [gst_cluster.server(dc, p) for p in spec.dc_partitions(dc)]
            gst = min(s.local_stable_time for s in members)
            for server in members:
                assert server.stabilization.dc_stable <= gst

    def test_snapshot_fresher_than_ust(self, gst_cluster):
        client = gst_cluster.new_client(0, 0)
        coordinator = gst_cluster.server(0, 0)

        def tx():
            handle = yield client.start_tx()
            client.finish()
            return handle

        handle = drive(gst_cluster, tx())
        assert handle.snapshot >= coordinator.ust
        assert handle.snapshot <= coordinator.stabilization.dc_stable

    def test_local_reads_never_park_remote_reads_can(self, gst_cluster):
        """The design point the paper argues against: remote reads block."""
        client = gst_cluster.new_client(0, 0)
        spec = gst_cluster.spec
        local = spec.dc_partitions(0)
        remote = [p for p in range(spec.n_partitions) if p not in local]
        assert remote, "config must include a non-local partition"

        def local_reads():
            for _ in range(5):
                yield client.start_tx()
                yield client.read([f"p{p}:k000000" for p in local])
                client.finish()

        drive(gst_cluster, local_reads())
        assert all(s.metrics.reads_parked == 0 for s in gst_cluster.all_servers())

        def remote_read_after_write():
            # A commit raises the session's snapshot floor to a fresh commit
            # timestamp; the next remote read must wait for the remote
            # replica to install up to it — the blocking PaRiS eliminates.
            yield client.start_tx()
            client.write({f"p{local[0]}:k000000": "fresh"})
            yield client.commit()
            yield client.start_tx()
            yield client.read([f"p{remote[0]}:k000000"])
            client.finish()

        drive(gst_cluster, remote_read_after_write())
        parked = sum(s.metrics.reads_parked for s in gst_cluster.all_servers())
        assert parked >= 1
        assert all(s.parked_reads == 0 for s in gst_cluster.all_servers())

    def test_crash_resets_dc_stable(self, gst_cluster):
        server = gst_cluster.server(0, 0)
        assert server.stabilization.dc_stable > 0
        server.crash()
        assert server.stabilization.dc_stable == 0
        server.recover()
        run_for(gst_cluster, 0.5)
        assert server.stabilization.dc_stable > 0


class TestBprSurface:
    def test_bpr_overrides_nothing_but_reads(self):
        """Satellite check: no *args/**kwargs passthrough, no _noop hack."""
        import repro.protocols.bpr as bpr_module

        assert not hasattr(bpr_module, "_noop")
        assert "__init__" not in BPRServer.__dict__
