"""FaultInjector behaviour: every action, scheduling, chaos, determinism."""

from __future__ import annotations

import pathlib

import pytest

from repro import build_cluster, small_test_config
from repro.faults import ACTIONS, FaultEvent, FaultInjectionError, FaultInjector, FaultPlan, random_plan
from repro.faults.reconfig import ReconfigManager
from repro.sim.kernel import Simulator
from repro.sim.latency import LatencyModel
from repro.sim.network import RETRANSMIT_TIMEOUT, Envelope, Network
from repro.sim.rng import RngRegistry
from tests.conftest import run_for


def max_ust(cluster) -> int:
    return max(server.ust for server in cluster.all_servers())


@pytest.fixture
def faulted_config():
    """Tiny config factory accepting a fault plan."""

    def build(plan: FaultPlan):
        return small_test_config(n_dcs=3, machines_per_dc=2, keys_per_partition=20).with_(
            faults=plan
        )

    return build


DOCS_DIR = pathlib.Path(__file__).resolve().parents[1] / "docs"


def test_every_action_has_a_handler_and_a_doc_section():
    """Each ``ACTIONS`` key is applied by a handler and documented under a ``###``."""
    headings = [
        line for line in (DOCS_DIR / "faults.md").read_text(encoding="utf-8").splitlines()
        if line.startswith("### ")
    ]
    for name, action in ACTIONS.items():
        if action.scope == "membership":
            assert callable(getattr(ReconfigManager, name, None)), name
        else:
            assert callable(getattr(FaultInjector, f"_apply_{name}", None)), name
        assert any(f"`{name}`" in heading for heading in headings), name


class TestInstallation:
    def test_plan_from_config_is_installed_and_applied(self, faulted_config):
        plan = FaultPlan(
            events=(
                FaultEvent(at=0.5, action="partition", dcs=(0, 1)),
                FaultEvent(at=0.9, action="heal", dcs=(0, 1)),
            )
        )
        cluster = build_cluster(faulted_config(plan), protocol="paris")
        assert cluster.injector is not None
        assert cluster.injector.events_applied == 0
        cluster.sim.run(until=0.6)
        assert cluster.injector.events_applied == 1
        assert cluster.network.is_partitioned(0, 1)
        cluster.sim.run(until=1.0)
        assert cluster.injector.events_applied == 2
        assert not cluster.network.is_partitioned(0, 1)
        assert cluster.injector.log[0][1].action == "partition"

    def test_healthy_config_has_no_injector(self, tiny_cluster):
        assert tiny_cluster.injector is None

    def test_install_refuses_events_in_the_past(self, tiny_cluster):
        injector = FaultInjector(tiny_cluster)
        stale = FaultPlan(events=(FaultEvent(at=0.1, action="heal"),))
        assert tiny_cluster.sim.now > 0.1
        with pytest.raises(FaultInjectionError, match="before current sim time"):
            injector.install(stale)

    def test_install_validates_against_spec(self, tiny_cluster):
        injector = FaultInjector(tiny_cluster)
        bad = FaultPlan(events=(FaultEvent(at=5.0, action="partition", dcs=(0, 9)),))
        with pytest.raises(Exception, match="out of range"):
            injector.install(bad)


class TestCrashAction:
    def test_crash_drops_volatile_state_and_recover_rejoins(self, tiny_cluster):
        server = tiny_cluster.server(0, 0)
        client = tiny_cluster.new_client(0, 0)

        def open_tx():
            yield client.start_tx()

        tiny_cluster.sim.spawn(open_tx())
        run_for(tiny_cluster, 0.1)
        assert server.coordinator.contexts  # the open transaction's context exists

        injector = FaultInjector(tiny_cluster)
        injector.apply(FaultEvent(at=0.0, action="crash", dc=0, partition=0))
        assert server.paused
        assert not server.coordinator.contexts  # volatile state dropped
        run_for(tiny_cluster, 0.5)
        frozen = max_ust(tiny_cluster)
        run_for(tiny_cluster, 0.5)
        assert max_ust(tiny_cluster) == frozen  # UST stalls on the global min

        injector.apply(FaultEvent(at=0.0, action="recover", dc=0, partition=0))
        run_for(tiny_cluster, 1.0)
        assert not server.paused
        assert max_ust(tiny_cluster) > frozen  # UST resumed
        assert tiny_cluster.ust_staleness() < 0.5

    def test_ust_never_regresses_through_crash_recovery(self, faulted_config):
        plan = FaultPlan(
            events=(
                FaultEvent(at=0.6, action="crash", dc=0, partition=0),
                FaultEvent(at=1.0, action="recover", dc=0, partition=0),
            )
        )
        cluster = build_cluster(faulted_config(plan), protocol="paris")
        sim = cluster.sim
        last = {server.address: server.ust for server in cluster.all_servers()}
        deadline = 2.0
        while sim.now < deadline and sim.step():
            for server in cluster.all_servers():
                assert server.ust >= last[server.address]
                last[server.address] = server.ust


class TestLinkActions:
    def _fabric(self, jitter: float = 0.0):
        sim = Simulator()
        network = Network(
            sim, LatencyModel.for_paper_deployment(2, jitter_fraction=jitter), RngRegistry(7)
        )
        inbox = []
        network.register("a", 0, lambda env: inbox.append((sim.now, env)))
        network.register("b", 1, lambda env: inbox.append((sim.now, env)))
        return sim, network, inbox

    def test_degrade_adds_latency(self):
        sim, network, inbox = self._fabric()
        base = network.latency_model.base_one_way(0, 1)
        network.send(Envelope(src="a", dst="b", payload="healthy"))
        sim.run()
        healthy_at = inbox[0][0]
        assert healthy_at == pytest.approx(base)

        network.degrade_link(0, 1, extra_latency=0.25)
        start = sim.now
        network.send(Envelope(src="a", dst="b", payload="degraded"))
        sim.run()
        assert inbox[1][0] - start == pytest.approx(base + 0.25)

    def test_loss_delays_by_retransmission_timeouts_in_fifo_order(self):
        sim, network, inbox = self._fabric()
        base = network.latency_model.base_one_way(0, 1)
        network.degrade_link(0, 1, loss=0.5)
        for i in range(20):
            network.send(Envelope(src="a", dst="b", payload=i))
        sim.run()
        assert [env.payload for _, env in inbox] == list(range(20))  # FIFO held
        extra = [at - base for at, _ in inbox]
        # With 50% loss and a seeded stream, some transmissions were lost and
        # paid (at least) one retransmission timeout; none were dropped.
        assert len(inbox) == 20
        assert max(extra) >= RETRANSMIT_TIMEOUT

    def test_restore_link_returns_to_base_latency(self):
        sim, network, inbox = self._fabric()
        base = network.latency_model.base_one_way(0, 1)
        network.degrade_link(0, 1, extra_latency=0.25, loss=0.3)
        assert network.link_degradation(0, 1) == (0.25, 0.3)
        network.restore_link(0, 1)
        assert network.link_degradation(0, 1) == (0.0, 0.0)
        network.send(Envelope(src="a", dst="b", payload="clean"))
        sim.run()
        assert inbox[0][0] == pytest.approx(base)

    def test_degrade_rejects_intra_dc_and_bad_ranges(self):
        _, network, _ = self._fabric()
        with pytest.raises(ValueError, match="intra-DC"):
            network.degrade_link(0, 0, extra_latency=0.1)
        with pytest.raises(ValueError, match="loss"):
            network.degrade_link(0, 1, loss=1.0)
        with pytest.raises(ValueError, match="extra_latency"):
            network.degrade_link(0, 1, extra_latency=-1.0)

    def test_degraded_run_stays_consistent(self, faulted_config):
        from repro.bench.harness import deploy_sessions
        from tests.conftest import checked_oracle
        from repro.workload.runner import SessionStats

        plan = FaultPlan(
            events=(
                FaultEvent(
                    at=0.4, action="degrade", dcs=(0, 1), extra_latency=0.05, loss=0.3
                ),
                FaultEvent(at=1.4, action="restore"),
            )
        )
        oracle = checked_oracle()
        cluster = build_cluster(faulted_config(plan), protocol="paris", oracle=oracle)
        stats = SessionStats()
        for driver in deploy_sessions(cluster, stats):
            driver.start()
        cluster.sim.run(until=2.0)
        assert stats.completed_total > 50
        assert oracle.checker.violations == []


class TestSkewAction:
    def test_skew_steps_the_clock_monotonically(self, tiny_cluster):
        server = tiny_cluster.server(1, 0)
        injector = FaultInjector(tiny_cluster)
        before = server.clock.now_micros()
        injector.apply(FaultEvent(at=0.0, action="skew", dc=1, partition=0, offset=-0.005))
        after = server.clock.now_micros()
        assert after > before  # monotonic despite the negative step
        injector.apply(FaultEvent(at=0.0, action="skew", dc=1, partition=0, offset=0.005))
        assert server.clock.now_micros() > after

    def test_skewed_cluster_stays_consistent(self, faulted_config):
        from repro.bench.harness import deploy_sessions
        from tests.conftest import checked_oracle
        from repro.workload.runner import SessionStats

        plan = FaultPlan(
            events=(
                FaultEvent(at=0.5, action="skew", dc=0, partition=0, offset=0.008),
                FaultEvent(at=0.7, action="skew", dc=1, partition=0, offset=-0.008),
            )
        )
        oracle = checked_oracle()
        cluster = build_cluster(faulted_config(plan), protocol="paris", oracle=oracle)
        stats = SessionStats()
        for driver in deploy_sessions(cluster, stats):
            driver.start()
        cluster.sim.run(until=2.0)
        assert stats.completed_total > 50
        assert oracle.checker.violations == []


class TestChaos:
    def _spec(self):
        return small_test_config(n_dcs=3, machines_per_dc=2).cluster

    def test_same_seed_same_plan(self):
        spec = self._spec()
        first = random_plan(spec, seed=11, horizon=4.0, episodes=8)
        second = random_plan(spec, seed=11, horizon=4.0, episodes=8)
        assert first == second
        assert first != random_plan(spec, seed=12, horizon=4.0, episodes=8)

    def test_requested_episode_count_is_met_while_targets_remain(self):
        spec = self._spec()
        for seed in range(10):
            plan = random_plan(spec, seed=seed, horizon=4.0, episodes=4)
            # Windowed episodes contribute two events, skews one.
            skews = sum(1 for event in plan if event.action == "skew")
            episodes = skews + (len(plan) - skews) // 2
            assert episodes == 4

    def test_generated_plans_validate_and_close_their_windows(self):
        spec = self._spec()
        for seed in range(10):
            plan = random_plan(spec, seed=seed, horizon=4.0, episodes=8)
            plan.validate_for(spec)
            assert plan.horizon <= 0.85 * 4.0 + 1e-9
            opened = {"partition": 0, "heal": 0, "crash": 0, "recover": 0}
            for event in plan:
                if event.action in opened:
                    opened[event.action] += 1
            assert opened["partition"] == opened["heal"]
            assert opened["crash"] == opened["recover"]

    def test_membership_episodes_appear_and_pair_across_seeds(self):
        """The generator mixes joins and leaves into the episode pool, and
        every membership episode closes: adds and removes come in pairs, and
        the induced placement is legal at every step (validate_for)."""
        spec = self._spec()
        seeds_with_membership = 0
        for seed in range(30):
            plan = random_plan(spec, seed=seed, horizon=4.0, episodes=8)
            plan.validate_for(spec)
            adds = sum(1 for e in plan if e.action == "add_replica")
            removes = sum(1 for e in plan if e.action == "remove_replica")
            assert adds == removes
            if adds:
                seeds_with_membership += 1
        assert seeds_with_membership >= 5

    def _membership_seed(self, spec) -> int:
        for seed in range(50):
            plan = random_plan(spec, seed=seed, horizon=2.0, episodes=6)
            if any(e.action == "add_replica" for e in plan):
                return seed
        raise AssertionError("no seed in range produced a membership episode")

    def test_membership_chaos_trace_deterministic(self, faulted_config):
        """Same (seed, plan) -> byte-identical event trace, with membership
        churn in the plan (ISSUE 8 satellite: generator determinism)."""
        from repro.bench.harness import deploy_sessions
        from repro.sim.trace import Tracer
        from repro.workload.runner import SessionStats

        spec = self._spec()
        seed = self._membership_seed(spec)

        def trace_once() -> list:
            plan = random_plan(spec, seed=seed, horizon=2.0, episodes=6)
            tracer = Tracer()
            cluster = build_cluster(faulted_config(plan), protocol="paris")
            for server in cluster.all_servers():
                server.tracer = tracer
            stats = SessionStats()
            for driver in deploy_sessions(cluster, stats):
                driver.start()
            with tracer.capture("commit", "ust", "apply", "replicate"):
                cluster.sim.run(until=2.5)
            assert cluster.injector.events_applied == len(plan)
            return tracer.records

        first = trace_once()
        second = trace_once()
        assert len(first) > 100
        assert first == second

    def test_chaos_run_applies_everything_and_ends_healthy(self, faulted_config):
        spec = self._spec()
        plan = random_plan(spec, seed=5, horizon=2.0, episodes=6)
        cluster = build_cluster(faulted_config(plan), protocol="paris")
        cluster.sim.run(until=2.5)
        assert cluster.injector.events_applied == len(plan)
        assert not cluster.network._partitioned
        assert not cluster.network._degraded
        # Every *member* replica ends up serving; replicas retired by a
        # membership episode stay torn down, which is healthy too.
        for (dc, partition), server in cluster.servers.items():
            if cluster.membership.is_replicated_at(partition, dc):
                assert not server.paused
