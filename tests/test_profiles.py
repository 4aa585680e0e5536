"""Workload-profile subsystem: registry, semantics, end-to-end consistency."""

from __future__ import annotations

import json
import random

import pytest

from repro.bench import results, sweep
from repro.bench.harness import run_experiment
from repro.bench.sweep import SweepSpec, SweepSpecError, config_from_params, execute_sweep
from repro.cluster.topology import ClusterSpec
from repro.config import WorkloadConfig
from repro.serve.repository import RunRepository
from repro.workload.generator import WorkloadGenerator
from repro.workload.profiles import (
    ArrivalSchedule,
    ValueSizeDist,
    WorkloadProfile,
    all_profiles,
    get_profile,
    is_registered,
    profile_names,
)
from tests.conftest import checked_oracle, recording_oracle

#: Fast flat run parameters shared by the end-to-end profile checks.  Kept
#: deliberately tiny: this file's 13-profile checker sweep runs inside the
#: tier-1 suite (the CI workload-matrix job is the longer-duration gate).
FAST_PARAMS = {
    "dcs": 3,
    "machines": 2,
    "threads": 1,
    "keys": 25,
    "warmup": 0.25,
    "duration": 0.35,
    "seed": 11,
}


class TestRegistry:
    def test_catalogue_names(self):
        names = profile_names()
        # The paper mixes, all five YCSB analogues, and the dynamic shapes.
        for expected in (
            "default",
            "read_heavy",
            "write_heavy",
            "ycsb_a",
            "ycsb_b",
            "ycsb_c",
            "ycsb_d",
            "ycsb_f",
            "hotspot_shift",
            "bursty",
            "ramp",
            "bimodal_values",
        ):
            assert expected in names

    def test_unknown_profile_raises_with_catalogue(self):
        with pytest.raises(KeyError, match="registered"):
            get_profile("nope")
        assert not is_registered("nope")

    def test_duplicate_registration_rejected(self):
        from repro.workload.profiles import register

        with pytest.raises(ValueError, match="already registered"):
            register(get_profile("ycsb_a"))

    def test_profiles_are_frozen_and_described(self):
        for profile in all_profiles():
            assert profile.description
            with pytest.raises(AttributeError):
                profile.name = "mutated"

    def test_config_rejects_unknown_profile(self):
        with pytest.raises(ValueError, match="unknown workload profile"):
            WorkloadConfig(profile="nope")


class TestProfileValidation:
    def test_rmw_requires_reads_and_writes(self):
        with pytest.raises(ValueError, match="rmw"):
            WorkloadProfile(name="x", description="d", reads_per_tx=0, writes_per_tx=2, rmw=True)

    def test_hotspot_requires_interval_and_step(self):
        with pytest.raises(ValueError, match="hotspot"):
            WorkloadProfile(
                name="x", description="d", reads_per_tx=1, writes_per_tx=1, key_dist="hotspot"
            )

    def test_value_dist_validation(self):
        with pytest.raises(ValueError):
            ValueSizeDist(kind="weird")
        with pytest.raises(ValueError):
            ValueSizeDist(size=8, max_size=4)

    def test_arrival_validation(self):
        with pytest.raises(ValueError):
            ArrivalSchedule(kind="bursty", period=0.0)
        with pytest.raises(ValueError):
            ArrivalSchedule(kind="ramp", ramp=0.0)


class TestApply:
    def test_apply_overrides_mix_keeps_deployment_knobs(self):
        base = WorkloadConfig(
            reads_per_tx=19,
            writes_per_tx=1,
            locality=0.7,
            keys_per_partition=40,
            threads_per_client=3,
            partitions_per_tx=2,
        )
        applied = get_profile("ycsb_a").apply(base)
        assert (applied.reads_per_tx, applied.writes_per_tx) == (4, 4)
        assert applied.profile == "ycsb_a"
        # Deployment-shaped knobs survive.
        assert applied.locality == 0.7
        assert applied.keys_per_partition == 40
        assert applied.threads_per_client == 3
        assert applied.partitions_per_tx == 2

    def test_uniform_profile_zeroes_theta(self):
        applied = get_profile("uniform_scan").apply(WorkloadConfig())
        assert applied.zipf_theta == 0.0

    def test_config_from_params_workload(self):
        config, protocol = config_from_params({**FAST_PARAMS, "workload": "ycsb_f"})
        assert protocol == "paris"
        assert config.workload.profile == "ycsb_f"
        assert config.workload.writes_per_tx == 5
        assert config.workload.threads_per_client == 1

    def test_config_from_params_unknown_workload(self):
        with pytest.raises(SweepSpecError, match="unknown workload profile"):
            config_from_params({**FAST_PARAMS, "workload": "nope"})


def make_profile_generator(name, keys=50, seed=5, clock=None, partitions_per_tx=2):
    spec = ClusterSpec.from_machines(3, 2, 2)
    workload = get_profile(name).apply(
        WorkloadConfig(keys_per_partition=keys, partitions_per_tx=partitions_per_tx)
    )
    return WorkloadGenerator(
        spec, workload, dc_id=0, rng=random.Random(seed), clock=clock
    )


class TestGeneratorSemantics:
    def test_rmw_writes_target_read_keys(self):
        gen = make_profile_generator("ycsb_f")
        for _ in range(100):
            tx = gen.next_transaction()
            assert tx.writes, "YCSB-F transactions always update"
            read_set = set(tx.reads)
            for key, _ in tx.writes:
                assert key in read_set

    def test_read_only_profile_never_writes(self):
        gen = make_profile_generator("ycsb_c")
        for _ in range(50):
            tx = gen.next_transaction()
            assert tx.writes == ()
            assert len(tx.reads) == 20

    def test_latest_profile_reads_cluster_near_inserts(self):
        gen = make_profile_generator("ycsb_d", keys=200)
        distances = []
        for _ in range(300):
            # The insert pointer rolls forward with every write, so measure
            # each read against the pointer at its transaction's draw time.
            latest = gen._key_gen.latest
            tx = gen.next_transaction()
            distances.extend(
                (latest - int(key.split(":k")[1])) % 200 for key in tx.reads
            )
        near = sum(1 for d in distances if d <= 20)
        # Zipfian(0.99) over distance-from-latest: most mass sits close by.
        assert near / len(distances) > 0.5

    def test_bimodal_values_two_sizes(self):
        gen = make_profile_generator("bimodal_values")
        sizes = set()
        for _ in range(300):
            for _, value in gen.next_transaction().writes:
                sizes.add(len(value.split(":")[0]))
        assert sizes == {8, 128}

    def test_uniform_value_sizes_in_range(self):
        gen = make_profile_generator("ycsb_a")
        sizes = set()
        for _ in range(300):
            for _, value in gen.next_transaction().writes:
                sizes.add(len(value.split(":")[0]))
        assert sizes <= set(range(4, 17))
        assert len(sizes) > 5

    def test_identical_seeds_identical_streams(self):
        # Byte-identical transaction streams for every registered profile.
        for name in profile_names():
            gen_a = make_profile_generator(name, seed=9)
            gen_b = make_profile_generator(name, seed=9)
            stream_a = [gen_a.next_transaction() for _ in range(30)]
            stream_b = [gen_b.next_transaction() for _ in range(30)]
            assert stream_a == stream_b, name


class TestArrivalSchedules:
    def test_closed_loop_never_waits(self):
        schedule = ArrivalSchedule()
        assert schedule.delay(0.0) == 0.0
        assert schedule.delay(123.4) == 0.0

    def test_bursty_in_burst_and_parked(self):
        schedule = ArrivalSchedule(kind="bursty", period=0.4, duty=0.5)
        assert schedule.delay(0.05) == 0.0  # inside the burst
        assert schedule.delay(0.45) == 0.0  # second cycle's burst
        # Off-phase: wait exactly until the next cycle starts.
        assert schedule.delay(0.3) == pytest.approx(0.1)
        assert schedule.delay(0.75) == pytest.approx(0.05)

    def test_ramp_decays_to_zero(self):
        schedule = ArrivalSchedule(kind="ramp", think=0.02, ramp=1.0)
        assert schedule.delay(0.0) == pytest.approx(0.02)
        assert schedule.delay(0.5) == pytest.approx(0.01)
        assert schedule.delay(1.0) == 0.0
        assert schedule.delay(5.0) == 0.0

    def test_bursty_profile_completes_fewer_transactions(self):
        base = dict(FAST_PARAMS, duration=0.8)
        steady, _ = config_from_params({**base, "workload": "read_heavy"})
        bursty, _ = config_from_params({**base, "workload": "bursty"})
        steady_result = run_experiment(steady, protocol="paris")
        bursty_result = run_experiment(bursty, protocol="paris")
        assert 0 < bursty_result.throughput < 0.8 * steady_result.throughput


class TestEveryProfileKeepsTCC:
    """The consistency checker runs unmodified over every registered profile."""

    @pytest.mark.parametrize("name", profile_names())
    def test_profile_passes_checker(self, name):
        config, protocol = config_from_params({**FAST_PARAMS, "workload": name})
        oracle = checked_oracle()
        result = run_experiment(config, protocol=protocol, oracle=oracle)
        violations = oracle.checker.violations
        assert violations == []
        assert result.transactions_measured > 0
        assert oracle.reads_recorded > 0

    def test_rmw_round_trips_through_oracle(self):
        """YCSB-F commits must depend on the versions the transaction read."""
        config, protocol = config_from_params({**FAST_PARAMS, "workload": "ycsb_f"})
        oracle = recording_oracle()
        run_experiment(config, protocol=protocol, oracle=oracle)
        commits = oracle.checker.commits
        assert commits, "RMW workload must commit"
        written_keys_with_deps = 0
        frontiers = {}
        for commit in commits:
            # A commit carries its delta; the session frontier is the fold.
            frontier = frontiers.setdefault(commit.client, set())
            frontier.update(dep[0] for dep in commit.added_deps)
            if {vid[0] for vid in commit.written} & frontier:
                written_keys_with_deps += 1
        # Read-modify-write: commits depend on prior versions of the very
        # keys they overwrite (the reads round-tripped through the oracle).
        assert written_keys_with_deps > len(commits) * 0.5


class TestSweepWorkloadAxis:
    SPEC = {
        "name": "profiles-axis",
        "seed": 42,
        "repeats": 1,
        "base": {
            "dcs": 3,
            "machines": 2,
            "threads": 1,
            "keys": 20,
            "warmup": 0.2,
            "duration": 0.3,
        },
        "axes": {"workload": ["ycsb_a", "ycsb_c", "hotspot_shift"]},
    }

    def test_expansion_carries_profile(self):
        spec = SweepSpec.from_dict(self.SPEC)
        runs = sweep.expand(spec)
        assert [run.params["workload"] for run in runs] == [
            "ycsb_a",
            "ycsb_c",
            "hotspot_shift",
        ]
        assert all("workload=" in run.label() for run in runs)

    def test_workers_1_and_4_byte_identical_summaries(self, tmp_path):
        """Acceptance: a workload axis of >= 3 profiles is worker-count-proof."""
        spec = SweepSpec.from_dict(self.SPEC)

        def summary_bytes(root):
            repository = RunRepository(root)
            report = execute_sweep(spec, repository, workers=1 if root.name == "w1" else 4)
            return results.write_sweep_summary(report, repository.root)[1].read_bytes()

        serial = summary_bytes(tmp_path / "w1")
        parallel = summary_bytes(tmp_path / "w4")
        assert serial == parallel
        groups = json.loads(serial)["groups"]
        assert {g["params"]["workload"] for g in groups} == {
            "ycsb_a",
            "ycsb_c",
            "hotspot_shift",
        }

    def test_editing_a_profile_definition_invalidates_cache_keys(self, monkeypatch):
        """Cache keys hash the resolved profile, not just its name."""
        import dataclasses

        from repro.workload import profiles as profiles_mod

        params = dict(sweep.PARAM_DEFAULTS, workload="hotspot_shift", seed=1)
        params["partitions_per_tx"] = 2
        before = sweep.run_key(params)
        assert before == sweep.run_key(params)  # stable while unchanged
        edited = dataclasses.replace(get_profile("hotspot_shift"), hotspot_step=29)
        monkeypatch.setitem(profiles_mod._REGISTRY, "hotspot_shift", edited)
        assert sweep.run_key(params) != before
        # Profile-less runs resolve behaviour from the registered "default"
        # profile, so editing *that* invalidates them too.
        plain = dict(params, workload=None)
        plain_before = sweep.run_key(plain)
        edited_default = dataclasses.replace(
            get_profile("default"), zipf_theta=0.5
        )
        monkeypatch.setitem(profiles_mod._REGISTRY, "default", edited_default)
        assert sweep.run_key(plain) != plain_before

    def test_unknown_profile_in_run_key_is_a_spec_error(self):
        params = dict(sweep.PARAM_DEFAULTS, workload="nope", seed=1)
        with pytest.raises(SweepSpecError, match="unknown workload profile"):
            sweep.run_key(params)

    def test_committed_workload_specs_expand(self):
        import pathlib

        spec_dir = pathlib.Path(__file__).resolve().parent.parent / "examples" / "sweeps"
        for name in ("workloads", "arrival_shapes"):
            spec = SweepSpec.load(spec_dir / f"{name}.json")
            runs = sweep.expand(spec)
            assert len(runs) >= 6
            for run in runs:
                config, _ = config_from_params(run.params)
                assert config.workload.profile != "default"
