"""Tests for the run repository: persistence, identity, and querying."""

from __future__ import annotations

import json
import os
import threading

import pytest

from repro.bench import runner
from repro.bench.harness import run_experiment
from repro.bench.sweep import (
    SweepSpec,
    config_from_params,
    execute_sweep,
    expand,
    resolve_params,
    run_key,
)
from repro.serve.repository import (
    MIN_PREFIX,
    RepositoryError,
    RunRepository,
    write_record,
)

#: Tiny-but-real run parameters (same scale as tests/test_cli.py's FAST).
FAST_PARAMS = {
    "dcs": 3,
    "machines": 2,
    "threads": 1,
    "keys": 20,
    "warmup": 0.4,
    "duration": 0.4,
    "seed": 1,
}


def run_and_save(repository, overrides=None, *, source="cli"):
    params = {**FAST_PARAMS, **(overrides or {})}
    config, protocol = config_from_params(params)
    result = run_experiment(config, protocol=protocol)
    return repository.save_run(params, result.to_dict(), source=source)


class TestSaveAndGet:
    def test_round_trip(self, tmp_path):
        repo = RunRepository(tmp_path / "results")
        record = run_and_save(repo)
        assert record["run_id"] in repo
        assert len(repo) == 1
        loaded = repo.get(record["run_id"])
        assert loaded["params"] == record["params"]
        assert loaded["result"] == record["result"]
        assert loaded["summary_digest"] == record["summary_digest"]
        assert loaded["trace_digest"] is None

    def test_run_id_is_content_address(self, tmp_path):
        repo = RunRepository(tmp_path / "results")
        record = run_and_save(repo)
        assert record["run_id"] == run_key(resolve_params(FAST_PARAMS))

    def test_params_stored_fully_resolved(self, tmp_path):
        """Partial parameter sets are completed like the CLI completes them."""
        repo = RunRepository(tmp_path / "results")
        record = run_and_save(repo)
        params = record["params"]
        assert params["protocol"] == "paris"  # default filled
        assert params["mix"] == "95:5"
        # The min(4, machines) placeholder policy resolved at save time.
        assert params["partitions_per_tx"] == 2

    def test_resaving_identical_run_is_single_entry(self, tmp_path):
        repo = RunRepository(tmp_path / "results")
        first = run_and_save(repo)
        second = run_and_save(repo)
        assert first["run_id"] == second["run_id"]
        assert len(repo) == 1

    def test_different_seed_different_identity(self, tmp_path):
        repo = RunRepository(tmp_path / "results")
        a = run_and_save(repo)
        b = run_and_save(repo, {"seed": 2})
        assert a["run_id"] != b["run_id"]
        assert len(repo) == 2

    def test_trace_stored_and_digested(self, tmp_path):
        from repro.consistency.streaming import StreamingOracle
        from repro.sim.trace import TraceWriter

        repo = RunRepository(tmp_path / "results")
        config, protocol = config_from_params(FAST_PARAMS)
        trace = tmp_path / "run.jsonl"
        sink = TraceWriter(trace)
        try:
            result = run_experiment(
                config, protocol=protocol, oracle=StreamingOracle(sink=sink)
            )
        finally:
            sink.close()
        record = repo.save_run(
            FAST_PARAMS, result.to_dict(), trace_path=trace
        )
        stored = repo.trace_path(record["run_id"])
        assert stored is not None
        assert stored.read_bytes() == trace.read_bytes()
        assert record["trace_digest"] is not None

    def test_missing_trace_file_rejected_at_save(self, tmp_path):
        repo = RunRepository(tmp_path / "results")
        with pytest.raises(RepositoryError, match="trace file not found"):
            repo.save_run(
                FAST_PARAMS,
                {"throughput": 1.0},
                trace_path=tmp_path / "nope.jsonl",
            )


class TestResolvePrefix:
    def test_short_prefix_rejected(self, tmp_path):
        repo = RunRepository(tmp_path / "results")
        run_and_save(repo)
        with pytest.raises(RepositoryError, match=f">= {MIN_PREFIX}"):
            repo.resolve("abc")

    def test_unique_prefix_resolves(self, tmp_path):
        repo = RunRepository(tmp_path / "results")
        record = run_and_save(repo)
        assert repo.resolve(record["run_id"][:12]) == record["run_id"]

    def test_unknown_prefix_raises(self, tmp_path):
        repo = RunRepository(tmp_path / "results")
        run_and_save(repo)
        with pytest.raises(RepositoryError, match="no persisted run"):
            repo.resolve("0123456789abcdef")

    @pytest.mark.parametrize("pattern", ["????????", "********", "[0-9a-f]*x"])
    def test_glob_characters_rejected(self, tmp_path, pattern):
        """A prefix becomes a glob pattern over ``runs/``: hex only."""
        repo = RunRepository(tmp_path / "results")
        write_record(repo.root, FAST_PARAMS, {"throughput": 1.0}, source="cli")
        with pytest.raises(RepositoryError, match="hex"):
            repo.resolve(pattern)


class TestAtomicWrites:
    def test_concurrent_writers_of_one_path(self, tmp_path, monkeypatch):
        """Two jobs with one run id write one record path at once."""
        barrier = threading.Barrier(2, timeout=10)
        replace = os.replace
        staged = []

        def replace_together(src, dst):
            staged.append(os.path.basename(src))
            barrier.wait()  # both writers have written before either replaces
            replace(src, dst)

        monkeypatch.setattr(os, "replace", replace_together)
        target = tmp_path / "runs" / "a.json"
        errors = []

        def write(text):
            try:
                runner.write_text(target, text)
            except Exception as exc:  # noqa: BLE001 - the assertion reports it
                errors.append(exc)

        threads = [threading.Thread(target=write, args=(text,)) for text in "xy"]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert errors == []
        assert target.read_text() in ("x", "y")
        assert [path.name for path in target.parent.iterdir()] == ["a.json"]
        assert len(set(staged)) == 2
        assert not any(name.endswith(".json") for name in staged)


class TestCorruption:
    def test_tampered_result_names_both_digests(self, tmp_path):
        repo = RunRepository(tmp_path / "results")
        record = run_and_save(repo)
        path = repo.runs_dir / f"{record['run_id']}.json"
        data = json.loads(path.read_text())
        data["result"]["throughput"] = 999999.0
        path.write_text(json.dumps(data))
        with pytest.raises(RepositoryError, match="stored summary digest"):
            repo.get(record["run_id"])

    def test_unparseable_record_raises(self, tmp_path):
        repo = RunRepository(tmp_path / "results")
        record = run_and_save(repo)
        path = repo.runs_dir / f"{record['run_id']}.json"
        path.write_text("{not json")
        with pytest.raises(RepositoryError, match="corrupt run record"):
            repo.get(record["run_id"])


class TestQuery:
    def test_filters_are_conjunctive(self, tmp_path):
        repo = RunRepository(tmp_path / "results")
        run_and_save(repo, {"protocol": "paris"})
        run_and_save(repo, {"protocol": "cure"})
        run_and_save(repo, {"protocol": "cure", "seed": 2}, source="serve")
        assert len(repo.list()) == 3
        assert len(repo.list(protocol="cure")) == 2
        assert len(repo.list(protocol="cure", source="serve")) == 1
        assert repo.list(protocol="bpr") == []

    def test_limit_and_order(self, tmp_path):
        repo = RunRepository(tmp_path / "results")
        for seed in (1, 2, 3):
            run_and_save(repo, {"seed": seed})
        entries = repo.list(limit=2)
        assert len(entries) == 2
        times = [e["created_unix"] for e in repo.list()]
        assert times == sorted(times, reverse=True)

    def test_zero_or_none_limit_is_all_and_negative_refused(self, tmp_path):
        repo = RunRepository(tmp_path / "results")
        repo.save_run(FAST_PARAMS, {"throughput": 1.0})
        assert len(repo.list(limit=0)) == len(repo.list(limit=None)) == 1
        with pytest.raises(ValueError, match="limit must be >= 0"):
            repo.list(limit=-1)

    def test_index_entry_shape(self, tmp_path):
        repo = RunRepository(tmp_path / "results")
        run_and_save(repo, {"workload": "ycsb_a"})
        (entry,) = repo.list()
        assert entry["workload"] == "ycsb_a"
        assert entry["throughput"] > 0
        assert entry["has_trace"] is False
        assert len(entry["summary_digest"]) == 64


class TestRecordsAreTheStore:
    def test_every_handle_on_a_root_sees_every_record(self, tmp_path):
        """A serving process and a CLI ``--save`` on one root, say."""
        root = tmp_path / "results"
        served, cli = RunRepository(root), RunRepository(root)
        first = served.save_run(FAST_PARAMS, {"throughput": 1.0}, source="serve")
        second = cli.save_run({**FAST_PARAMS, "seed": 2}, {"throughput": 2.0})
        both = {first["run_id"], second["run_id"]}
        for handle in (RunRepository(root), served, cli):
            assert {entry["run_id"] for entry in handle.list()} == both
            assert len(handle) == 2
            assert all(run_id in handle for run_id in both)

    def test_unregistered_worker_record_is_listed(self, tmp_path):
        """A record a sweep worker wrote is listed with no parent step."""
        root = tmp_path / "results"
        repo = RunRepository(root)
        repo.save_run(FAST_PARAMS, {"throughput": 1.0})
        record = write_record(
            root, {**FAST_PARAMS, "seed": 2}, {"throughput": 2.0}, source="sweep:killed"
        )
        (entry,) = repo.list(source="sweep:killed")
        assert entry["run_id"] == record["run_id"]
        assert len(repo) == 2

    def test_an_older_index_file_is_ignored(self, tmp_path):
        root = tmp_path / "results"
        record = RunRepository(root).save_run(FAST_PARAMS, {"throughput": 1.0})
        (root / "index.json").write_text(json.dumps({"schema": 1, "runs": {"f" * 64: {}}}))
        repo = RunRepository(root)
        assert [entry["run_id"] for entry in repo.list()] == [record["run_id"]]
        assert len(repo) == 1

    def test_corrupt_record_is_not_listed(self, tmp_path):
        repo = RunRepository(tmp_path / "results")
        kept = repo.save_run(FAST_PARAMS, {"throughput": 1.0})
        bad = repo.save_run({**FAST_PARAMS, "seed": 2}, {"throughput": 2.0})
        (repo.runs_dir / f"{bad['run_id']}.json").write_text("{truncated")
        assert [entry["run_id"] for entry in repo.list()] == [kept["run_id"]]

    def test_second_handle_sees_persisted_runs(self, tmp_path):
        repo = RunRepository(tmp_path / "results")
        record = run_and_save(repo)
        again = RunRepository(tmp_path / "results")
        assert record["run_id"] in again
        assert again.get(record["run_id"])["summary_digest"] == record[
            "summary_digest"
        ]


class TestSweepIngest:
    """A sweep reads and writes the repository: its cells are repository runs."""

    SPEC = {
        "name": "repo-ingest",
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
        "axes": {"protocol": ["paris", "cure"]},
    }

    def test_sweep_runs_land_in_repository(self, tmp_path):
        spec = SweepSpec.from_dict(self.SPEC)
        repo = RunRepository(tmp_path / "results")
        report = execute_sweep(spec, repo)
        assert len(repo) == report.total == 2
        for entry in repo.list():
            assert entry["source"] == "sweep:repo-ingest"

    def test_cache_key_is_run_id(self, tmp_path):
        """A sweep cell's key is its repository run id."""
        spec = SweepSpec.from_dict(self.SPEC)
        repo = RunRepository(tmp_path / "results")
        execute_sweep(spec, repo)
        for run in expand(spec):
            assert run.key in repo
            assert repo.get(run.key)["params"] == run.params

    def test_reingest_is_idempotent(self, tmp_path):
        spec = SweepSpec.from_dict(self.SPEC)
        repo = RunRepository(tmp_path / "results")
        execute_sweep(spec, repo)
        first = {e["run_id"]: e["created_unix"] for e in repo.list()}
        # Resume: all cached, nothing rewritten, timestamps untouched.
        report = execute_sweep(spec, repo)
        assert len(report.cached) == 2
        assert {e["run_id"]: e["created_unix"] for e in repo.list()} == first
