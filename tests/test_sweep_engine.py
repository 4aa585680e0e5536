"""Sweep execution against the run repository: caching, resume, determinism."""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.bench import results, sweep
from repro.bench.sweep import SweepSpec, execute_sweep, expand
from repro.serve.repository import RunRepository

#: Tiny but real simulations: 4 runs of ~0.5 simulated seconds each.
SPEC_DATA = {
    "name": "engine-test",
    "seed": 42,
    "repeats": 2,
    "base": {
        "dcs": 3,
        "machines": 2,
        "threads": 1,
        "keys": 20,
        "warmup": 0.2,
        "duration": 0.3,
    },
    "axes": {"locality": [1.0, 0.5]},
}


@pytest.fixture(scope="module")
def spec() -> SweepSpec:
    return SweepSpec.from_dict(SPEC_DATA)


def summary_bytes(spec, report, path) -> bytes:
    results.dump_summary(results.aggregate(report.records, spec=spec), path)
    return path.read_bytes()


def run_files(root):
    return sorted((root / "runs").glob("*.json"))


@pytest.fixture(scope="module")
def first_run(spec, tmp_path_factory):
    """One fully executed sweep, shared by the cache/resume tests."""
    root = tmp_path_factory.mktemp("sweep-serial")
    report = execute_sweep(spec, RunRepository(root), workers=1)
    summary = summary_bytes(spec, report, root / "summary.json")
    return root, report, summary


class TestExecution:
    def test_first_run_executes_everything(self, spec, first_run):
        _, report, _ = first_run
        assert report.total == 4
        assert len(report.executed) == 4
        assert report.cached == []
        assert len(report.records) == 4

    def test_records_follow_run_order(self, spec, first_run):
        _, report, _ = first_run
        expected = [run.key for run in expand(spec)]
        assert [record["run_id"] for record in report.records] == expected

    def test_cache_files_are_valid_json(self, spec, first_run):
        root, _, _ = first_run
        files = run_files(root)
        assert len(files) == 4
        for path in files:
            record = json.loads(path.read_text())
            assert record["run_id"] == path.stem
            assert record["source"] == "sweep:engine-test"
            assert "throughput" in record["result"]

    def test_progress_callback_sees_every_run(self, spec, first_run, tmp_path):
        events = []
        execute_sweep(
            spec,
            RunRepository(tmp_path),
            workers=1,
            progress=lambda status, run: events.append(status),
        )
        assert events.count("executed") == 4


class TestResume:
    def test_second_invocation_is_all_cache_hits(self, spec, first_run, monkeypatch):
        root, _, _ = first_run
        # Any attempt to actually execute a run must be loud.
        monkeypatch.setattr(
            sweep, "_execute_and_record", lambda task: pytest.fail("cache miss")
        )
        report = execute_sweep(spec, RunRepository(root), workers=1)
        assert len(report.cached) == 4
        assert report.executed == []

    def test_cached_rerun_summary_is_byte_identical(self, spec, first_run, tmp_path):
        root, _, summary = first_run
        report = execute_sweep(spec, RunRepository(root), workers=1)
        assert summary_bytes(spec, report, tmp_path / "s.json") == summary

    def test_interrupted_sweep_resumes_missing_runs_only(self, spec, first_run):
        root, _, summary = first_run
        victim = run_files(root)[1]
        victim.unlink()  # simulate a sweep killed before this run completed
        report = execute_sweep(spec, RunRepository(root), workers=1)
        assert len(report.cached) == 3
        assert len(report.executed) == 1
        assert report.executed[0] == victim.stem

    def test_corrupt_cache_entry_is_a_miss(self, spec, first_run):
        root, _, _ = first_run
        victim = run_files(root)[0]
        victim.write_text("{truncated")
        report = execute_sweep(spec, RunRepository(root), workers=1)
        assert len(report.executed) == 1
        assert json.loads(victim.read_text())["run_id"] == victim.stem

    def test_stale_digest_is_a_miss(self, spec, first_run):
        """A record whose result was edited (digest left stale) re-executes."""
        root, _, _ = first_run
        victim = run_files(root)[2]
        record = json.loads(victim.read_text())
        honest = record["result"]["throughput"]
        record["result"]["throughput"] = 123456.0
        victim.write_text(json.dumps(record))
        report = execute_sweep(spec, RunRepository(root), workers=1)
        assert report.executed == [victim.stem]
        assert json.loads(victim.read_text())["result"]["throughput"] == honest

    def test_misaddressed_record_is_a_miss(self, spec, first_run):
        """A record filed under another run's id is not that run."""
        root, _, _ = first_run
        first, second = run_files(root)[:2]
        second.write_text(first.read_text())
        report = execute_sweep(spec, RunRepository(root), workers=1)
        assert report.executed == [second.stem]
        assert json.loads(second.read_text())["run_id"] == second.stem

    def test_force_reexecutes_despite_cache(self, spec, first_run, tmp_path):
        root, _, _ = first_run
        report = execute_sweep(spec, RunRepository(root), workers=1, force=True)
        assert len(report.executed) == 4
        assert report.cached == []


class TestWorkerDeterminism:
    def test_parallel_summary_byte_identical_to_serial(
        self, spec, first_run, tmp_path
    ):
        # The acceptance property: a 4-worker run of the same spec produces a
        # byte-identical aggregated summary (fresh repository, different
        # process interleaving, same content).
        _, _, serial_summary = first_run
        report = execute_sweep(spec, RunRepository(tmp_path), workers=4)
        assert len(report.executed) == 4
        parallel_summary = summary_bytes(spec, report, tmp_path / "s.json")
        assert parallel_summary == serial_summary
        # Workers wrote the records: a fresh handle lists every run.
        keys = {run.key for run in expand(spec)}
        assert {entry["run_id"] for entry in RunRepository(tmp_path).list()} == keys

    def test_records_identical_at_any_worker_count(self, spec, first_run, tmp_path):
        _, serial_report, _ = first_run
        report = execute_sweep(spec, RunRepository(tmp_path), workers=2)
        assert [r["result"] for r in report.records] == [
            r["result"] for r in serial_report.records
        ]
        assert [r["params"] for r in report.records] == [
            r["params"] for r in serial_report.records
        ]

    def test_invalid_worker_count_rejected(self, spec, tmp_path):
        with pytest.raises(ValueError, match="workers"):
            execute_sweep(spec, RunRepository(tmp_path), workers=0)


def test_harness_import_loads_no_serve_module():
    """The ledger's setup_s pays for this import; the sweep engine's use of
    the run repository must not drag repro.serve into it."""
    code = (
        "import sys, repro.bench.harness; "
        "print([m for m in sys.modules if m.startswith('repro.serve')])"
    )
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout
    assert out.strip() == "[]"
