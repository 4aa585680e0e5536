"""Tests for byte-identical replay: `repro replay` and replay_run."""

from __future__ import annotations

import json

import pytest

from repro import cli
from repro.serve.replay import replay_run
from repro.serve.repository import RepositoryError, RunRepository

FAST = ["--dcs", "3", "--machines", "2", "--threads", "1",
        "--keys", "20", "--warmup", "0.4", "--duration", "0.4"]


def save_via_cli(tmp_path, *extra):
    """Run `repro run --save` and return (repository, run_id)."""
    repo_dir = str(tmp_path / "results")
    assert cli.main(["run", *FAST, "--save", "--repo", repo_dir, *extra]) == 0
    repo = RunRepository(repo_dir)
    (entry,) = repo.list()
    return repo, entry["run_id"]


class TestReplayDigestEquality:
    @pytest.mark.parametrize("protocol", ["paris", "cure", "cops"])
    def test_summary_reproduces_per_protocol(self, tmp_path, protocol, capsys):
        repo, run_id = save_via_cli(tmp_path, "--protocol", protocol)
        capsys.readouterr()
        report = replay_run(repo, run_id)
        assert report.ok
        assert report.summary_ok
        assert report.trace_ok is None  # no trace stored
        assert report.protocol == protocol
        assert report.replayed_summary_digest == report.stored_summary_digest

    def test_trace_reproduces_byte_identically(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        repo, run_id = save_via_cli(
            tmp_path, "--big", "--trace-out", str(trace)
        )
        capsys.readouterr()
        report = replay_run(repo, run_id)
        assert report.ok
        assert report.trace_ok is True
        assert report.replayed_trace_digest == report.stored_trace_digest

    def test_trace_out_keeps_replayed_trace(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        repo, run_id = save_via_cli(
            tmp_path, "--big", "--trace-out", str(trace)
        )
        capsys.readouterr()
        out = tmp_path / "replayed.jsonl"
        report = replay_run(repo, run_id, trace_out=out)
        assert report.ok
        assert out.read_bytes() == repo.trace_path(run_id).read_bytes()


class TestReplayCLI:
    def test_exit_zero_and_verdict_lines(self, tmp_path, capsys):
        repo, run_id = save_via_cli(tmp_path)
        capsys.readouterr()
        assert cli.main(
            ["replay", run_id[:12], "--repo", str(repo.root)]
        ) == 0
        out = capsys.readouterr().out
        assert "summary digest" in out and "reproduced" in out

    def test_divergent_record_exits_one_naming_digest(self, tmp_path, capsys):
        """A record whose digest was (consistently) doctored replays to 1."""
        repo, run_id = save_via_cli(tmp_path)
        capsys.readouterr()
        path = repo.runs_dir / f"{run_id}.json"
        record = json.loads(path.read_text())
        # Tamper with the result AND refresh the stored digest so the record
        # loads intact — the replay itself must then catch the divergence.
        from repro.bench.results import result_digest

        record["result"]["throughput"] = 123456.0
        record["summary_digest"] = result_digest(record["result"])
        path.write_text(json.dumps(record))
        assert cli.main(["replay", run_id[:12], "--repo", str(repo.root)]) == 1
        out = capsys.readouterr().out
        assert "DIVERGED" in out
        assert record["summary_digest"] in out  # names the stored digest

    def test_corrupt_record_exits_two(self, tmp_path, capsys):
        """Bit rot (digest mismatch on load) is a load failure, exit 2."""
        repo, run_id = save_via_cli(tmp_path)
        capsys.readouterr()
        path = repo.runs_dir / f"{run_id}.json"
        record = json.loads(path.read_text())
        record["result"]["throughput"] = 123456.0  # digest left stale
        path.write_text(json.dumps(record))
        assert cli.main(["replay", run_id[:12], "--repo", str(repo.root)]) == 2
        err = capsys.readouterr().err
        assert "stored summary digest" in err

    def test_missing_trace_file_exits_two_naming_digest(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        repo, run_id = save_via_cli(
            tmp_path, "--big", "--trace-out", str(trace)
        )
        capsys.readouterr()
        repo.trace_path(run_id).unlink()
        assert cli.main(["replay", run_id[:12], "--repo", str(repo.root)]) == 2
        err = capsys.readouterr().err
        assert "trace file is missing" in err
        stored_digest = repo.get(run_id)["trace_digest"]
        assert stored_digest[:12] in err

    def test_unknown_run_id_exits_two(self, tmp_path, capsys):
        repo_dir = str(tmp_path / "results")
        assert cli.main(
            ["replay", "0123456789abcdef", "--repo", repo_dir]
        ) == 2
        assert "no persisted run" in capsys.readouterr().err

    def test_glob_pattern_run_id_exits_two(self, tmp_path, capsys):
        """A run id is hex: '????????' names no run, even with one unindexed."""
        from repro.serve.repository import write_record

        repo_dir = tmp_path / "results"
        write_record(repo_dir, {"seed": 1}, {"throughput": 1.0}, source="cli")
        assert cli.main(["replay", "????????", "--repo", str(repo_dir)]) == 2
        assert "hex" in capsys.readouterr().err


class TestReplayAPI:
    def test_unknown_id_raises(self, tmp_path):
        repo = RunRepository(tmp_path / "results")
        with pytest.raises(RepositoryError, match="no persisted run"):
            replay_run(repo, "0123456789abcdef")

    def test_report_to_dict_carries_ok(self, tmp_path, capsys):
        repo, run_id = save_via_cli(tmp_path)
        capsys.readouterr()
        data = replay_run(repo, run_id).to_dict()
        assert data["ok"] is True
        assert data["run_id"] == run_id
        assert data["metrics"]["throughput"] > 0
