"""Tests for the command-line interface."""

from __future__ import annotations

import json
import re
import time

import pytest

from repro import cli

FAST = ["--dcs", "3", "--machines", "2", "--threads", "1",
        "--keys", "20", "--warmup", "0.4", "--duration", "0.4"]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["frobnicate"])

    def test_run_defaults(self):
        args = cli.build_parser().parse_args(["run"])
        assert args.protocol == "paris"
        assert args.mix == "95:5"

    def test_figure_choices(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["figure", "fig99"])

    @pytest.mark.parametrize("command", ["run", "compare", "chaos"])
    def test_flag_defaults_are_the_param_defaults(self, command):
        """One table of run-parameter defaults: the flags take theirs from it."""
        from repro.bench.sweep import PARAM_DEFAULTS, resolve_params

        required = ["--plan-out", "plan.json"] if command == "chaos" else []
        args = cli.build_parser().parse_args([command, *required])
        for name, default in PARAM_DEFAULTS.items():
            assert getattr(args, name) == default, name
        assert cli.params_from_args(args) == resolve_params({"seed": args.seed})

    def test_config_from_args(self):
        args = cli.build_parser().parse_args(["run", *FAST, "--mix", "50:50"])
        config = cli.config_from_args(args)
        assert config.cluster.n_dcs == 3
        assert config.workload.writes_per_tx == 10
        assert config.workload.threads_per_client == 1
        # partitions_per_tx is capped by the machines/DC pool.
        assert config.workload.partitions_per_tx == 2


class TestProfilesCommand:
    def test_profiles_table(self, capsys):
        assert cli.main(["profiles"]) == 0
        out = capsys.readouterr().out
        for name in ("ycsb_a", "ycsb_f", "hotspot_shift", "bursty"):
            assert name in out
        assert "read-modify-write" in out

    def test_profiles_names_are_scriptable(self, capsys):
        from repro.workload.profiles import profile_names

        assert cli.main(["profiles", "--names"]) == 0
        out = capsys.readouterr().out
        assert tuple(out.split()) == profile_names()

    def test_workload_flag_builds_profile_config(self):
        args = cli.build_parser().parse_args(["run", *FAST, "--workload", "ycsb_f"])
        config = cli.config_from_args(args)
        assert config.workload.profile == "ycsb_f"
        assert config.workload.reads_per_tx == 5
        assert config.workload.writes_per_tx == 5

    def test_workload_flag_overrides_mix(self):
        args = cli.build_parser().parse_args(
            ["run", *FAST, "--mix", "50:50", "--workload", "ycsb_c"]
        )
        config = cli.config_from_args(args)
        assert config.workload.writes_per_tx == 0

    def test_check_with_profile_exits_zero(self, capsys):
        assert cli.main(["run", *FAST, "--big", "--workload", "ycsb_f"]) == 0
        assert "0 violations" in capsys.readouterr().out

    def test_unknown_profile_fails_loudly(self):
        from repro.bench.sweep import SweepSpecError

        args = cli.build_parser().parse_args(["run", *FAST, "--workload", "nope"])
        with pytest.raises(SweepSpecError, match="unknown workload profile"):
            cli.config_from_args(args)


class TestProtocolsCommand:
    def test_protocols_table(self, capsys):
        assert cli.main(["protocols"]) == 0
        out = capsys.readouterr().out
        for name in ("paris", "bpr", "eventual", "gst_local"):
            assert name in out
        assert "session" in out  # eventual's consistency claim column

    def test_protocols_names_are_scriptable(self, capsys):
        from repro.protocols import protocol_names

        assert cli.main(["protocols", "--names"]) == 0
        out = capsys.readouterr().out
        # Sorted for a stable listing; registration order is an import detail.
        assert tuple(out.split()) == tuple(sorted(protocol_names()))

    def test_unknown_protocol_lists_registry(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["run", *FAST, "--protocol", "espresso"])
        err = capsys.readouterr().err
        assert "unknown protocol 'espresso'" in err
        assert "paris" in err and "gst_local" in err

    def test_check_picks_claimed_level(self, capsys):
        assert cli.main(["run", *FAST, "--big", "--protocol", "eventual"]) == 0
        out = capsys.readouterr().out
        assert "level 'session'" in out
        assert "0 violations" in out

    def test_compare_accepts_protocol_list(self, capsys):
        assert cli.main(["compare", *FAST, "--protocol", "paris", "eventual"]) == 0
        out = capsys.readouterr().out
        assert "eventual" in out
        assert "PaRiS vs BPR" not in out  # ratio line needs both present


class TestCommands:
    def test_run_prints_summary(self, capsys):
        assert cli.main(["run", *FAST]) == 0
        out = capsys.readouterr().out
        assert "throughput" in out
        assert "UST staleness" in out
        assert "read blocking" not in out  # PaRiS never blocks
        assert "profile:" not in out

    @pytest.mark.parametrize("tier", [[], ["--big"]], ids=["plain", "big"])
    def test_run_profile_line_names_a_loadable_dump(self, tier, capsys, tmp_path):
        import pstats

        stats_path = tmp_path / "run.stats"
        assert cli.main(["run", *FAST, *tier, "--profile", str(stats_path)]) == 0
        assert f"profile: {stats_path}\n" in capsys.readouterr().out
        assert pstats.Stats(str(stats_path)).total_calls > 0

    def test_run_bpr_reports_blocking(self, capsys):
        assert cli.main(["run", *FAST, "--protocol", "bpr"]) == 0
        out = capsys.readouterr().out
        assert "read blocking" in out

    def test_compare(self, capsys):
        assert cli.main(["compare", *FAST]) == 0
        out = capsys.readouterr().out
        assert "paris" in out and "bpr" in out
        assert "PaRiS vs BPR" in out

    def test_check_clean_protocol_exits_zero(self, capsys):
        assert cli.main(["run", *FAST, "--big"]) == 0
        out = capsys.readouterr().out
        assert "0 violations" in out

    def test_topology(self, capsys):
        assert cli.main(["topology", "--dcs", "5", "--machines", "18", "--rf", "2"]) == 0
        out = capsys.readouterr().out
        assert "45 partitions" in out
        assert "2.50x capacity" in out

    def test_figure_table1(self, capsys):
        assert cli.main(["figure", "table1"]) == 0
        out = capsys.readouterr().out
        assert "PaRiS (this work)" in out

    def test_format_result_fields(self):
        from repro import run_experiment, small_test_config

        result = run_experiment(
            small_test_config().with_(warmup=0.4, duration=0.4), protocol="paris"
        )
        text = cli.format_result(result)
        assert "tx/s" in text and "ms" in text


class TestJsonOutput:
    def test_run_json(self, capsys):
        import json

        assert cli.main(["run", *FAST, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["protocol"] == "paris"
        assert data["throughput"] > 0
        assert isinstance(data["visibility_cdf"], list)

    def test_run_big_json_is_one_document_at_any_shard_count(self, capsys, tmp_path):
        """Status lines go to stderr under --json, so stdout parses."""
        import json

        documents = []
        for shards in ("1", "2"):
            assert cli.main([
                "run", *FAST, "--big", "--json", "--shards", shards,
                "--save", "--repo", str(tmp_path / "repo"),
                "--profile", str(tmp_path / "run.stats"),
            ]) == 0
            captured = capsys.readouterr()
            documents.append(json.loads(captured.out))
            for line in ("streaming check", "profile: ", "saved record "):
                assert line in captured.err and line not in captured.out
        assert documents[0] == documents[1]
        assert documents[0]["transactions_measured"] > 0

    def test_result_round_trips_through_json(self):
        import json

        from repro import run_experiment, small_test_config

        result = run_experiment(
            small_test_config().with_(warmup=0.4, duration=0.4, visibility_sample_rate=1.0),
            protocol="paris",
        )
        data = json.loads(result.to_json())
        assert data["transactions_measured"] == result.transactions_measured
        assert data["visibility_cdf"][0]["fraction"] == 0.0


class TestSweepCommand:
    SPEC = {
        "name": "cli-sweep",
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
        "axes": {"locality": [1.0, 0.5]},
    }

    @pytest.fixture
    def spec_path(self, tmp_path):
        import json

        path = tmp_path / "spec.json"
        path.write_text(json.dumps(self.SPEC))
        return str(path)

    def test_list_expands_without_executing(self, spec_path, tmp_path, capsys):
        repo = tmp_path / "results"
        assert cli.main(["sweep", spec_path, "--list", "--repo", str(repo)]) == 0
        out = capsys.readouterr().out
        assert "2 runs" in out
        assert "locality=0.5" in out
        assert not repo.exists()

    def test_execute_then_resume_all_cached(self, spec_path, tmp_path, capsys):
        import json

        repo = str(tmp_path / "results")
        assert cli.main(["sweep", spec_path, "--repo", repo]) == 0
        first = capsys.readouterr().out
        assert "2 executed" in first
        summary_path = tmp_path / "results" / "sweeps" / "cli-sweep" / "summary.json"
        assert f"summary (2 groups): {summary_path}" in first
        summary = json.loads(summary_path.read_text())
        assert summary["name"] == "cli-sweep"
        assert len(summary["groups"]) == 2
        # Second invocation: every run is a cache hit, summary unchanged.
        before = summary_path.read_bytes()
        assert cli.main(["sweep", spec_path, "--repo", repo]) == 0
        second = capsys.readouterr().out
        assert "2 cached, 0 executed" in second
        assert summary_path.read_bytes() == before

    def test_run_save_with_cell_params_is_a_cache_hit(self, spec_path, tmp_path, capsys):
        """`repro run --save` and a sweep cell with the same params are one run."""
        from repro.bench.sweep import SweepSpec, expand
        from repro.serve.repository import RunRepository

        cell = expand(SweepSpec.from_dict(self.SPEC))[0]
        flags = [f"--{name}={cell.params[name]}" for name in self.SPEC["base"]]
        repo = str(tmp_path / "results")
        assert cli.main([
            "run", *flags, f"--locality={cell.params['locality']}",
            f"--seed={cell.params['seed']}", "--save", "--repo", repo,
        ]) == 0
        assert f"saved record {cell.key[:12]}" in capsys.readouterr().out
        saved = RunRepository(repo).get(cell.key)
        assert cli.main(["sweep", spec_path, "--repo", repo]) == 0
        out = capsys.readouterr().out
        assert f"cached   {cell.key[:12]}" in out
        assert "1 cached, 1 executed" in out
        assert RunRepository(repo).get(cell.key) == saved  # source "cli" kept

    def test_bad_spec_raises_clean_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"name": "x", "axes": {"volume": [11]}}')
        assert cli.main(["sweep", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro sweep: error: unknown axis")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "base, axes",
        [({"dcs": "3"}, {"locality": [0.5]}), ({}, {"threads": [1, "x"]})],
    )
    def test_mistyped_spec_param_is_one_line_and_exit_2(self, tmp_path, capsys, base, axes):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"name": "x", "base": base, "axes": axes}))
        assert cli.main(["sweep", str(bad), "--repo", str(tmp_path / "r")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("repro sweep: error: run parameter ")
        assert "must be an integer" in captured.err
        assert len(captured.err.splitlines()) == 1
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("field", ["repeats", "seed"])
    def test_boolean_repeats_or_seed_is_one_line_and_exit_2(self, tmp_path, capsys, field):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**self.SPEC, field: True}))
        assert cli.main(["sweep", str(bad), "--repo", str(tmp_path / "r")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"repro sweep: error: {field} must be ")
        assert len(captured.err.splitlines()) == 1
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize(
        "base, axes",
        [({"duration": float("inf")}, {"locality": [0.5]}), ({}, {"warmup": [0.5, float("nan")]})],
    )
    def test_non_finite_run_length_refuses_the_spec(self, tmp_path, capsys, base, axes):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"name": "x", "base": base, "axes": axes}))
        assert cli.main(["sweep", str(bad), "--repo", str(tmp_path / "r")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("repro sweep: error: warmup and duration must be finite")
        assert len(captured.err.splitlines()) == 1
        assert not (tmp_path / "r").exists()


class TestRunLengthFlags:
    @pytest.mark.parametrize(
        "argv", [["--duration", "inf"], ["--duration", "nan"], ["--warmup", "inf"], ["--warmup", "nan"]]
    )
    def test_non_finite_run_length_is_one_line_and_exit_2(self, capsys, argv):
        """A NaN warmup would measure nothing and exit 0; inf would never end."""
        assert cli.main(["run", *FAST, *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("repro run: error: warmup and duration must be finite")
        assert len(captured.err.splitlines()) == 1


class TestFaultPlanFlag:
    @pytest.mark.parametrize(
        "event",
        [{"at": "0.5", "action": "heal"}, {"at": float("nan"), "action": "heal"},
         {"at": 0.5, "action": "partition", "dc": True}],
    )
    def test_mistyped_plan_is_one_line_and_exit_2(self, tmp_path, capsys, event):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"events": [event]}))
        assert cli.main(["run", *FAST, "--faults", str(plan)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("repro run: error: ")
        assert "must be" in captured.err
        assert len(captured.err.splitlines()) == 1


class TestRunRepositoryCommands:
    """run --save, runs, and sweeps as repository producers, CLI-level."""

    def test_run_save_then_runs_lists_it(self, tmp_path, capsys):
        repo = str(tmp_path / "results")
        assert cli.main(["run", *FAST, "--save", "--repo", repo]) == 0
        out = capsys.readouterr().out
        assert "saved record" in out and "repro replay" in out
        assert cli.main(["runs", "--repo", repo]) == 0
        listing = capsys.readouterr().out
        assert "paris" in listing
        assert "1 shown of 1 persisted" in listing

    def test_runs_limit_zero_is_all_and_negative_exit_2(self, tmp_path, capsys):
        from repro.serve.repository import RunRepository

        repo = str(tmp_path / "results")
        RunRepository(repo).save_run({"seed": 1}, {"throughput": 1.0})
        assert cli.main(["runs", "--repo", repo, "--limit", "0"]) == 0
        assert "1 shown of 1 persisted" in capsys.readouterr().out
        assert cli.main(["runs", "--repo", repo, "--limit", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "repro runs: error: limit must be >= 0 (0 = all): -1\n"

    def test_runs_empty_repository_message(self, tmp_path, capsys):
        assert cli.main(["runs", "--repo", str(tmp_path / "results")]) == 0
        assert "no persisted runs" in capsys.readouterr().out

    def test_runs_filter_mismatch_message(self, tmp_path, capsys):
        repo = str(tmp_path / "results")
        assert cli.main(["run", *FAST, "--save", "--repo", repo]) == 0
        capsys.readouterr()
        assert cli.main(["runs", "--repo", repo, "--protocol", "bpr"]) == 0
        assert "loosen the filters" in capsys.readouterr().out

    def test_sweep_runs_are_repository_runs(self, tmp_path, capsys):
        import json

        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(TestSweepCommand.SPEC))
        repo = str(tmp_path / "results")
        assert cli.main(["sweep", str(spec), "--repo", repo]) == 0
        out = capsys.readouterr().out
        assert "run repository: 2 runs" in out
        assert cli.main(["runs", "--repo", repo, "--source", "sweep:cli-sweep"]) == 0
        assert "2 shown of 2 persisted" in capsys.readouterr().out

    def test_faults_inlined_in_saved_params(self, tmp_path, capsys):
        """A --faults run saves a self-contained record (plan inlined)."""
        from repro.serve.repository import RunRepository

        repo = str(tmp_path / "results")
        assert cli.main([
            "run", *FAST, "--faults", "examples/plans/partition_stall.json",
            "--save", "--repo", repo,
        ]) == 0
        capsys.readouterr()
        (entry,) = RunRepository(repo).list()
        record = RunRepository(repo).get(entry["run_id"])
        assert isinstance(record["params"]["faults"], dict)


class TestBigRunTier:
    """The streaming big-run tier: run --big [--trace-out], check --trace-in."""

    def test_run_big_streams_and_spills(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        assert cli.main([
            "run", *FAST, "--big", "--window", "0.3",
            "--trace-out", str(trace),
        ]) == 0
        out = capsys.readouterr().out
        assert "streaming check" in out
        assert "0 violations" in out
        assert trace.exists() and trace.stat().st_size > 0

    def test_run_big_without_trace_out(self, capsys):
        assert cli.main(["run", *FAST, "--big"]) == 0
        out = capsys.readouterr().out
        assert "streaming check" in out
        assert "trace:" not in out
        assert "profile:" not in out

    def test_check_trace_out_then_trace_in(self, capsys, tmp_path):
        """Persist via run --big --trace-out, re-check via check --trace-in."""
        trace = tmp_path / "trace.jsonl"
        assert cli.main(["run", *FAST, "--big", "--trace-out", str(trace)]) == 0
        first = capsys.readouterr().out
        assert "0 violations" in first
        assert str(trace) in first
        assert cli.main(["check", "--trace-in", str(trace)]) == 0
        second = capsys.readouterr().out
        assert "re-checked" in second
        assert "0 violations" in second

    def test_check_trace_in_windowed(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        assert cli.main(["run", *FAST, "--big", "--trace-out", str(trace)]) == 0
        capsys.readouterr()
        assert cli.main([
            "check", "--trace-in", str(trace), "--window", "0.2",
        ]) == 0
        out = capsys.readouterr().out
        assert "0.2s window" in out

    def test_check_live_window_reports_retired_versions(self, capsys):
        """--window reaches a live run's checker."""
        assert cli.main(["run", *FAST, "--big", "--window", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "0 violations" in out
        match = re.search(r"\(0\.2s window, .* (\d+) versions retired, (\d+) in window", out)
        assert match, out
        assert int(match.group(1)) > 0
        # Unbounded is the default, and the status line says so.
        assert cli.main(["run", *FAST, "--big"]) == 0
        assert "(unbounded window, " in capsys.readouterr().out

    def test_check_trace_in_catches_violations(self, capsys, tmp_path):
        """A session-level protocol's trace re-checked at tcc exits 1."""
        trace = tmp_path / "trace.jsonl"
        cli.main(["run", *FAST, "--big", "--protocol", "eventual",
                  "--trace-out", str(trace)])
        capsys.readouterr()
        # Re-check the eventual trace as if it claimed full tcc: the
        # streaming checker must surface the causal violations.
        status = cli.main(["check", "--trace-in", str(trace),
                           "--protocol", "paris"])
        out = capsys.readouterr().out
        assert status == 1
        assert "violations" in out and "0 violations" not in out

    def test_reordered_trace_is_exit_2_quickly(self, capsys, tmp_path):
        """Two commit lines of one client swapped: exit 2, not a hung checker.

        Folded out of order, the second commit's delta names the first
        commit's write, so the first commit depends on its own version: a
        cycle the closure walk never leaves.
        """
        lines = [
            '{"added":[],"at":1.0,"client":"c","ct":100,"seq":0,"t":"commit",'
            '"tid":[1,1],"written":[["x",100,1,1,0]]}',
            '{"added":[["x",100,1,1,0]],"at":2.0,"client":"c","ct":200,"seq":1,'
            '"t":"commit","tid":[2,1],"written":[["y",200,2,1,0]]}',
            '{"at":3.0,"client":"r","returned":[["y","store",200,2,1,0]],"seq":2,'
            '"snapshot":300,"t":"read","tid":[3,2]}',
            '{"at":4.0,"client":"r","returned":[["x","store",100,1,1,0]],"seq":3,'
            '"snapshot":300,"t":"read","tid":[4,2]}',
        ]
        trace, swapped = tmp_path / "trace.jsonl", tmp_path / "swapped.jsonl"
        trace.write_text("\n".join(lines) + "\n")
        swapped.write_text("\n".join([lines[1], lines[0], *lines[2:]]) + "\n")
        assert cli.main(["check", "--trace-in", str(trace)]) == 0
        capsys.readouterr()
        began = time.monotonic()
        assert cli.main(["check", "--trace-in", str(swapped)]) == 2
        assert time.monotonic() - began < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "swapped.jsonl:2: events out of order (seq 0 after 1)" in captured.err

    def test_cyclic_trace_is_exit_2_quickly(self, capsys, tmp_path):
        """Two commits naming each other's write: in order, yet a cycle.

        ``seq`` increases, so the reader lets it through; the checker's
        closure walk must refuse the cycle rather than walk it forever.
        """
        lines = [
            '{"added":[["y",200,2,2,0]],"at":1.0,"client":"a","ct":100,"seq":0,'
            '"t":"commit","tid":[1,1],"written":[["x",100,1,1,0]]}',
            '{"added":[["x",100,1,1,0]],"at":2.0,"client":"b","ct":200,"seq":1,'
            '"t":"commit","tid":[2,2],"written":[["y",200,2,2,0]]}',
            '{"at":3.0,"client":"r","returned":[["x","store",100,1,1,0]],"seq":2,'
            '"snapshot":300,"t":"read","tid":[3,3]}',
        ]
        cyclic = tmp_path / "cyclic.jsonl"
        cyclic.write_text("\n".join(lines) + "\n")
        began = time.monotonic()
        assert cli.main(["check", "--trace-in", str(cyclic)]) == 2
        assert time.monotonic() - began < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert "cyclic.jsonl: seq 2: dependency cycle through transaction (1, 1)" in captured.err

    @pytest.mark.parametrize(
        "damage, where",
        [
            ("missing", "bad.jsonl: cannot open"),
            ("truncated", "bad.jsonl:"),
            ("not json", "bad.jsonl:1: corrupt"),
            ("bogus type", "bad.jsonl:1: not a consistency event"),
        ],
    )
    def test_bad_trace_is_exit_2_not_a_verdict(self, capsys, tmp_path, damage, where):
        """Exit 1 means violations; an unreadable trace is one line and exit 2."""
        trace, bad = tmp_path / "trace.jsonl", tmp_path / "bad.jsonl"
        if damage == "truncated":
            assert cli.main(["run", *FAST, "--big", "--trace-out", str(trace)]) == 0
            bad.write_bytes(trace.read_bytes()[:-10])  # the last line, cut short
        elif damage == "not json":
            bad.write_text("hello trace\n")
        elif damage == "bogus type":
            bad.write_text('{"t":"bogus"}\n')
        capsys.readouterr()
        assert cli.main(["check", "--trace-in", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert where in captured.err


class TestBadFlagsExit2:
    """A flag no run can be configured from is one stderr line and exit 2.

    Exit 1 is reserved for "violations found" under ``run --big``.
    """

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run", "--big", "--dcs", "0"], "need at least one DC"),
            (["run", "--big", "--locality", "1.5"], "locality must be in [0, 1]"),
            (["run", "--big", "--dcs", "3", "--machines", "3", "--rf", "2"], "not divisible"),
            (["run", "--big", "--duration", "0"], "duration > 0"),
            (["run", "--big", "--threads", "0"], "threads_per_client must be >= 1"),
            (["run", "--big", "--workload", "nosuch"], "unknown workload profile 'nosuch'"),
            (["run", "--big", "--preset", "nosuch"], "unknown topology preset 'nosuch'"),
            (["run", "--big", "--faults", "/nonexistent.json"], "cannot read fault plan"),
            (["run", "--big", "--rf", "0"], "replication factor 0 must be in [1, 3]"),
            (["compare", "--dcs", "0"], "need at least one DC"),
            (["chaos", "--dcs", "0"], "need at least one DC"),
            (["topology", "--rf", "0"], "replication factor 0 must be in [1, 5]"),
            (["serve", "--port", "70000"], "port must be in [0, 65535]: 70000"),
        ],
    )
    def test_bad_run_parameter(self, monkeypatch, capsys, tmp_path, argv, message):
        def no_simulation(*args, **kwargs):
            raise AssertionError("a bad flag must stop before any run")

        monkeypatch.setattr(cli, "run_recorded", no_simulation)
        monkeypatch.setattr(cli, "run_experiment", no_simulation)
        plan = tmp_path / "plan.json"
        if argv[0] == "chaos":
            argv = [*argv, "--plan-out", str(plan)]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith(f"repro {argv[0]}: error: ")
        assert message in captured.err
        assert not plan.exists()

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["sweep", "SPEC", "--workers", "0"], "--workers"),
            (["chaos", "--episodes", "-1"], "--episodes"),
            (["serve", "--workers", "0"], "--workers"),
        ],
    )
    def test_non_positive_count_is_a_parser_error(self, capsys, tmp_path, argv, flag):
        plan = tmp_path / "plan.json"
        with pytest.raises(SystemExit) as exited:
            cli.main([*argv, "--plan-out", str(plan)] if argv[0] == "chaos" else argv)
        assert exited.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert errors == [
            f"repro {argv[0]}: error: argument {flag}: must be an integer >= 1: {argv[-1]!r}"
        ]
        assert not plan.exists()

    def test_a_value_error_inside_a_run_stays_a_traceback(self, monkeypatch):
        def broken_run(*args, **kwargs):
            raise ValueError("a bug inside the simulation")

        monkeypatch.setattr(cli, "run_recorded", broken_run)
        with pytest.raises(ValueError, match="a bug inside the simulation"):
            cli.main(["run", *FAST])


class TestOneCommandPerVerb:
    """run --big checks live runs, check re-checks traces, chaos writes plans."""

    @pytest.mark.parametrize("flag, value", [("--trace-out", None), ("--window", "0.5")])
    def test_big_only_flags_without_big_exit_2(self, capsys, tmp_path, flag, value):
        trace = tmp_path / "trace.jsonl"
        assert cli.main(["run", *FAST, flag, value or str(trace)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"repro run: error: {flag} needs --big\n"
        assert not trace.exists()

    @pytest.mark.parametrize("window", ["0", "-1", "nan", "inf"])
    @pytest.mark.parametrize("command", ["run", "check"])
    def test_bad_window_is_a_parser_error(self, monkeypatch, capsys, command, window):
        def no_simulation(*args, **kwargs):
            raise AssertionError("a bad --window must stop before any run")

        monkeypatch.setattr(cli, "run_recorded", no_simulation)
        monkeypatch.setattr(cli, "check_trace", no_simulation)
        argv = ["run", *FAST, "--big"] if command == "run" else ["check", "--trace-in", "T"]
        with pytest.raises(SystemExit) as exited:
            cli.main([*argv, f"--window={window}"])
        assert exited.value.code == 2
        assert "argument --window: must be a finite number of seconds > 0" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize(
        "argv", [["--trace-in", "T", "--dcs", "3"], []], ids=["cluster flag", "no trace"]
    )
    def test_check_takes_a_trace_only(self, argv):
        with pytest.raises(SystemExit) as exited:
            cli.main(["check", *argv])
        assert exited.value.code == 2

    def test_chaos_writes_the_seeded_plan_and_runs_nothing(
        self, monkeypatch, capsys, tmp_path
    ):
        import json

        from repro.faults import random_plan

        def no_simulation(*args, **kwargs):
            raise AssertionError("chaos only writes a plan")

        monkeypatch.setattr(cli, "run_recorded", no_simulation)
        monkeypatch.setattr(cli, "run_experiment", no_simulation)
        plan_path = tmp_path / "plan.json"
        assert cli.main(["chaos", *FAST, "--seed", "7", "--plan-out", str(plan_path)]) == 0
        assert f"plan written to {plan_path}" in capsys.readouterr().out
        config = cli.config_from_args(cli.build_parser().parse_args(["run", *FAST]))
        expected = random_plan(
            config.cluster, seed=7, horizon=config.warmup + config.duration, episodes=6
        )
        assert json.loads(plan_path.read_text()) == expected.to_dict()

    def test_run_big_applies_a_chaos_plan(self, capsys, tmp_path):
        plan_path = tmp_path / "plan.json"
        assert cli.main(["chaos", *FAST, "--seed", "7", "--plan-out", str(plan_path)]) == 0
        assert cli.main(["run", *FAST, "--big", "--seed", "7", "--faults", str(plan_path)]) == 0
        assert "0 violations" in capsys.readouterr().out
