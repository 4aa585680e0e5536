"""Checks of the ledger itself, at ``--scale smoke``.

Run with ``PYTHONPATH=src python -m pytest benchmarks/ledger -q`` (not part
of tier-1: it spawns ~20 short child processes, ~30 s).
"""

from __future__ import annotations

import json
import pathlib
import re
import sys
import time

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import run as ledger  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def smoke():
    """One whole ledger at smoke scale: 2 untraced + 3 traced repeats per workload."""
    return ledger.ledgers(seed=7, scale="smoke", repeats=2)[0]


def test_benchmark_json_meets_the_contract():
    """BENCHMARK.json has the driver's keys, limits, name and unit alphabets."""
    doc = ledger.BENCHMARK
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in doc[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for workload in doc["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in doc["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]) and metric["better"] in ("lower", "higher")
    assert all(set(metric) == {"name", "unit", "better"} for metric in doc["per_layer"])
    setup = ledger.END_TO_END["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(metric["bound"] for metric in doc["end_to_end"])
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert all((ledger.ROOT / path).is_dir() for path in doc["paths"])


def test_every_workload_carries_every_metric(smoke):
    """Only recheck_wall_s may be partial; every driver metric is positive."""
    assert smoke["correct"], [r["problems"] for r in smoke["workloads"].values()]
    for name, result in smoke["workloads"].items():
        missing = set(ledger.END_TO_END) - set(result["end_to_end"])
        assert missing <= {"recheck_wall_s"}, (name, missing)
        assert ("recheck_wall_s" in result["end_to_end"]) == WORKLOADS[name].checked
        assert set(result["per_layer"]) == set(ledger.PER_LAYER), name
        assert result["end_to_end"]["failed_frac"]["median"] == 0
        for metric in ledger.BENCHMARK["end_to_end"]:
            assert result["end_to_end"][metric["name"]]["median"] > 0


def test_layers_add_up_to_the_traced_wall(smoke):
    """Layer self-times sum to the traced run wall within 5%."""
    for name, result in smoke["workloads"].items():
        layer = result["per_layer"]
        assert 0 <= layer["layers.unattributed_frac"] <= ledger.MAX_UNATTRIBUTED, name
        self_times = layer["trace.write_self_s"] + sum(
            value for metric, value in layer.items() if metric.endswith(".self_s")
        )
        assert self_times == pytest.approx(layer["layers.traced_wall_s"], rel=0.05), name


def test_layers_show_up_where_predicted(smoke):
    """Checker/oracle only on checked_big; background layers weigh more at paper scale."""
    layers = {name: result["per_layer"] for name, result in smoke["workloads"].items()}
    for name, layer in layers.items():
        checking = layer["checker.self_s"] + layer["oracle.self_s"]
        if WORKLOADS[name].checked:
            assert checking > 0.5 * layer["layers.traced_wall_s"]
            assert layer["checker.violations"] == 0 and layer["trace.read_self_s"] > 0
        else:
            assert checking == 0 and layer["oracle.events"] == 0

    def background_share(layer):
        return (layer["stabilization.self_s"] + layer["replication.self_s"]) / layer[
            "layers.traced_wall_s"]

    assert background_share(layers["paper_scale"]) > background_share(layers["read_heavy"])
    assert layers["read_heavy"]["client.local_read_frac"] > 0
    assert layers["sharded2"]["sharded.self_s"] > 0 and layers["sharded2"]["sharded.speedup"] > 0


def test_sharded_run_reproduces_the_single_kernel_digest(smoke):
    """sharded2 and read_heavy share a configuration, hence a digest."""
    assert smoke["workloads"]["sharded2"]["digest"] == smoke["workloads"]["read_heavy"]["digest"]
    assert smoke["workloads"]["write_heavy"]["digest"] != smoke["workloads"]["read_heavy"]["digest"]


@pytest.mark.parametrize("trace, names", [(0, "end_to_end"), (1, "per_layer")])
def test_driver_mode_prints_the_contract_json(capsys, trace, names):
    """The last stdout line is the driver's JSON object, metrics in BENCHMARK.json order."""
    code = ledger.main(["--workload", "write_heavy", "--scale", "smoke", "--seed", "11",
                        "--seconds", "0", "--trace", str(trace)])
    out = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 0 and set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["attempted"] >= 1 and out["failed"] == 0
    assert list(out["metrics"]) == [metric["name"] for metric in ledger.BENCHMARK[names]]
    for name, entry in out["metrics"].items():
        definition = {**ledger.END_TO_END, **ledger.PER_LAYER}[name]
        assert entry == {"value": entry["value"], "unit": definition["unit"]}


def test_a_missed_check_fails_the_run(monkeypatch):
    """A digest that moves between repeats makes the run incorrect and failed_frac > 0."""
    records = iter(range(100))

    def drifting_child(workload, seed, scale, traced, recheck):
        """A repeat whose simulated statistics "moved"."""
        record, problem = real_child(workload, seed, scale, traced, recheck)
        record["model"]["digest"] += str(next(records))  # simulated statistics "moved"
        return record, problem

    real_child = ledger.run_child
    monkeypatch.setattr(ledger, "run_child", drifting_child)
    (result,) = ledger.measure("read_heavy", 7, "smoke", (2, 0), (0, 0))
    assert not result["correct"] and result["failed"] > 0
    assert "digest differs" in result["problems"][0]
    assert result["end_to_end"]["failed_frac"]["median"] == result["failed"] / result["attempted"]


def test_compare_verdicts():
    """improved / unchanged / unresolved / regressed, and exact metrics compared exactly."""
    def entry(median, iqr=0.0):
        return {"median": median, "q1": median - iqr / 2, "q3": median + iqr / 2, "n": 7, "unit": "s"}

    timed = ledger.END_TO_END["run_wall_s"]  # lower is better, bound 0.10
    assert ledger.verdict(timed, entry(1.0, 0.02), entry(1.2, 0.02)) == "regressed"
    assert ledger.verdict(timed, entry(1.0, 0.02), entry(1.05, 0.02)) == "unchanged"
    assert ledger.verdict(timed, entry(1.0, 0.02), entry(0.9, 0.02)) == "improved"
    assert ledger.verdict(timed, entry(1.0, 0.02), entry(0.99, 0.02)) == "unchanged"
    assert ledger.verdict(timed, entry(1.0, 0.3), entry(1.5, 0.02)) == "unresolved"
    exact = ledger.END_TO_END["model_tx_per_sim_s"]  # higher is better, exact
    assert ledger.verdict(exact, entry(1600.0), entry(1600.0)) == "unchanged"
    assert ledger.verdict(exact, entry(1600.0), entry(1600.5)) == "improved"
    assert ledger.verdict(exact, entry(1600.0), entry(1599.5)) == "regressed"

    side = {"workloads": {"read_heavy": {"end_to_end": {"run_wall_s": entry(2.0, 0.02)}}}}
    other = {"workloads": {"read_heavy": {"end_to_end": {"run_wall_s": entry(2.5, 0.02)}}}}
    (row,) = ledger.compare(side, other)
    assert row["verdict"] == "regressed" and row["ratio_b_over_a"] == 1.25
    assert not ledger.within_bound(row)


def test_untraced_run_after_a_traced_one_is_untouched(tmp_path):
    """uninstall() restores every original: same digest and counts before, during, after."""
    from repro.sim.future import Future
    from repro.sim.kernel import Simulator
    from repro.sim.network import Network, Node

    workload = WORKLOADS["checked_big"]
    config = workload.config(7, "smoke")
    originals = (Simulator.run, Network.send, Node.request, Future.resolve)

    def run(recorder):
        record = child.run_single(workload, config, recorder, time.time(), True, tmp_path)
        assert record["recheck"]["violations"] == 0 == record["counts"]["checker.violations"]
        return record["model"]["digest"], record["counts"]

    before = run(None)
    recorder = spans.Recorder()
    undo = spans.install(recorder)
    try:
        assert Simulator.run is not originals[0]
        traced = run(recorder)
    finally:
        spans.uninstall(undo)
    assert (Simulator.run, Network.send, Node.request, Future.resolve) == originals
    assert run(None) == before == traced
    assert len(recorder.start) == len(recorder.end) > 1000 and recorder.current == -1
    recorder.write(tmp_path / "trace.json")
    written = json.loads((tmp_path / "trace.json").read_text())
    assert len(written["name"]) == len(written["parent"]) == len(recorder.start)
    assert not list(tmp_path.glob("events_*"))  # the spilled event trace is removed
