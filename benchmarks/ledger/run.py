#!/usr/bin/env python3
"""The perf ledger: every workload, end to end and layer by layer.

Three ways in (see README.md):

* ``run.py --workload W --seed N --seconds S --trace 0|1`` — one workload,
  as the benchmark driver of ``BENCHMARK.json`` calls it.  Repeats ``W`` in
  fresh child processes for about ``S`` seconds and prints, as the last line,
  one JSON object with the medians of the end-to-end metrics (``--trace 0``)
  or the per-layer metrics of the traced repeats (``--trace 1``).
* ``run.py [--seed 7] [--repeats 7] [--out FILE] [--aa]`` — the whole ledger:
  all five workloads, ``--repeats`` untraced repeats and three traced repeats
  each, every metric printed by name with its unit.  ``--aa`` does it twice
  and fails unless the two sets agree within the bounds.
* ``run.py compare A.json B.json`` — one row per (workload, end-to-end
  metric) of two ledger files, with a verdict.

Every mode exits non-zero when a correctness check fails.  The simulator is
deterministic, so host time is what this measures; the simulated statistics
(``model_*``) and every count must repeat bit for bit.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from spans import layer_totals  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from repro.bench.runner import write_json  # noqa: E402

#: Names, units, directions and bounds of the metrics the driver sees.
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

#: End-to-end metrics of the fixed-seed ledger only: between two seeds the
#: simulated work differs (a seed draws ~7% more or fewer WAN transactions),
#: so the driver gets ``run_us_per_op`` instead of ``run_wall_s``, and the
#: ``model_*`` statistics, exact for one seed, are not comparable across
#: seeds.  ``bound`` None means "compared exactly".
LEDGER_ONLY = [
    {"name": "run_wall_s", "unit": "s", "better": "lower", "bound": 0.10},
    {"name": "recheck_wall_s", "unit": "s", "better": "lower", "bound": 0.10},
    {"name": "model_tx_per_sim_s", "unit": "tx/sim-s", "better": "higher", "bound": None},
    {"name": "model_latency_p99_ms", "unit": "sim-ms", "better": "lower", "bound": None},
    {"name": "model_ust_staleness_ms", "unit": "sim-ms", "better": "lower", "bound": None},
    {"name": "failed_frac", "unit": "ratio", "better": "lower", "bound": None},
]
END_TO_END = {m["name"]: m for m in BENCHMARK["end_to_end"] + LEDGER_ONLY}
PER_LAYER = {m["name"]: m for m in BENCHMARK["per_layer"]}

RESULTS = ROOT / "bench_results" / "ledger"
#: A single repeat takes 1.5-8 s; anything near this is a hang.
CHILD_TIMEOUT_S = 150
#: Untraced repeats per workload in a ledger.  --aa agrees on every driver
#: metric at this value; 15 did not make the raw whole-run medians agree on a
#: busy shared host either (README, "Host fields and A/A").
DEFAULT_REPEATS = 7
#: Traced repeats per workload in a ledger: enough for a floor to compare
#: with the untraced one (``layers.trace_overhead_frac``).
TRACED_REPEATS = 3
#: Largest share of a traced run that no layer may account for.
MAX_UNATTRIBUTED = 0.05

Record = Dict[str, Any]


# ----------------------------------------------------------------------
# Children
# ----------------------------------------------------------------------
def run_child(workload: str, seed: int, scale: str, traced: bool, recheck: bool
              ) -> Tuple[Optional[Record], str]:
    """One repeat in a fresh process: ``(record, "")`` or ``(None, why it failed)``."""
    command = [
        sys.executable, str(HERE / "child.py"), "--workload", workload,
        "--seed", str(seed), "--scale", scale, "--spawned-at", repr(time.time()),
    ]
    if traced:
        command.append("--traced")
    if recheck:
        command.append("--recheck")
    try:
        done = subprocess.run(
            command, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT
        )
    except subprocess.TimeoutExpired:
        return None, f"{workload}: repeat exceeded {CHILD_TIMEOUT_S} s"
    if done.returncode != 0:
        return None, f"{workload}: repeat exited {done.returncode}: {done.stderr.strip()[-400:]}"
    return json.loads(done.stdout.splitlines()[-1]), ""


def run_children(
    budget: Tuple[int, float], recheck: str, sets: int, **child: Any
) -> List[Tuple[List[Record], List[str]]]:
    """Rounds of one repeat per set, until ``at_least`` ran and the next would overrun.

    ``budget`` is ``(at_least, seconds)``.  With more than one set (``--aa``)
    the sets take turns repeat by repeat and alternate in going first, so that
    all of them see the same host conditions.  ``recheck`` says which repeats
    of a checked workload re-check their spilled trace: ``"all"``, ``"first"``
    or ``"none"``.  Returns ``(records, why each failed repeat failed)`` per set.
    """
    at_least, seconds = budget
    outcomes: List[Tuple[List[Record], List[str]]] = [([], []) for _ in range(sets)]
    began = time.perf_counter()
    last, rounds = 0.0, 0
    while rounds < at_least or time.perf_counter() - began + last <= seconds:
        started = time.perf_counter()
        for records, failures in outcomes[::-1] if rounds % 2 else outcomes:
            record, problem = run_child(
                recheck=recheck == "all" or (recheck == "first" and not records), **child
            )
            if record is None:
                failures.append(problem)
            else:
                records.append(record)
        last = time.perf_counter() - started
        rounds += 1
        if any(len(failures) >= 2 for _, failures in outcomes):
            break  # it will not get better; do not spend the budget on it
    return outcomes


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def spread(values: List[float], unit: str) -> Dict[str, Any]:
    """Median, quartiles and count of one metric's samples."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values), "unit": unit}


def all_equal(records: List[Record], what: str, pick: Any, problems: List[str]) -> None:
    """Note a problem unless ``pick(record)`` is the same for every record."""
    seen = {json.dumps(pick(record), sort_keys=True) for record in records}
    if len(seen) > 1:
        problems.append(f"{records[0]['workload']}: {what} differs between repeats: {sorted(seen)[:2]}")


def undisturbed_wall_s(records: List[Record]) -> float:
    """The run's wall time with every slice taken from its least disturbed repeat.

    Repeats of one seed execute identical work slice by slice, so whatever a
    slice took beyond its fastest repeat is the host (a busy neighbour, a
    frequency dip), not the program.  On a shared box whole-run medians move
    10-30% with the neighbours' load; this sum moves a few percent.
    """
    return sum(min(times) for times in zip(*(record["slices"] for record in records)))


def end_to_end(untraced: List[Record], failed_frac: float) -> Dict[str, Dict[str, Any]]:
    """The end-to-end metrics of one workload from its untraced repeats."""
    model = untraced[0]["model"]
    # The unit of simulated work: a message, or (checked workloads, whose cost
    # is the checker's) a recorded consistency event.  Both are in the digest
    # or the exact counts, so a change of host time alone cannot move them.
    ops = untraced[0]["counts"].get("oracle.events", model["messages_total"])
    samples = {
        "setup_s": [r["setup_s"] for r in untraced],
        "run_wall_s": [r["run_wall_s"] for r in untraced],
        "recheck_wall_s": [r["recheck_wall_s"] for r in untraced if "recheck_wall_s" in r],
        "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
        "model_tx_per_sim_s": [model["tx_per_sim_s"]],
        "model_latency_p99_ms": [model["latency_p99_ms"]],
        "model_ust_staleness_ms": [model["ust_staleness_ms"]],
        "failed_frac": [failed_frac],
    }
    metrics = {
        name: spread(values, END_TO_END[name]["unit"]) for name, values in samples.items() if values
    }
    # No per-repeat samples here: the estimate, and how far it rises when any
    # one repeat is left out, stand in for the median and the quartiles.
    floor = undisturbed_wall_s(untraced)
    without_one = [
        undisturbed_wall_s(untraced[:i] + untraced[i + 1:]) for i in range(len(untraced))
    ] if len(untraced) > 1 else [floor]
    metrics["run_us_per_op"] = {
        "median": floor / ops * 1e6, "q1": floor / ops * 1e6, "q3": max(without_one) / ops * 1e6,
        "n": len(untraced), "unit": END_TO_END["run_us_per_op"]["unit"],
    }
    return metrics


def per_layer(
    traced: List[Record], untraced: List[Record], reference: Optional[Dict[str, Any]]
) -> Dict[str, float]:
    """Every per-layer metric of one workload (0 where a layer does not run).

    Times are those of the traced repeat the host disturbed least (smallest
    run wall), so that they add up to one run; counts are equal in all.
    """
    best = min(traced, key=lambda record: record["run_wall_s"])
    counts, model, tx = best["counts"], best["model"], best["attempted"]
    spans, rechecked = best["spans"]["run"], best["spans"].get("recheck", {})
    layers = layer_totals(spans)
    nothing = {"calls": 0, "self_s": 0.0, "weight": 0}

    def self_s(layer: str) -> float:
        return layers.get(layer, nothing)["self_s"]

    def calls(layer: str) -> int:
        return layers.get(layer, nothing)["calls"]

    def ratio(top: float, bottom: float) -> float:
        return top / bottom if bottom else 0.0

    def count(name: str) -> float:
        return counts.get(name, 0)

    traced_wall = best["run_wall_s"]
    untraced_wall = statistics.median(r["run_wall_s"] for r in untraced)
    keys_asked = spans.get("client.read", nothing)["weight"]
    keys_forwarded = spans.get("coordinator.handle_read", nothing)["weight"]
    values: Dict[str, float] = {
        "kernel.events": count("kernel.events"),
        "kernel.self_s": self_s("kernel"),
        "kernel.events_per_tx": ratio(count("kernel.events"), tx),
        "kernel.dispatch_noop_per_s": max(r["dispatch_noop_per_s"] for r in traced),
        "network.sends": model["messages_total"],
        "network.self_s": self_s("network"),
        "network.inter_dc_frac": ratio(model["messages_inter_dc"], model["messages_total"]),
        "network.metadata_bytes_per_tx": ratio(model["metadata_bytes_total"], tx),
        "cpu.submits": count("cpu.submits"),
        "cpu.self_s": self_s("cpu"),
        "coordinator.calls": calls("coordinator"),
        "coordinator.self_s": self_s("coordinator"),
        "reads.calls": calls("reads"),
        "reads.self_s": self_s("reads"),
        "reads.blocked_frac": model["blocked_fraction"],
        "replication.calls": calls("replication"),
        "replication.self_s": self_s("replication"),
        "replication.heartbeat_frac": ratio(
            count("replication.heartbeats"),
            count("replication.heartbeats") + count("replication.batches"),
        ),
        "mvstore.applies": spans.get("mvstore.apply", nothing)["calls"],
        "mvstore.reads": spans.get("mvstore.read", nothing)["calls"]
        + spans.get("mvstore.read_visible", nothing)["calls"],
        "mvstore.self_s": self_s("mvstore"),
        "mvstore.versions_live": count("mvstore.versions_live"),
        "mvstore.collected": count("mvstore.collected"),
        "stabilization.calls": calls("stabilization"),
        "stabilization.self_s": self_s("stabilization"),
        "stabilization.msgs_per_sim_s": ratio(count("stabilization.msgs"), count("sim_seconds")),
        "client.calls": calls("client"),
        "client.self_s": self_s("client"),
        "client.local_read_frac": ratio(keys_asked - keys_forwarded, keys_asked),
        "workload.tx_generated": calls("workload"),
        "workload.self_s": self_s("workload"),
        "oracle.events": count("oracle.events"),
        "oracle.self_s": self_s("oracle"),
        "checker.feeds": spans.get("checker.feed", nothing)["calls"],
        "checker.self_s": self_s("checker"),
        "checker.state_size_max": spans.get("checker.feed", nothing)["weight"],
        "checker.versions_retired": count("checker.versions_retired"),
        "checker.violations": count("checker.violations"),
        "checker.recheck_wall_s": min(
            [r["recheck_wall_s"] for r in untraced if "recheck_wall_s" in r] or [0.0]
        ),
        "trace.writes": count("trace.writes"),
        "trace.write_self_s": self_s("trace"),
        "trace.bytes": count("trace.bytes"),
        "trace.bytes_per_event": ratio(count("trace.bytes"), count("trace.writes")),
        "trace.read_self_s": layer_totals(rechecked).get("trace", nothing)["self_s"],
        "sharded.barriers": count("sharded.barriers"),
        "sharded.window_ms": count("sharded.window_ms"),
        "sharded.self_s": self_s("sharded"),
        "sharded.cpu_overhead_frac": 0.0,
        "sharded.speedup": 0.0,
        "harness.import_s": statistics.median(r["import_s"] for r in untraced),
        "harness.build_s": statistics.median(r["build_s"] for r in untraced),
        "harness.summarize_s": statistics.median(r["summarize_s"] for r in untraced),
        "harness.run_wall_s": untraced_wall,
        "layers.traced_wall_s": traced_wall,
        "layers.trace_overhead_frac": 0.0,
        "model.tx_per_sim_s": model["tx_per_sim_s"],
        "model.latency_p99_ms": model["latency_p99_ms"],
        "model.p99_samples": model["transactions_measured"],
        "model.ust_staleness_ms": model["ust_staleness_ms"],
    }
    attributed = values["trace.write_self_s"] + sum(
        value for name, value in values.items() if name.endswith(".self_s")
    )
    values["layers.unattributed_frac"] = 1.0 - attributed / traced_wall
    # Taking the fastest of more repeats finds a lower floor, so give both sides as many.
    both = min(len(traced), len(untraced))
    values["layers.trace_overhead_frac"] = (
        undisturbed_wall_s(traced[:both]) / undisturbed_wall_s(untraced[:both]) - 1.0
    )
    if reference is not None:
        # Both ratios are against read_heavy, the same configuration on one kernel.
        cpu = statistics.median(r["cpu_s"] for r in untraced)
        values["sharded.cpu_overhead_frac"] = cpu / reference["cpu_s"] - 1.0
        values["sharded.speedup"] = reference["run_wall_s"] / untraced_wall
    return values


def measure(
    name: str,
    seed: int,
    scale: str,
    untraced: Tuple[int, float],
    traced: Tuple[int, float],
    references: Sequence[Optional[Dict[str, Any]]] = (None,),
) -> List[Dict[str, Any]]:
    """Run one workload's repeats and assess them: one result per set.

    ``untraced``/``traced`` are ``(at_least, seconds)`` budgets for
    :func:`run_children`.  There is one set per entry of ``references``: for
    the sharded workload, read_heavy's ``{digest, cpu_s, run_wall_s}`` of the
    same set.  Re-checking the spilled trace doubles a checked repeat, so only
    the ledger (no time budget) re-checks on every untraced repeat; a timed
    run re-checks once.
    """
    workload = WORKLOADS[name]
    child = {"workload": name, "seed": seed, "scale": scale}
    recheck = "none" if not workload.checked else "first" if untraced[1] else "all"
    plain_sets = run_children(untraced, recheck, len(references), traced=False, **child)
    traced_sets = run_children(
        traced, "all" if workload.checked else "none", len(references), traced=True, **child
    )
    return [
        assess(child, plain, with_spans, failures + traced_failures, reference)
        for (plain, failures), (with_spans, traced_failures), reference
        in zip(plain_sets, traced_sets, references)
    ]


def assess(
    child: Dict[str, Any],
    plain: List[Record],
    with_spans: List[Record],
    problems: List[str],
    reference: Optional[Dict[str, Any]],
) -> Dict[str, Any]:
    """Check one set's untraced and traced repeats and aggregate its metrics."""
    name = child["workload"]
    workload = WORKLOADS[name]
    crashed = len(problems)
    records = plain + with_spans
    result: Dict[str, Any] = dict(
        child, repeats=len(plain), traced_repeats=len(with_spans), problems=problems
    )
    if not plain:
        problems.append(f"{name}: no untraced repeat finished")
        return dict(result, correct=False, attempted=max(1, crashed), failed=max(1, crashed))

    all_equal(records, "result digest", lambda r: r["model"]["digest"], problems)
    all_equal(records, "transactions attempted", lambda r: r["attempted"], problems)
    all_equal(records, "a count", lambda r: r["counts"], problems)
    all_equal(with_spans, "a span call count",
              lambda r: {n: t["calls"] for n, t in r["spans"]["run"].items()}, problems)
    if reference is not None and plain[0]["model"]["digest"] != reference["digest"]:
        problems.append(f"{name}: digest differs from read_heavy's, same configuration")
    for record in records:
        again = record.get("recheck")
        if again and (again["events"] != record["counts"]["trace.writes"]
                      or again["violations"] != record["counts"]["checker.violations"]):
            problems.append(f"{name}: inline check and re-check disagree: {again}")
    if workload.checked and not any("recheck" in record for record in records):
        problems.append(f"{name}: no repeat re-checked its trace")

    if with_spans:
        layer = result["per_layer"] = per_layer(with_spans, plain, reference)
        sends = with_spans[0]["spans"]["run"].get("network.send")
        if sends and sends["calls"] != with_spans[0]["model"]["messages_total"]:
            problems.append(f"{name}: Network.send spans != messages_total; a wrapper is off")
        if layer["layers.unattributed_frac"] > MAX_UNATTRIBUTED:
            problems.append(f"{name}: {layer['layers.unattributed_frac']:.1%} of the traced "
                            f"run is in no layer")

    attempted = plain[0]["attempted"]
    # Violations and dead sessions, repeats that crashed, and one for any missed check.
    failed = max(record["failed"] for record in records) + crashed
    failed = max(failed, 1) if problems else failed
    result["end_to_end"] = end_to_end(plain, failed / attempted)
    result["digest"] = plain[0]["model"]["digest"]
    result["reference"] = {
        "digest": result["digest"],
        "cpu_s": statistics.median(r["cpu_s"] for r in plain),
        "run_wall_s": result["end_to_end"]["run_wall_s"]["median"],
    }
    return dict(result, correct=not problems, attempted=attempted, failed=failed)


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------
def print_workload(result: Dict[str, Any]) -> None:
    """Every metric of one workload by name, with its unit."""
    print(f"== {result['workload']} (seed {result['seed']}, {result['scale']}; "
          f"{result['repeats']} untraced + {result['traced_repeats']} traced repeats)")
    for name, entry in result.get("end_to_end", {}).items():
        print(f"  {name:<32} {entry['median']:>16.6g} {entry['unit']:<9} "
              f"q1 {entry['q1']:.6g}  q3 {entry['q3']:.6g}  n {entry['n']}")
    for name, value in result.get("per_layer", {}).items():
        print(f"  {name:<32} {value:>16.6g} {PER_LAYER[name]['unit']}")
    for problem in result["problems"]:
        print(f"  FAILED CHECK: {problem}")


def ledgers(seed: int, scale: str, repeats: int, sets: int = 1) -> List[Dict[str, Any]]:
    """``sets`` ledgers: per workload, ``repeats`` untraced repeats and three traced.

    The sets are taken together, repeat by repeat (see :func:`run_children`).
    """
    results: List[Dict[str, Any]] = [{} for _ in range(sets)]
    for name, workload in WORKLOADS.items():
        references = [
            result["read_heavy"].get("reference") if workload.shards else None for result in results
        ]
        measured = measure(name, seed, scale, (repeats, 0), (TRACED_REPEATS, 0), references)
        for result, entry in zip(results, measured):
            result[name] = entry
            print_workload(entry)
    return [
        {
            "suite": "ledger", "seed": seed, "scale": scale, "repeats": repeats,
            "host": {
                "nproc": os.cpu_count(), "python": platform.python_version(),
                "platform": platform.platform(),
                "kernel.dispatch_noop_per_s":
                    result["read_heavy"].get("per_layer", {}).get("kernel.dispatch_noop_per_s"),
            },
            "correct": all(entry["correct"] for entry in result.values()),
            "workloads": result,
        }
        for result in results
    ]


def verdict(metric: Dict[str, Any], a: Dict[str, Any], b: Dict[str, Any]) -> str:
    """``improved`` / ``unchanged`` / ``unresolved`` / ``regressed`` of B against A."""
    gain = (b["median"] - a["median"]) * (1 if metric["better"] == "higher" else -1)
    if metric["bound"] is None:  # exact: any movement is a change of behaviour
        return "unchanged" if gain == 0 else "improved" if gain > 0 else "regressed"
    base = abs(a["median"])
    if max(a["q3"] - a["q1"], b["q3"] - b["q1"]) > metric["bound"] * base:
        return "unresolved"
    if -gain > metric["bound"] * base:
        return "regressed"
    # A gain counts only beyond the spread of A's own repeats.
    return "improved" if gain > a["q3"] - a["q1"] and gain > 0 else "unchanged"


def within_bound(row: Dict[str, Any]) -> bool:
    """Whether two medians of the same code agree within the metric's bound."""
    bound = END_TO_END[row["metric"]]["bound"]
    if bound is None:
        return row["a"]["median"] == row["b"]["median"]
    return abs(row["b"]["median"] - row["a"]["median"]) <= bound * abs(row["a"]["median"])


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> List[Dict[str, Any]]:
    """One row per (workload, end-to-end metric) present on both sides."""
    rows = []
    for name, side_a in a["workloads"].items():
        side_b = b["workloads"].get(name, {})
        for metric_name, entry_a in side_a.get("end_to_end", {}).items():
            entry_b = side_b.get("end_to_end", {}).get(metric_name)
            if entry_b is None:
                continue
            rows.append({
                "workload": name, "metric": metric_name, "a": entry_a, "b": entry_b,
                "ratio_b_over_a": entry_b["median"] / entry_a["median"] if entry_a["median"]
                else None,
                "verdict": verdict(END_TO_END[metric_name], entry_a, entry_b),
            })
    return rows


def print_comparison(rows: List[Dict[str, Any]]) -> None:
    """The comparison table; the ratio's base is A."""
    print(f"{'workload':<12} {'metric':<24} {'A median [q1, q3] n':<40} "
          f"{'B median [q1, q3] n':<40} {'B/A':>7}  verdict")
    for row in rows:
        sides = [
            f"{e['median']:.5g} [{e['q1']:.5g}, {e['q3']:.5g}] {e['n']} {e['unit']}"
            for e in (row["a"], row["b"])
        ]
        ratio = "-" if row["ratio_b_over_a"] is None else f"{row['ratio_b_over_a']:.3f}"
        print(f"{row['workload']:<12} {row['metric']:<24} {sides[0]:<40} {sides[1]:<40} "
              f"{ratio:>7}  {row['verdict']}")


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def main_compare(argv: List[str]) -> int:
    """``run.py compare A.json B.json``; exit 1 if any row regressed."""
    parser = argparse.ArgumentParser(prog="run.py compare", description=main_compare.__doc__)
    parser.add_argument("a", type=pathlib.Path)
    parser.add_argument("b", type=pathlib.Path)
    args = parser.parse_args(argv)
    rows = compare(json.loads(args.a.read_text()), json.loads(args.b.read_text()))
    print_comparison(rows)
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0


def main_driver(args: argparse.Namespace) -> int:
    """One workload for ``--seconds``; last line is the driver's JSON object."""
    workload = WORKLOADS[args.workload]
    reference = None
    if workload.shards:
        (base,) = measure("read_heavy", args.seed, args.scale, (1, 0), (0, 0))
        if not base["correct"]:
            print_workload(base)
            return 1
        reference = base["reference"]
    if args.trace:
        (result,) = measure(args.workload, args.seed, args.scale,
                            (2, 0.3 * args.seconds), (2, 0.6 * args.seconds), [reference])
        values = result.get("per_layer", {})
    else:
        (result,) = measure(args.workload, args.seed, args.scale, (2, args.seconds), (0, 0),
                            [reference])
        values = {name: entry["median"] for name, entry in result.get("end_to_end", {}).items()}
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in BENCHMARK["per_layer" if args.trace else "end_to_end"]
        if m["name"] in values
    }
    print_workload(result)
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if result["correct"] else 1


def main(argv: Optional[List[str]] = None) -> int:
    """Dispatch to compare, the driver's single-workload run, or the ledger."""
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        return main_compare(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seed", type=int, default=7, help="SimulationConfig.seed (default 7)")
    parser.add_argument("--scale", default="full", choices=["full", "smoke"])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run this one workload the way the benchmark driver does")
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"],
                        help="with --workload: how long to keep repeating")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0,
                        help="with --workload: 0 end-to-end metrics, 1 per-layer metrics")
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS,
                        help="ledger: untraced repeats per workload")
    parser.add_argument("--out", type=pathlib.Path, default=RESULTS / "ledger.json",
                        help="ledger: where to write the results")
    parser.add_argument("--aa", action="store_true",
                        help="ledger: run two sets and fail unless they agree within the bounds")
    args = parser.parse_args(argv)
    if args.workload:
        return main_driver(args)

    first, *rest = ledgers(args.seed, args.scale, args.repeats, sets=2 if args.aa else 1)
    print(f"wrote {write_json(args.out, first)}")
    if not rest:
        return 0 if first["correct"] else 1
    second = rest[0]
    print(f"wrote {write_json(args.out.with_name(args.out.stem + '.second.json'), second)}")
    rows = compare(first, second)
    print_comparison(rows)
    disagree = [row for row in rows if not within_bound(row)]
    for row in disagree:
        print(f"A/A DISAGREES: {row['workload']} {row['metric']}: {row['verdict']}")
    print(f"A/A at --repeats {args.repeats}: {len(rows) - len(disagree)}/{len(rows)} rows agree")
    return 0 if first["correct"] and second["correct"] and not disagree else 1


if __name__ == "__main__":
    raise SystemExit(main())
