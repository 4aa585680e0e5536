"""One repeat of one workload in a fresh process; prints one JSON record.

``run.py`` starts this file once per repeat so that ``ru_maxrss`` belongs to
one workload and no garbage carries over between repeats.  The record holds
the repeat's timings (host seconds), the simulated statistics and their
digest, the exact counts, and — for a traced repeat — the per-layer self
times from :mod:`spans`.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import pathlib
import resource
import sys
import time
from typing import Any, Dict, List, Optional

_STARTED_AT = time.time()
_IMPORT_BEGAN = time.perf_counter()

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(pathlib.Path(__file__).resolve().parent)]

import spans  # noqa: E402
from workloads import CHECK_LEVEL, CHECK_WINDOW, WORKLOADS, Workload  # noqa: E402

from repro import workers  # noqa: E402
from repro.bench.harness import build_cluster, deploy_sessions, summarize  # noqa: E402
from repro.bench.results import result_digest  # noqa: E402
from repro.consistency import streaming  # noqa: E402
from repro.sim import sharded  # noqa: E402
from repro.sim.kernel import Simulator  # noqa: E402
from repro.sim.latency import LatencyModel  # noqa: E402
from repro.sim.trace import TraceWriter  # noqa: E402
from repro.workload.runner import SessionStats  # noqa: E402

IMPORT_S = time.perf_counter() - _IMPORT_BEGAN

#: Where the spilled event trace (removed afterwards) and the span file go.
SCRATCH = ROOT / "bench_results" / "ledger"
#: A run is timed in this many equal slices of simulated time (plus the tail
#: that summarises), each doing the same work in every repeat, so run.py can
#: take every slice from the repeat the host disturbed least.
SLICES = 512
#: Events of the no-op dispatch chain behind ``kernel.dispatch_noop_per_s``.
CALIBRATION_EVENTS = 400_000

clock = time.perf_counter


def cpu_seconds() -> float:
    """User + system CPU of this process and of the children it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime


def peak_rss_mb() -> float:
    """Largest peak RSS of this process or any reaped child (KB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, reaped) / 1024.0


def dispatch_noop_per_s() -> float:
    """Host calibration: no-op events per second through a self-posting chain."""
    sim = Simulator()
    left = [CALIBRATION_EVENTS]

    def chain() -> None:
        left[0] -= 1
        if left[0]:
            sim.post_after(1e-6, chain)

    sim.post_after(1e-6, chain)
    began = clock()
    sim.run()
    return CALIBRATION_EVENTS / (clock() - began)


def simulated(result: Any) -> Dict[str, Any]:
    """The simulated statistics the ledger reads, and the digest of all of them."""
    return {
        "digest": result_digest(result.to_dict()),
        "tx_per_sim_s": result.throughput,
        "latency_p99_ms": result.latency_p99 * 1e3,
        "ust_staleness_ms": result.ust_staleness * 1e3,
        "transactions_measured": result.transactions_measured,
        "messages_total": result.messages_total,
        "messages_inter_dc": result.messages_inter_dc,
        "metadata_bytes_total": result.metadata_bytes_total,
        "blocked_fraction": result.blocked_fraction,
    }


def start_sessions(drivers: List[Any]) -> List[Any]:
    """Start every session loop; returns the kernel processes running them.

    ``SessionDriver.start`` drops the handle ``Simulator.spawn`` returns, and
    a loop that raises only fails that handle's future, so the handles are
    collected here to count sessions that died.
    """
    processes: List[Any] = []
    spawn = Simulator.spawn

    def collecting_spawn(sim: Simulator, generator: Any, name: str = "") -> Any:
        process = spawn(sim, generator, name)
        processes.append(process)
        return process

    Simulator.spawn = collecting_spawn
    try:
        for driver in drivers:
            driver.start()
    finally:
        Simulator.spawn = spawn
    return processes


def run_single(
    workload: Workload, config: Any, recorder: Optional[spans.Recorder],
    spawned_at: float, recheck: bool, scratch: pathlib.Path,
) -> Dict[str, Any]:
    """Build, run and summarise one single-kernel repeat."""

    def phase(name: str) -> Any:
        return recorder.span(name) if recorder else contextlib.nullcontext()

    began = clock()
    sink = checker = oracle = None
    if workload.checked:
        sink = TraceWriter(scratch / f"events_{workload.name}_{os.getpid()}.jsonl")
        checker = streaming.StreamingChecker(window=CHECK_WINDOW, level=CHECK_LEVEL)
        oracle = streaming.StreamingOracle(sink=sink, checker=checker)
    with phase("harness.build"):
        cluster = build_cluster(config, protocol="paris", oracle=oracle)
        stats = SessionStats()
        drivers = deploy_sessions(cluster, stats)
        processes = start_sessions(drivers)
    if recorder:
        recorder.take_totals()  # set-up spans are not part of the run's ledger
    record: Dict[str, Any] = {"build_s": clock() - began, "setup_s": time.time() - spawned_at}

    sim = cluster.sim
    end = config.warmup + config.duration
    # Power-of-two fractions of ``end`` are exact, so the last edge is ``end``.
    edges = sorted({end * k / SLICES for k in range(1, SLICES + 1)} | {config.warmup})
    slices: List[float] = []
    cpu_began = cpu_seconds()
    began = lap = clock()
    # The root of the run: its self time is what no wrapped callable covers.
    with phase("layers.unattributed"):
        for edge in edges:
            sim.run(until=edge)
            if edge == config.warmup:
                stats.open_window(sim.now)
            slices.append(clock() - lap)
            lap += slices[-1]
        stats.close_window(sim.now)
        summarize_began = clock()
        with phase("harness.summarize"):
            result = summarize(cluster, stats)
        record["summarize_s"] = clock() - summarize_began
        if sink is not None:
            sink.close()
    record["run_wall_s"] = clock() - began
    record["slices"] = slices + [record["run_wall_s"] - sum(slices)]
    record["cpu_s"] = cpu_seconds() - cpu_began

    dead = sum(1 for process in processes if process.completed.exception is not None)
    by_type = cluster.network.metrics.by_type
    servers = cluster.all_servers()
    record.update(
        model=simulated(result),
        attempted=sum(driver.transactions_run for driver in drivers) + dead,
        failed=dead,
        counts={
            "kernel.events": sim.events_executed,
            "cpu.submits": sum(server.cpu.jobs_done for server in servers),
            "replication.heartbeats": by_type.get("HeartbeatMsg", 0),
            "replication.batches": by_type.get("ReplicateMsg", 0),
            "stabilization.msgs": sum(
                by_type.get(name, 0) for name in ("AggUpMsg", "DcGstMsg", "UstBroadcastMsg")
            ),
            "mvstore.versions_live": sum(server.store.version_count for server in servers),
            "mvstore.collected": sum(server.metrics.versions_collected for server in servers),
            "sim_seconds": sim.now,
        },
    )
    if recorder:
        record["spans"] = {"run": recorder.take_totals()}

    if checker is not None:
        counts = record["counts"]
        counts["oracle.events"] = oracle.reads_recorded + oracle.commits_recorded
        counts["checker.versions_retired"] = checker.versions_retired
        counts["checker.violations"] = len(checker.violations)
        counts["trace.writes"] = sink.count
        counts["trace.bytes"] = sink.path.stat().st_size
        record["failed"] += len(checker.violations)
        if recheck:
            began = clock()
            with phase("checker.recheck"):
                again = streaming.check_trace(sink.path, window=CHECK_WINDOW, level=CHECK_LEVEL)
            record["recheck_wall_s"] = clock() - began
            record["recheck"] = {
                "events": again.reads_checked + again.commits_checked,
                "violations": len(again.violations),
            }
            if recorder:
                record["spans"]["recheck"] = recorder.take_totals()
        sink.path.unlink()
    return record


class _TimedPipe:
    """A shard worker's pipe that notes when each of the worker's messages arrived."""

    def __init__(self, conn: Any, arrivals: List[float]) -> None:
        self._conn = conn
        self._arrivals = arrivals

    def recv(self) -> Any:
        message = self._conn.recv()
        self._arrivals.append(clock())
        return message

    def send(self, message: Any) -> None:
        self._conn.send(message)

    def close(self) -> None:
        self._conn.close()


def run_sharded(
    workload: Workload, config: Any, recorder: Optional[spans.Recorder], spawned_at: float
) -> Dict[str, Any]:
    """One repeat through ``run_sharded_experiment`` (workers are not traced).

    The call is opaque, but the parent hears from every worker at every
    barrier, in a fixed order; those arrivals cut the run into slices that do
    the same work in every repeat, like the simulated-time slices of
    :func:`run_single`.
    """
    arrivals: List[float] = []
    spawn = workers.spawn_pipe_workers

    def timed_spawn(target: Any, payloads: Any) -> List[Any]:
        return [(process, _TimedPipe(conn, arrivals)) for process, conn in spawn(target, payloads)]

    record: Dict[str, Any] = {"build_s": 0.0, "summarize_s": 0.0}
    record["setup_s"] = time.time() - spawned_at
    cpu_began = cpu_seconds()
    began = clock()
    workers.spawn_pipe_workers = timed_spawn
    try:
        with recorder.span("sharded.exchange") if recorder else contextlib.nullcontext():
            result = sharded.run_sharded_experiment(config, workload.shards, protocol="paris")
    finally:
        workers.spawn_pipe_workers = spawn
    finished = clock()
    record["run_wall_s"] = finished - began
    edges = [began] + arrivals + [finished]
    record["slices"] = [after - before for before, after in zip(edges, edges[1:])]
    record["cpu_s"] = cpu_seconds() - cpu_began

    assignment = sharded.shard_dcs(config.cluster.n_dcs, workload.shards)
    latency = LatencyModel.for_paper_deployment(
        config.cluster.n_dcs, jitter_fraction=config.latency_jitter
    )
    window = sharded.lookahead_window(latency, assignment)
    schedule = sharded.barrier_schedule(config.warmup, config.warmup + config.duration, window)
    record.update(
        model=simulated(result),
        # Worker sessions are out of reach here: a worker that fails raises
        # ShardingError and the whole repeat counts as failed in run.py.
        attempted=result.transactions_measured,
        failed=0,
        counts={"sharded.barriers": len(schedule), "sharded.window_ms": window * 1e3},
    )
    if recorder:
        record["spans"] = {"run": recorder.take_totals()}
    return record


def main(argv: Optional[List[str]] = None) -> int:
    """Run one repeat and print its record as the last line of stdout."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--scale", default="full", choices=["full", "smoke"])
    parser.add_argument("--traced", action="store_true", help="record spans (see spans.py)")
    parser.add_argument("--recheck", action="store_true",
                        help="checked workloads: re-check the spilled trace afterwards")
    parser.add_argument("--spawned-at", type=float, default=_STARTED_AT,
                        help="time.time() just before the parent started this process")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    config = workload.config(args.seed, args.scale)
    recorder = spans.Recorder() if args.traced else None
    undo: spans.Undo = []
    if recorder:
        undo = spans.install_sharded(recorder) if workload.shards else spans.install(recorder)
    try:
        if workload.shards:
            record = run_sharded(workload, config, recorder, args.spawned_at)
        else:
            record = run_single(
                workload, config, recorder, args.spawned_at, args.recheck, SCRATCH
            )
    finally:
        spans.uninstall(undo)

    record.update(
        workload=workload.name, seed=args.seed, scale=args.scale, traced=args.traced,
        import_s=IMPORT_S, peak_rss_mb=peak_rss_mb(),
    )
    if recorder:
        recorder.write(SCRATCH / f"trace_{workload.name}.json")
        record["dispatch_noop_per_s"] = dispatch_noop_per_s()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
