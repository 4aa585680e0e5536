"""Conservative time-windowed DC sharding across worker processes.

The classic conservative-PDES observation applied to this simulator: the
WAN has a hard latency floor, so a message sent to another DC can never
arrive sooner than the minimum cross-DC one-way delay ``W``.  Partition
the deployment's DCs into shards, give each shard its own event kernel,
and let every shard run ``W`` of simulated time completely independently —
any message that crosses the shard cut during a window physically cannot
be delivered until after the window's barrier.  At each barrier the shards
exchange their buffered cross-cut envelopes (already timestamped by the
sender with the *final* delivery time — jitter, degradation, retransmits
and FIFO floor included, see :mod:`repro.sim.network`) and resume.

Barrier wire protocol: a shard's network buckets each cross-cut envelope
by destination shard as a flat :data:`~repro.sim.network.Wire` tuple.  At
a barrier the worker pickles each bucket once and sends the parent
``("barrier", index, [bytes per destination shard])``; the parent only
forwards bytes — shard ``d`` receives ``[blobs[d] for blobs in
outboxes]``, in source-shard order — and the receiver decodes and merges
them (:func:`merge_inbox`).  The parent does one ``recv`` and one ``send``
per worker per barrier, whatever the traffic.

Determinism: per-DC RNG streams, sender-side delay computation, and
barrier injection ordered by ``(deliver_at, source shard, send order)``
make each shard's trajectory a function of the configuration alone, and
the merged run *byte-identical* to the single-kernel run — same
:class:`~repro.bench.harness.ExperimentResult` floats, same consistency
trace bytes after ``repro trace merge`` (pinned per protocol by
``tests/test_sharded.py``).

What cannot shard: membership fault actions (the ``membership`` scope of
:data:`~repro.faults.plan.ACTIONS`) read and write other DCs' servers in
process at the instant of the event, which falls inside a window rather
than at a barrier, so plans containing them are rejected up front
(docs/scaling.md says why).  Single-DC deployments have no cross-shard
cut and nothing to parallelise — ``repro run --shards`` requires
``N <= n_dcs``.
"""

from __future__ import annotations

import pickle
import traceback
from multiprocessing.connection import Connection
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from ..config import SimulationConfig
from .latency import LatencyModel
from .network import Wire

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..bench.harness import ExperimentResult


class ShardingError(RuntimeError):
    """A configuration cannot be sharded, or a shard worker failed."""


def shard_dcs(n_dcs: int, shards: int) -> List[List[int]]:
    """Assign DCs to shards: contiguous runs, sizes balanced within one.

    Contiguity keeps the paper's geography intact (neighbouring DC ids are
    the paper's deployment order), and the deterministic assignment makes
    shard membership a pure function of ``(n_dcs, shards)``.
    """
    if shards < 1:
        raise ShardingError(f"shards must be >= 1: {shards}")
    if shards > n_dcs:
        raise ShardingError(
            f"cannot split {n_dcs} DC(s) into {shards} shards; "
            f"--shards must be <= the DC count"
        )
    base, extra = divmod(n_dcs, shards)
    assignment: List[List[int]] = []
    start = 0
    for index in range(shards):
        size = base + (1 if index < extra else 0)
        assignment.append(list(range(start, start + size)))
        start += size
    return assignment


def lookahead_window(latency: LatencyModel, assignment: Sequence[Sequence[int]]) -> float:
    """The conservative lookahead: min base one-way latency across the cut.

    Any cross-shard message's delay is at least this (jitter multiplies
    upward, degradation and retransmits only add), so a window of this
    length can run without hearing from other shards.  Raises
    :class:`ShardingError` if the cut is empty (one shard) or a degenerate
    topology makes the lookahead nonpositive.
    """
    shard_of: Dict[int, int] = {}
    for shard, dcs in enumerate(assignment):
        for dc in dcs:
            shard_of[dc] = shard
    dcs = sorted(shard_of)
    cross = [
        latency.base_one_way(a, b)
        for a in dcs
        for b in dcs
        if a < b and shard_of[a] != shard_of[b]
    ]
    if not cross:
        raise ShardingError("no cross-shard DC pairs: need at least two shards")
    window = min(cross)
    if window <= 0.0:
        pairs = [
            (a, b)
            for a in dcs
            for b in dcs
            if a < b and shard_of[a] != shard_of[b] and latency.base_one_way(a, b) <= 0.0
        ]
        raise ShardingError(
            f"degenerate topology: zero one-way latency across the shard cut "
            f"(DC pairs {pairs}); sharding needs a positive WAN latency floor"
        )
    return window


def barrier_schedule(
    warmup: float, end: float, window: float
) -> List[Tuple[float, str]]:
    """Barrier times covering ``[0, end]`` in steps of at most ``window``.

    Returns ``(time, kind)`` pairs in ascending order.  ``"step"``
    barriers are exclusive (:meth:`Simulator.run_window`); the two anchor
    barriers — ``"open"`` at ``warmup`` and ``"close"`` at ``end`` — are
    inclusive (:meth:`Simulator.run`), mirroring the sequential harness's
    ``run(until=warmup); open_window; run(until=end); close_window`` so
    events timestamped exactly at an anchor land in the same window in
    both modes.
    """
    if window <= 0.0:
        raise ShardingError(f"window must be positive: {window}")
    if not 0.0 <= warmup <= end:
        raise ShardingError(f"need 0 <= warmup <= end: {warmup}, {end}")
    schedule: List[Tuple[float, str]] = []
    t = 0.0
    for anchor, kind in ((warmup, "open"), (end, "close")):
        while t + window < anchor:
            t += window
            schedule.append((t, "step"))
        schedule.append((anchor, kind))
        t = anchor
    return schedule


def merge_inbox(blobs: Sequence[bytes]) -> List[Wire]:
    """Decode one barrier's blobs (in source-shard order) into injection order.

    Each blob is one pickled bucket of :data:`~repro.sim.network.Wire`
    tuples in its sender's send order, or ``b""`` for an empty bucket.  The
    result is ordered by ``(deliver_at, source shard, send position)``:
    concatenating the buckets in source order and sorting stably on
    ``deliver_at`` alone leaves ties in exactly that order.
    """
    entries: List[Wire] = []
    for blob in blobs:
        if blob:
            entries.extend(pickle.loads(blob))
    entries.sort(key=itemgetter(0))
    return entries


def _shard_worker(conn: Connection, payload: Dict[str, Any]) -> None:
    """Run one DC shard to completion, exchanging envelopes at barriers.

    Module-level by the :mod:`repro.workers` contract.  Protocol per
    barrier: send ``("barrier", index, blobs)`` with one pickled bucket (or
    ``b""``) per destination shard, receive the blobs addressed to this
    shard in source-shard order, inject them in :func:`merge_inbox` order,
    continue.  Terminates with ``("done", measures)`` or ``("error",
    traceback_text)``.
    """
    # Imported here (not at module top) to keep the parent-side import of
    # this module free of the bench->sim->bench cycle at class-load time.
    from ..bench import harness

    try:
        with harness.profiled(payload["profile_path"]), harness.recording(
            payload["trace_path"]
        ) as oracle:
            cluster, stats = harness.start_cluster(
                payload["config"],
                protocol=payload["protocol"],
                oracle=oracle,
                local_dcs=payload["local_dcs"],
                shard_of=payload["shard_of"],
            )
            network = cluster.network

            def exchange(index: int) -> None:
                blobs = [
                    pickle.dumps(bucket, pickle.HIGHEST_PROTOCOL) if bucket else b""
                    for bucket in network.drain_buckets()
                ]
                conn.send(("barrier", index, blobs))
                for wire in merge_inbox(conn.recv()):
                    network.inject(wire)

            harness.drive(cluster, stats, payload["schedule"], exchange)
            measures = harness.collect_measures(cluster, stats)
        conn.send(("done", measures))
        conn.close()
    except BaseException:  # noqa: BLE001 - ship the traceback to the parent
        try:
            conn.send(("error", traceback.format_exc()))
            conn.close()
        except (OSError, ValueError):  # parent already gone
            pass


def _recv(conn: Connection, shard: int) -> Tuple[Any, ...]:
    """One message from a shard worker; EOF and errors become ShardingError."""
    try:
        message = conn.recv()
    except (EOFError, OSError) as exc:
        raise ShardingError(f"shard {shard} exited without reporting") from exc
    if message[0] == "error":
        raise ShardingError(f"shard {shard} failed:\n{message[1]}")
    return message


def _send(conn: Connection, shard: int, message: Any) -> None:
    """One message to a shard worker; a closed pipe becomes ShardingError."""
    try:
        conn.send(message)
    except (OSError, ValueError) as exc:
        raise ShardingError(f"shard {shard} exited before receiving its inbox") from exc


def run_sharded_experiment(
    config: SimulationConfig,
    shards: int,
    protocol: Optional[str] = None,
    trace_path: Optional[str] = None,
    profile_path: Optional[str] = None,
) -> "ExperimentResult":
    """Run one configuration split across ``shards`` worker processes.

    Byte-identical to :func:`repro.bench.harness.run_experiment` on the
    same configuration: the returned :class:`ExperimentResult` carries the
    same floats, and (when ``trace_path`` is given) the merged consistency
    trace written there has the same bytes as a single-kernel
    ``StreamingOracle`` trace.  Per-shard traces are left beside it as
    ``<trace_path>.shard<i>``; ``profile_path`` likewise dumps one cProfile
    per shard as ``<profile_path>.shard<i>``.
    """
    from ..bench.harness import merge_measures, summarize_measures
    from ..consistency.streaming import merge_traces
    from ..faults.plan import ACTIONS
    from ..protocols import get_protocol
    from ..workers import spawn_pipe_workers

    if protocol is None:
        protocol = config.protocol_name
    get_protocol(protocol)  # fail fast on unknown protocols, like build_cluster
    if shards < 2:
        raise ShardingError(
            f"run_sharded_experiment needs at least 2 shards (got {shards}); "
            f"use run_experiment for single-kernel runs"
        )
    if config.faults is not None:
        unshardable = sorted(
            {
                event.action
                for event in config.faults.events
                if ACTIONS[event.action].scope == "membership"
            }
        )
        if unshardable:
            raise ShardingError(
                f"fault plan contains membership actions {unshardable}, which "
                f"read other shards' stores at the event's instant (docs/scaling.md, "
                f"'Why membership plans do not shard'); run without --shards"
            )
    assignment = shard_dcs(config.cluster.n_dcs, shards)
    window = lookahead_window(config.latency_model(), assignment)
    schedule = barrier_schedule(config.warmup, config.warmup + config.duration, window)
    shard_of = [0] * config.cluster.n_dcs
    for index, dcs in enumerate(assignment):
        for dc in dcs:
            shard_of[dc] = index

    payloads = [
        {
            "config": config,
            "protocol": protocol,
            "shard": index,
            "local_dcs": dcs,
            "shard_of": shard_of,
            "schedule": schedule,
            "trace_path": f"{trace_path}.shard{index}" if trace_path else None,
            "profile_path": f"{profile_path}.shard{index}" if profile_path else None,
        }
        for index, dcs in enumerate(assignment)
    ]
    workers = spawn_pipe_workers(_shard_worker, payloads)
    try:
        for index in range(len(schedule)):
            outboxes = []
            for shard, (_, conn) in enumerate(workers):
                message = _recv(conn, shard)
                if message[0] != "barrier" or message[1] != index:
                    raise ShardingError(
                        f"shard {shard} desynchronised at barrier {index}: {message[:2]}"
                    )
                outboxes.append(message[2])
            for shard, (_, conn) in enumerate(workers):
                _send(conn, shard, [outbox[shard] for outbox in outboxes])
        measures = []
        for shard, (_, conn) in enumerate(workers):
            message = _recv(conn, shard)
            if message[0] != "done":
                raise ShardingError(f"shard {shard} sent {message[0]!r}, expected done")
            measures.append(message[1])
    except BaseException:
        # A forked worker holds inherited copies of the parent's pipe ends,
        # so closing them does not wake a survivor blocked on its inbox:
        # stop every worker now instead of waiting out the join timeout.
        for process, _ in workers:
            process.terminate()
        raise
    finally:
        for process, conn in workers:
            conn.close()
            process.join(timeout=5)
            if process.is_alive():  # pragma: no cover - hung worker cleanup
                process.terminate()
                process.join(timeout=5)
    result = summarize_measures(config, protocol, merge_measures(measures))
    if trace_path is not None:
        merge_traces([payload["trace_path"] for payload in payloads], trace_path)
    return result
