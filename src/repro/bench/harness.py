"""Experiment harness: build a cluster, drive a workload, collect results.

The harness mirrors the paper's methodology (Section V-A):

* servers for every partition replica, clients co-located with the
  coordinator partition they use, one client process per partition per DC;
* closed-loop load driven by a configurable number of threads per client;
* a warmup period (UST convergence) followed by a measurement window;
* throughput = committed transactions per simulated second in the window,
  latency = transaction start-to-finish inside the window.

Every run — CLI, sweep, served, replayed, figure, shard worker — is the
same three pieces: :func:`start_cluster`, :func:`drive` over a ``(time,
kind)`` schedule, and the :func:`recording` / :func:`profiled` contexts;
:func:`run_recorded` is the one entry point that combines them all.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Type

from ..clocks.hlc import timestamp_to_seconds
from ..cluster.membership import Membership
from ..cluster.topology import ClusterSpec
from ..config import SimulationConfig
from ..consistency.streaming import StreamingChecker, StreamingOracle, read_events
from ..core.client import PaRiSClient
from ..faults.engine import FaultInjector
from ..protocols import get_protocol
from ..protocols.engine import ProtocolServer
from ..sim.kernel import Simulator
from ..sim.network import Network
from ..sim.rng import RngRegistry
from ..sim.stats import mean_cdf, percentile
from ..sim.trace import TraceWriter
from ..workload.generator import WorkloadGenerator, dataset_keys
from ..workload.runner import SessionDriver, SessionStats
from .runner import PathLike

#: Initial value installed for every preloaded key.
PRELOAD_VALUE = "init"


@dataclass
class Cluster:
    """A fully wired simulated deployment."""

    sim: Simulator
    network: Network
    spec: ClusterSpec
    config: SimulationConfig
    rngs: RngRegistry
    protocol: str
    servers: Dict[Tuple[int, int], ProtocolServer]
    #: Live placement shared by every server and client; membership events
    #: from the fault plane mutate it mid-run.
    membership: Optional[Membership] = None
    oracle: Optional[StreamingOracle] = None
    #: Set when the configuration carries a fault plan (see repro.faults).
    injector: Optional[FaultInjector] = None
    clients: List[PaRiSClient] = field(default_factory=list)
    drivers: List[SessionDriver] = field(default_factory=list)
    #: When this process simulates only a DC shard (repro.sim.sharded): the
    #: DCs whose servers/clients exist here.  None for a whole-cluster build.
    local_dcs: Optional[frozenset] = None
    _client_counters: Dict[Tuple[int, int], int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.membership is None:
            self.membership = Membership(self.spec)

    def server(self, dc_id: int, partition: int) -> ProtocolServer:
        """The replica of ``partition`` hosted in ``dc_id``."""
        return self.servers[(dc_id, partition)]

    def all_servers(self) -> List[ProtocolServer]:
        """All partition servers of the deployment."""
        return list(self.servers.values())

    def min_ust(self) -> int:
        """The smallest UST across *member* servers (stable snapshot bound).

        Servers retired by a membership change stay in the registry (they
        are reused on rejoin) but their frozen UST no longer bounds the
        deployment's stable snapshot.
        """
        membership = self.membership
        return min(
            server.ust
            for (dc_id, partition), server in self.servers.items()
            if membership.is_replicated_at(partition, dc_id)
        )

    def ust_staleness(self) -> float:
        """Seconds between now and the oldest server's UST (data staleness)."""
        return self.sim.now - timestamp_to_seconds(self.min_ust())

    def crash_server(self, dc_id: int, partition: int) -> None:
        """Fail-stop one replica (see :meth:`repro.protocols.engine.ProtocolServer.crash`).

        Models Section III-C: durable state (store, 2PC logs, own watermark)
        survives, volatile state is dropped, and peers (TCP) retransmit — but
        the UST stalls system-wide until the server recovers, because it is
        computed as a global minimum.
        """
        self.server(dc_id, partition).crash()

    def recover_server(self, dc_id: int, partition: int) -> None:
        """Bring a crashed replica back: replay durable state, drain backlog."""
        self.server(dc_id, partition).recover()

    def client_class(self) -> Type[PaRiSClient]:
        """The client class matching this cluster's protocol."""
        return get_protocol(self.protocol).client_cls

    def new_client(
        self,
        dc_id: int,
        coordinator_partition: int,
        client_index: Optional[int] = None,
    ) -> PaRiSClient:
        """Create (and register) one client session against a coordinator.

        ``client_index`` defaults to the next free index for that coordinator,
        so repeated calls never collide on a network address.
        """
        if client_index is None:
            key = (dc_id, coordinator_partition)
            client_index = self._client_counters.get(key, 0)
            self._client_counters[key] = client_index + 1
        client = self.client_class()(
            network=self.network,
            spec=self.spec,
            config=self.config,
            dc_id=dc_id,
            coordinator_partition=coordinator_partition,
            client_index=client_index,
            oracle=self.oracle,
            membership=self.membership,
        )
        self.clients.append(client)
        return client


def build_cluster(
    config: SimulationConfig,
    protocol: Optional[str] = None,
    oracle: Optional[StreamingOracle] = None,
    preload: bool = True,
    local_dcs: Optional[Iterable[int]] = None,
    shard_of: Sequence[int] = (),
) -> Cluster:
    """Construct servers, network and (optionally) the preloaded dataset.

    ``protocol`` is a registered protocol name (see ``repro protocols``);
    omitted, it defaults to the configuration's ``protocol_name``.

    ``local_dcs`` restricts the build to one DC shard: only servers and
    preloads of those DCs are materialised, and the network buffers sends
    to the other DCs, bucketed by their shard in ``shard_of`` (DC id ->
    shard), for the shard runner's barrier exchange (see
    :mod:`repro.sim.sharded`).  The cluster spec, membership, and fault
    validation still cover the whole deployment.
    """
    if protocol is None:
        protocol = config.protocol_name
    server_cls = get_protocol(protocol).server_cls
    sim = Simulator()
    rngs = RngRegistry(config.seed)
    network = Network(sim, config.latency_model(), rngs)

    servers: Dict[Tuple[int, int], ProtocolServer] = {}
    spec = config.cluster
    membership = Membership(spec)
    empty_dcs = [dc for dc in range(spec.n_dcs) if not spec.dc_partitions(dc)]
    if empty_dcs:
        raise ValueError(
            f"DCs {empty_dcs} host no partitions (need n_partitions >= n_dcs); "
            f"got {spec.n_partitions} partitions over {spec.n_dcs} DCs"
        )
    local: Optional[frozenset] = None
    if local_dcs is not None:
        local = frozenset(local_dcs)
        invalid = sorted(dc for dc in local if not 0 <= dc < spec.n_dcs)
        if invalid:
            raise ValueError(f"local_dcs outside the deployment: {invalid}")
        network.enable_shard_routing(local, shard_of)
    for dc_id in range(spec.n_dcs):
        if local is not None and dc_id not in local:
            continue
        for partition in spec.dc_partitions(dc_id):
            servers[(dc_id, partition)] = server_cls(
                network=network,
                spec=spec,
                config=config,
                dc_id=dc_id,
                partition=partition,
                rngs=rngs,
                membership=membership,
            )

    if preload:
        for partition in range(spec.n_partitions):
            keys = dataset_keys(spec, config.workload, partition)
            for dc_id in spec.replica_dcs(partition):
                if local is not None and dc_id not in local:
                    continue
                server = servers[(dc_id, partition)]
                for key in keys:
                    server.preload(key, PRELOAD_VALUE)

    for server in servers.values():
        server.start()

    cluster = Cluster(
        sim=sim,
        network=network,
        spec=spec,
        config=config,
        rngs=rngs,
        protocol=protocol,
        servers=servers,
        membership=membership,
        oracle=oracle,
        local_dcs=local,
    )
    if config.faults is not None:
        cluster.injector = FaultInjector(cluster)
        cluster.injector.install(config.faults)
    return cluster


#: Scale of the per-session start stagger (seconds).  Each session begins
#: its closed loop after a deterministic delay in [0, this): sub-microsecond
#: — invisible next to the 125us LAN hop — but enough to de-phase sessions
#: in different DCs, whose otherwise lock-stepped local transactions would
#: complete at *exactly* equal floats on the constant LAN-latency lattice.
#: With the stagger, cross-DC event-time ties are measure-zero, which is
#: what makes the sharded runner's barrier-merge order (and the merged
#: consistency trace) reproduce the single-kernel interleaving exactly.
SESSION_STAGGER = 1e-6


def deploy_sessions(cluster: Cluster, stats: SessionStats) -> List[SessionDriver]:
    """One client process per partition per DC, ``threads_per_client`` each."""
    spec = cluster.spec
    workload = cluster.config.workload
    drivers: List[SessionDriver] = []
    sim = cluster.sim

    def clock() -> float:
        """Simulated time feed for time-dependent key distributions."""
        return sim.now

    for dc_id in range(spec.n_dcs):
        if cluster.local_dcs is not None and dc_id not in cluster.local_dcs:
            continue
        for partition in spec.dc_partitions(dc_id):
            for thread in range(workload.threads_per_client):
                client = cluster.new_client(dc_id, partition, client_index=thread)
                generator = WorkloadGenerator(
                    spec,
                    workload,
                    dc_id,
                    cluster.rngs.stream(f"workload.d{dc_id}.p{partition}.t{thread}"),
                    clock=clock,
                )
                stagger = cluster.rngs.stream(
                    f"stagger.d{dc_id}.p{partition}.t{thread}"
                ).random() * SESSION_STAGGER
                driver = SessionDriver(client, generator, stats, initial_delay=stagger)
                drivers.append(driver)
    cluster.drivers = drivers
    return drivers


@dataclass
class ExperimentResult:
    """Everything a paper figure needs from one run."""

    protocol: str
    threads_per_client: int
    sessions: int
    #: Committed + finished transactions per simulated second in the window.
    throughput: float
    latency_mean: float
    latency_p50: float
    latency_p95: float
    latency_p99: float
    transactions_measured: int
    multi_dc_fraction: float
    #: Mean time blocked per *blocked* read slice (0 for PaRiS).
    blocking_mean: float
    blocking_p99: float
    #: Blocked slices / total slices served.
    blocked_fraction: float
    #: Mean blocking time amortised over every transaction's read phase.
    read_phase_blocking: float
    #: Figure 4 curve: (visibility seconds, CDF fraction) pairs.
    visibility_cdf: List[Tuple[float, float]] = field(default_factory=list)
    visibility_mean: float = 0.0
    visibility_p99: float = 0.0
    ust_staleness: float = 0.0
    messages_total: int = 0
    messages_inter_dc: int = 0
    mean_cpu_utilization: float = 0.0
    #: Wire bytes spent on causal metadata (snapshots, vectors, dep lists).
    metadata_bytes_total: int = 0
    #: Stale-read retry rounds across all clients (occult only; 0 elsewhere).
    read_retries_total: int = 0

    @property
    def latency_mean_ms(self) -> float:
        """Mean transaction latency in milliseconds."""
        return self.latency_mean * 1000.0

    @property
    def throughput_ktx(self) -> float:
        """Throughput in thousands of transactions per second."""
        return self.throughput / 1000.0

    def to_dict(self) -> Dict[str, object]:
        """A JSON-serialisable view (CDF curves become value/fraction lists)."""
        from dataclasses import asdict

        data = asdict(self)
        data["visibility_cdf"] = [
            {"seconds": value, "fraction": fraction}
            for value, fraction in self.visibility_cdf
        ]
        return data

    def to_json(self, indent: int = 2) -> str:
        """Serialise to JSON (for dashboards / downstream tooling)."""
        import json

        return json.dumps(self.to_dict(), indent=indent)


def start_cluster(
    config: SimulationConfig,
    protocol: Optional[str] = None,
    oracle: Optional[StreamingOracle] = None,
    local_dcs: Optional[Iterable[int]] = None,
    shard_of: Sequence[int] = (),
) -> Tuple[Cluster, SessionStats]:
    """Build a cluster, deploy its sessions and start every one of them.

    The cluster sits at simulated time zero with its closed loops scheduled;
    :func:`drive` (or the caller's own ``cluster.sim.run``) advances it.
    """
    cluster = build_cluster(
        config, protocol=protocol, oracle=oracle, local_dcs=local_dcs, shard_of=shard_of
    )
    stats = SessionStats()
    for driver in deploy_sessions(cluster, stats):
        driver.start()
    return cluster, stats


def drive(
    cluster: Cluster,
    stats: SessionStats,
    schedule: Iterable[Tuple[float, str]],
    exchange: Optional[Callable[[int], None]] = None,
) -> None:
    """Advance a started cluster over a ``(time, kind)`` schedule.

    ``"open"`` and ``"close"`` run up to and including their time and then
    open / close the measurement window; ``"step"`` runs up to but excluding
    it (a shard's lookahead barrier, see
    :func:`repro.sim.sharded.barrier_schedule`).  ``exchange(index)`` runs
    after each entry's events and before its window edge: a shard swaps its
    cross-cut envelopes with the other shards there.
    """
    sim = cluster.sim
    for index, (until, kind) in enumerate(schedule):
        if kind == "step":
            sim.run_window(until)
        else:
            sim.run(until=until)
        if exchange is not None:
            exchange(index)
        if kind == "open":
            stats.open_window(sim.now)
        elif kind == "close":
            stats.close_window(sim.now)


@contextlib.contextmanager
def recording(
    trace_out: Optional[PathLike] = None, checker: Optional[StreamingChecker] = None
) -> Iterator[Optional[StreamingOracle]]:
    """The oracle that feeds ``checker`` and spills to ``trace_out``.

    Every event the oracle records goes to ``checker`` (judged inline) and,
    with ``trace_out``, to a JSONL trace closed when the block exits.  With
    neither there is nothing to record and the oracle is ``None``.
    """
    sink = TraceWriter(trace_out) if trace_out is not None else None
    try:
        recorded = sink is not None or checker is not None
        yield StreamingOracle(sink=sink, checker=checker) if recorded else None
    finally:
        if sink is not None:
            sink.close()


@contextlib.contextmanager
def profiled(path: Optional[PathLike]) -> Iterator[None]:
    """Dump a cProfile of the enclosed block to ``path``; a no-op without one."""
    if not path:
        yield
        return
    import cProfile

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        yield
    finally:
        profiler.disable()
    profiler.dump_stats(path)


def run_cluster(
    config: SimulationConfig,
    protocol: Optional[str] = None,
    oracle: Optional[StreamingOracle] = None,
) -> Tuple[Cluster, ExperimentResult]:
    """:func:`run_experiment`, also handing back the finished cluster.

    For callers that read the cluster after the run (kernel event count,
    per-server CPU counters) and not only the summary.
    """
    cluster, stats = start_cluster(config, protocol=protocol, oracle=oracle)
    end = config.warmup + config.duration
    drive(cluster, stats, [(config.warmup, "open"), (end, "close")])
    return cluster, summarize(cluster, stats)


def run_experiment(
    config: SimulationConfig,
    protocol: Optional[str] = None,
    oracle: Optional[StreamingOracle] = None,
) -> ExperimentResult:
    """Build, warm up, measure, and summarise one configuration."""
    return run_cluster(config, protocol=protocol, oracle=oracle)[1]


def run_recorded(
    config: SimulationConfig,
    protocol: Optional[str] = None,
    *,
    trace_out: Optional[PathLike] = None,
    checker: Optional[StreamingChecker] = None,
    shards: int = 1,
    profile: Optional[PathLike] = None,
) -> ExperimentResult:
    """:func:`run_experiment` with its consistency events recorded.

    The one entry point that combines :func:`recording`, :func:`profiled`
    and the sharded runner: ``repro run`` (whose ``--big`` is the CLI's one
    checked run), the serve tier and ``repro replay`` all come through here, which is what makes a
    replayed trace comparable to the recorded one byte for byte.

    With ``shards > 1`` the DCs run on that many worker processes
    (:func:`repro.sim.sharded.run_sharded_experiment`; one profile per
    shard, ``<profile>.shard<i>``).  Each shard spills its own events; the
    merged, commit-time-ordered trace then feeds ``checker`` exactly as the
    live single-kernel stream would (same bytes, so same counters and
    verdict), from a scratch file when the caller keeps no ``trace_out``.
    """
    if shards == 1:
        with profiled(profile), recording(trace_out, checker) as oracle:
            return run_experiment(config, protocol=protocol, oracle=oracle)

    import os
    import tempfile

    from ..sim.sharded import run_sharded_experiment

    with contextlib.ExitStack() as stack:
        merged = trace_out
        if checker is not None and merged is None:
            scratch = stack.enter_context(
                tempfile.TemporaryDirectory(prefix="repro-big-")
            )
            merged = os.path.join(scratch, "trace.jsonl")
        result = run_sharded_experiment(
            config, shards, protocol=protocol, trace_path=merged, profile_path=profile
        )
        if checker is not None:
            checker.run(read_events(merged))
    return result


def summarize(cluster: Cluster, stats: SessionStats) -> ExperimentResult:
    """Reduce a finished run into an :class:`ExperimentResult`."""
    return summarize_measures(
        cluster.config, cluster.protocol, collect_measures(cluster, stats)
    )


def collect_measures(cluster: Cluster, stats: SessionStats) -> Dict[str, Any]:
    """Extract everything :func:`summarize_measures` needs, as plain data.

    The measures dict is picklable and shard-mergeable: per-server sample
    lists are keyed by ``(dc_id, partition)`` so shards' disjoint
    contributions reassemble in one canonical order, counters are plain
    ints, and nothing references live simulation objects.
    """
    per_server: Dict[Tuple[int, int], Dict[str, Any]] = {}
    elapsed = cluster.sim.now
    for (dc_id, partition), server in cluster.servers.items():
        per_server[(dc_id, partition)] = {
            "blocking": list(server.metrics.blocking),
            "read_slices": server.metrics.read_slices_served,
            "visibility": list(server.metrics.visibility),
            "utilization": server.cpu.utilization(elapsed),
        }
    return {
        "sessions": len(cluster.drivers),
        "latency_samples": list(stats.latency),
        "completed_in_window": stats.completed_in_window,
        "window_start": stats.window_start,
        "window_end": stats.window_end,
        "multi_dc_count": stats.multi_dc_count,
        "servers": per_server,
        "now": cluster.sim.now,
        "min_ust": cluster.min_ust(),
        "messages_total": cluster.network.metrics.messages_total,
        "messages_inter_dc": cluster.network.metrics.messages_inter_dc,
        "metadata_bytes_total": cluster.network.metrics.metadata_bytes_total,
        "read_retries_total": sum(client.read_retries for client in cluster.clients),
    }


#: Measure keys merged by plain integer addition across shards.
_SUMMED_MEASURES = (
    "sessions",
    "completed_in_window",
    "multi_dc_count",
    "messages_total",
    "messages_inter_dc",
    "metadata_bytes_total",
    "read_retries_total",
)


def merge_measures(parts: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold per-shard measures into one whole-deployment measures dict.

    Every summary statistic is recomputed from the merged raw data by
    :func:`summarize_measures`, so a merged sharded run summarises
    byte-identically to the equivalent single-kernel run: counters add,
    disjoint per-server maps union, latency samples concatenate (their
    reductions are order-independent), window anchors and the final clock
    agree across shards by the barrier discipline, and the UST bound is
    the min over shards' minima.
    """
    if not parts:
        raise ValueError("merge_measures needs at least one shard's measures")
    merged = dict(parts[0])
    merged["latency_samples"] = list(parts[0]["latency_samples"])
    merged["servers"] = dict(parts[0]["servers"])
    for part in parts[1:]:
        for key in _SUMMED_MEASURES:
            merged[key] += part[key]
        merged["latency_samples"].extend(part["latency_samples"])
        overlap = merged["servers"].keys() & part["servers"].keys()
        if overlap:
            raise ValueError(f"shards overlap on servers: {sorted(overlap)}")
        merged["servers"].update(part["servers"])
        merged["now"] = max(merged["now"], part["now"])
        merged["min_ust"] = min(merged["min_ust"], part["min_ust"])
    return merged


def summarize_measures(
    config: SimulationConfig, protocol: str, measures: Dict[str, Any]
) -> ExperimentResult:
    """Reduce a measures dict into an :class:`ExperimentResult`.

    Per-server data is consumed in sorted ``(dc_id, partition)`` order and
    the latency mean uses :func:`math.fsum` (exactly rounded, hence
    independent of sample order), so a single-kernel run and a merged
    sharded run of the same configuration produce identical floats.
    """
    samples = measures["latency_samples"]
    if samples:
        latency_mean = math.fsum(samples) / len(samples)
        latency_p50 = percentile(samples, 0.50)
        latency_p95 = percentile(samples, 0.95)
        latency_p99 = percentile(samples, 0.99)
    else:
        latency_mean = latency_p50 = latency_p95 = latency_p99 = 0.0

    server_keys = sorted(measures["servers"])
    servers = [measures["servers"][key] for key in server_keys]
    blocking_samples: List[float] = []
    total_slices = 0
    for server in servers:
        blocking_samples.extend(server["blocking"])
        total_slices += server["read_slices"]
    blocked = len(blocking_samples)
    blocking_mean = math.fsum(blocking_samples) / blocked if blocked else 0.0
    blocking_p99 = percentile(blocking_samples, 0.99) if blocked else 0.0
    measured = measures["completed_in_window"]

    visibility_curve: List[Tuple[float, float]] = []
    visibility_mean = 0.0
    visibility_p99 = 0.0
    if config.visibility_sample_rate > 0.0:
        per_server = [server["visibility"] for server in servers]
        visibility_curve = mean_cdf(per_server, n_points=100)
        flat = [sample for samples_ in per_server for sample in samples_]
        if flat:
            visibility_mean = math.fsum(flat) / len(flat)
            visibility_p99 = percentile(flat, 0.99)

    utilizations = [server["utilization"] for server in servers]

    window_start = measures["window_start"]
    window_end = measures["window_end"]
    throughput = 0.0
    if window_start is not None and window_end is not None:
        window = window_end - window_start
        if window > 0:
            throughput = measured / window

    return ExperimentResult(
        protocol=protocol,
        threads_per_client=config.workload.threads_per_client,
        sessions=measures["sessions"],
        throughput=throughput,
        latency_mean=latency_mean,
        latency_p50=latency_p50,
        latency_p95=latency_p95,
        latency_p99=latency_p99,
        transactions_measured=measured,
        multi_dc_fraction=measures["multi_dc_count"] / measured if measured else 0.0,
        blocking_mean=blocking_mean,
        blocking_p99=blocking_p99,
        blocked_fraction=blocked / total_slices if total_slices else 0.0,
        read_phase_blocking=math.fsum(blocking_samples) / measured if measured else 0.0,
        visibility_cdf=visibility_curve,
        visibility_mean=visibility_mean,
        visibility_p99=visibility_p99,
        ust_staleness=measures["now"] - timestamp_to_seconds(measures["min_ust"]),
        messages_total=measures["messages_total"],
        messages_inter_dc=measures["messages_inter_dc"],
        mean_cpu_utilization=math.fsum(utilizations) / len(utilizations) if utilizations else 0.0,
        metadata_bytes_total=measures["metadata_bytes_total"],
        read_retries_total=measures["read_retries_total"],
    )
