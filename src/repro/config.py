"""All tunables of the reproduction, grouped by subsystem.

Defaults reproduce the paper's default configuration (Section V-A):

* 5 DCs (Virginia, Oregon, Ireland, Mumbai, Sydney), 45 partitions,
  replication factor 2 — hence 18 machines per DC;
* stabilization protocols every 5 ms;
* YCSB-style transactions of 20 operations (19 r / 1 w for the 95:5 mix),
  4 partitions per transaction, zipfian key choice with theta 0.99,
  8-byte items, 95:5 local-DC:multi-DC ratio;
* closed-loop clients co-located with coordinator partitions.

The service-cost model stands in for the paper's c5.xlarge servers (4 vCPUs);
absolute throughput therefore differs from the paper, but relative behaviour
(saturation, blocking overheads, scaling) is preserved.  See
docs/architecture.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Optional, Tuple

from .cluster.topology import ClusterSpec
from .faults.plan import FaultPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .sim.latency import LatencyModel


@dataclass(frozen=True)
class ProtocolConfig:
    """Periods of the background protocols (seconds)."""

    #: Delta_R — how often committed transactions are applied & replicated.
    replication_interval: float = 0.002
    #: Delta_G — intra-DC GST aggregation period ("every 5 milliseconds").
    gst_interval: float = 0.005
    #: Delta_U — UST computation/broadcast period at the DC roots.
    ust_interval: float = 0.005
    #: Fanout of the intra-DC stabilization tree.
    tree_fanout: int = 2
    #: How often servers garbage-collect old versions.
    gc_interval: float = 0.5
    #: Idle transaction contexts are dropped after this long (client failures).
    tx_context_timeout: float = 10.0

    def __post_init__(self) -> None:
        for name in ("replication_interval", "gst_interval", "ust_interval", "gc_interval"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.tree_fanout < 1:
            raise ValueError("tree_fanout must be >= 1")


@dataclass(frozen=True)
class ServiceModel:
    """CPU costs (seconds) charged per inbound message on a server.

    Calibrated to small-item KV operations on a 4-core server; the blocking
    overhead models the scheduler/synchronisation work BPR pays to park and
    wake a blocked read, which the paper identifies as the cause of BPR's
    lower saturation throughput (Section V-B).
    """

    cores: int = 4
    #: Fixed cost of receiving and dispatching any message.
    base_cost: float = 100e-6
    #: Added per key in a read slice.
    per_key_read: float = 5e-6
    #: Added per key in a prepare / replicated update.
    per_key_write: float = 8e-6
    #: Extra CPU burned each time a read parks, and again when it wakes (BPR).
    block_overhead: float = 25e-6

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ValueError("cores must be >= 1")
        for name in ("base_cost", "per_key_read", "per_key_write", "block_overhead"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


@dataclass(frozen=True)
class ClockConfig:
    """Clock skew bounds (NTP regime) and the timestamping mode.

    ``mode`` selects how servers generate timestamps: ``"hlc"`` (the paper's
    choice, hybrid logical clocks) or ``"logical"`` (pure Lamport clocks, the
    strawman Section III-B argues against — kept for the clock ablation).
    """

    max_offset: float = 0.001
    max_drift: float = 1e-5
    mode: str = "hlc"

    def __post_init__(self) -> None:
        if self.max_offset < 0 or self.max_drift < 0:
            raise ValueError("clock bounds must be non-negative")
        if self.mode not in ("hlc", "logical"):
            raise ValueError(f"clock mode must be 'hlc' or 'logical': {self.mode!r}")


@dataclass(frozen=True)
class ReconfigConfig:
    """Membership-change (elastic reconfiguration) behaviour.

    Governs how the fault plane executes ``add_replica`` / ``remove_replica``
    / ``add_dc`` / ``remove_dc`` events: joins migrate a snapshot from a
    donor replica before the joiner serves traffic; leaves drain in-flight
    transactions for ``drain_delay`` seconds before teardown.
    """

    #: Seconds a departing replica keeps serving while clients re-route and
    #: in-flight transactions finish before it is torn down.
    drain_delay: float = 0.25
    #: Negative-test knob: skip the snapshot catch-up when a replica joins,
    #: so the joiner serves stale state — exactly the fracture the
    #: consistency checkers must catch.  Never enable outside tests.
    skip_catchup: bool = False

    def __post_init__(self) -> None:
        if self.drain_delay < 0:
            raise ValueError("drain_delay must be non-negative")


#: The run repository's default root, relative to the working directory:
#: ``repro run --save``, ``sweep``, ``runs``, ``replay``, ``serve`` and the
#: ``design_space`` figure all read and write here (docs/serving.md).
DEFAULT_REPO_DIR = "results"


@dataclass(frozen=True)
class ServeConfig:
    """The ``repro serve`` front door (see docs/serving.md).

    Bounds the HTTP serving layer: where the run repository lives, where the
    socket binds, and — the important knob — how many simulations may execute
    concurrently.  Each accepted job occupies one slot of a bounded worker
    pool, so any number of HTTP clients can submit work without
    oversubscribing the machine; excess jobs queue in submission order.
    """

    #: Run-repository root the app persists into (docs/serving.md).
    results_dir: str = DEFAULT_REPO_DIR
    #: Bind address.  Loopback by default: the app has no auth layer, so
    #: exposing it beyond the machine is an explicit decision.
    host: str = "127.0.0.1"
    #: TCP port (0 picks a free ephemeral port, used by tests).
    port: int = 8008
    #: Concurrently executing jobs (runs/sweeps/replays).  Sweep jobs asking
    #: for process parallelism are clamped to this bound too.
    workers: int = 2

    def __post_init__(self) -> None:
        if not self.results_dir:
            raise ValueError("results_dir must be non-empty")
        if not 0 <= self.port <= 65535:
            raise ValueError(f"port must be in [0, 65535]: {self.port}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


@dataclass(frozen=True)
class WorkloadConfig:
    """YCSB-style transactional workload (Section V-A)."""

    #: Reads per transaction (19:1 is the paper's 95:5 mix).
    reads_per_tx: int = 19
    #: Writes per transaction.
    writes_per_tx: int = 1
    #: Distinct partitions each transaction touches.
    partitions_per_tx: int = 4
    #: Probability that a transaction is local-DC (vs multi-DC).
    locality: float = 0.95
    #: Zipfian skew for key choice within a partition (YCSB default).
    zipf_theta: float = 0.99
    #: Keys stored per partition.
    keys_per_partition: int = 200
    #: Item payload size in bytes (paper: 8-byte items).
    value_size: int = 8
    #: Closed-loop threads per client process (one process per server).
    threads_per_client: int = 4
    #: Named workload profile (see repro.workload.profiles).  ``"default"``
    #: reproduces the pre-profile behaviour: static zipfian keys, constant
    #: value size, closed-loop arrivals, mix taken from the fields above.
    #: Other profiles additionally select key distributions (latest-biased,
    #: shifting hotspot), RMW semantics, value-size distributions, and
    #: arrival schedules, resolved by name at generator construction.
    profile: str = "default"

    def __post_init__(self) -> None:
        if self.reads_per_tx < 0 or self.writes_per_tx < 0:
            raise ValueError("operation counts must be non-negative")
        if self.reads_per_tx + self.writes_per_tx == 0:
            raise ValueError("transactions must perform at least one operation")
        if self.partitions_per_tx < 1:
            raise ValueError("partitions_per_tx must be >= 1")
        if not 0.0 <= self.locality <= 1.0:
            raise ValueError("locality must be in [0, 1]")
        if not 0.0 <= self.zipf_theta < 1.0:
            raise ValueError("zipf_theta must be in [0, 1)")
        if self.keys_per_partition < 1:
            raise ValueError("keys_per_partition must be >= 1")
        if self.threads_per_client < 1:
            raise ValueError("threads_per_client must be >= 1")
        # Late import: profiles only needs dataclasses, so there is no cycle,
        # but keeping it out of module scope lets config load first.
        from .workload.profiles import is_registered, profile_names

        if not is_registered(self.profile):
            raise ValueError(
                f"unknown workload profile {self.profile!r}; "
                f"registered: {profile_names()}"
            )

    @classmethod
    def read_heavy(cls, **overrides) -> "WorkloadConfig":
        """The paper's 95:5 read:write mix (YCSB B-like), 20 ops per tx."""
        return cls(reads_per_tx=19, writes_per_tx=1, **overrides)

    @classmethod
    def write_heavy(cls, **overrides) -> "WorkloadConfig":
        """The paper's 50:50 read:write mix (YCSB A-like), 20 ops per tx."""
        return cls(reads_per_tx=10, writes_per_tx=10, **overrides)

    @property
    def ops_per_tx(self) -> int:
        """Total operations per transaction."""
        return self.reads_per_tx + self.writes_per_tx


#: The paper's named read:write mixes: the values of ``repro run --mix`` and
#: of the ``mix`` run parameter.
MIXES = {
    "95:5": WorkloadConfig.read_heavy,
    "50:50": WorkloadConfig.write_heavy,
}


def mix_workload(mix: str) -> WorkloadConfig:
    """The workload of one of the paper's named read:write mixes."""
    if mix not in MIXES:
        raise ValueError(f"unknown mix {mix!r}; use one of {', '.join(MIXES)}")
    return MIXES[mix]()


@dataclass(frozen=True)
class SimulationConfig:
    """Top-level experiment description."""

    cluster: ClusterSpec = field(
        default_factory=lambda: ClusterSpec(n_dcs=5, n_partitions=45, replication_factor=2)
    )
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    protocol: ProtocolConfig = field(default_factory=ProtocolConfig)
    service: ServiceModel = field(default_factory=ServiceModel)
    clocks: ClockConfig = field(default_factory=ClockConfig)
    #: Jitter applied to WAN latency samples.
    latency_jitter: float = 0.05
    #: Root seed for all random streams.
    seed: int = 1
    #: Simulated seconds before measurement starts (UST must converge).
    warmup: float = 1.5
    #: Simulated seconds of the measurement window.
    duration: float = 2.0
    #: Fraction of committed transactions probed for visibility latency.
    visibility_sample_rate: float = 0.0
    #: Deterministic fault schedule applied during the run (None = healthy).
    faults: Optional[FaultPlan] = None
    #: Membership-change behaviour (drain window, negative-test knobs).
    reconfig: ReconfigConfig = field(default_factory=ReconfigConfig)
    #: Named cloud regions hosting the DCs, indexed by DC id (length must
    #: equal ``cluster.n_dcs``).  None keeps the paper deployment: the
    #: first ``n_dcs`` regions of the 10-region RTT matrix.
    regions: Optional[Tuple[str, ...]] = None
    #: Registered protocol the experiment runs (see repro.protocols); entry
    #: points may override it with an explicit ``protocol=`` argument.
    protocol_name: str = "paris"

    def __post_init__(self) -> None:
        # Chained comparisons so that NaN, which compares false, is refused too.
        if not (0 <= self.warmup < math.inf and 0 < self.duration < math.inf):
            raise ValueError("warmup and duration must be finite, with warmup >= 0 and duration > 0")
        if not 0.0 <= self.visibility_sample_rate <= 1.0:
            raise ValueError("visibility_sample_rate must be in [0, 1]")
        # Late import of the package (not just the registry module) so the
        # built-in protocols are registered before the lookup; the protocols
        # package imports this module, so the import must happen at
        # instance-validation time (the same pattern WorkloadConfig uses).
        from .protocols import is_registered, protocol_names

        if not is_registered(self.protocol_name):
            raise ValueError(
                f"unknown protocol {self.protocol_name!r}; "
                f"registered: {protocol_names()}"
            )
        if self.cluster.n_dcs > 10:
            raise ValueError("the latency model covers at most 10 regions")
        if self.regions is not None:
            from .sim.latency import REGIONS

            if len(self.regions) != self.cluster.n_dcs:
                raise ValueError(
                    f"regions lists {len(self.regions)} entries for "
                    f"{self.cluster.n_dcs} DCs"
                )
            unknown = [r for r in self.regions if r not in REGIONS]
            if unknown:
                raise ValueError(f"unknown regions: {unknown}")
        if self.faults is not None:
            self.faults.validate_for(self.cluster)

    def with_(self, **overrides) -> "SimulationConfig":
        """A copy with the given top-level fields replaced."""
        return replace(self, **overrides)

    def latency_model(self) -> "LatencyModel":
        """The WAN this deployment runs on: ``regions``, or the paper's first
        ``n_dcs`` regions, with this configuration's jitter.
        """
        from .sim.latency import LatencyModel

        if self.regions is not None:
            return LatencyModel(self.regions, jitter_fraction=self.latency_jitter)
        return LatencyModel.for_paper_deployment(
            self.cluster.n_dcs, jitter_fraction=self.latency_jitter
        )


def small_test_config(
    n_dcs: int = 3,
    machines_per_dc: int = 2,
    replication_factor: int = 2,
    seed: int = 7,
    threads_per_client: int = 1,
    **workload_overrides,
) -> SimulationConfig:
    """A laptop-scale configuration used across tests and examples."""
    cluster = ClusterSpec.from_machines(
        n_dcs=n_dcs,
        machines_per_dc=machines_per_dc,
        replication_factor=replication_factor,
    )
    workload = WorkloadConfig(
        reads_per_tx=workload_overrides.pop("reads_per_tx", 4),
        writes_per_tx=workload_overrides.pop("writes_per_tx", 2),
        partitions_per_tx=workload_overrides.pop("partitions_per_tx", 2),
        keys_per_partition=workload_overrides.pop("keys_per_partition", 50),
        threads_per_client=threads_per_client,
        **workload_overrides,
    )
    return SimulationConfig(
        cluster=cluster,
        workload=workload,
        seed=seed,
        warmup=0.5,
        duration=1.0,
    )
