"""PaRiS reproduction: TCC with non-blocking reads and partial replication.

Public API surface:

* :class:`~repro.config.SimulationConfig` and friends — describe a deployment;
* :func:`~repro.bench.harness.build_cluster` / :func:`~repro.bench.harness.run_experiment`
  — construct and drive simulated deployments;
* :mod:`repro.protocols` — the layered protocol engine (coordinator, reads,
  replication, stabilization) and the registry of named variants:
  ``paris``, ``bpr``, ``eventual``, ``gst_local``;
* :class:`~repro.core.client.PaRiSClient` /
  :class:`~repro.protocols.paris.PaRiSServer` — the paper's protocol
  (Algorithms 1-4);
* :mod:`repro.consistency` — the TCC invariant checker;
* :mod:`repro.faults` — declarative, deterministic fault injection.

See README.md for a quickstart, docs/architecture.md for the module map,
docs/protocol.md for the protocol walkthrough, and docs/faults.md for the
fault-plan schema.
"""

from .bench.harness import (
    Cluster,
    ExperimentResult,
    build_cluster,
    deploy_sessions,
    run_experiment,
)
from .cluster.topology import ClusterSpec
from .config import (
    ClockConfig,
    ProtocolConfig,
    ServiceModel,
    SimulationConfig,
    WorkloadConfig,
    small_test_config,
)
from .consistency.streaming import StreamingChecker, StreamingOracle, Violation
from .core.client import PaRiSClient, ReadResult, TransactionHandle
from .protocols import ProtocolServer, ProtocolSpec, get_protocol, protocol_names
from .protocols.bpr import BPRClient, BPRServer
from .protocols.paris import PaRiSServer
from .faults import FaultEvent, FaultInjector, FaultPlan

__version__ = "1.0.0"

__all__ = [
    "BPRClient",
    "BPRServer",
    "ClockConfig",
    "Cluster",
    "ClusterSpec",
    "ExperimentResult",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "PaRiSClient",
    "PaRiSServer",
    "ProtocolConfig",
    "ProtocolServer",
    "ProtocolSpec",
    "ReadResult",
    "ServiceModel",
    "SimulationConfig",
    "StreamingChecker",
    "StreamingOracle",
    "TransactionHandle",
    "Violation",
    "WorkloadConfig",
    "build_cluster",
    "deploy_sessions",
    "get_protocol",
    "protocol_names",
    "run_experiment",
    "small_test_config",
    "__version__",
]
