"""Discrete-event simulation substrate for the PaRiS reproduction.

This package is self-contained and protocol-agnostic: an event kernel with
generator processes, futures, a WAN latency model of the paper's ten AWS
regions, FIFO links with fault injection, a per-server CPU queueing model,
deterministic named RNG streams, and percentile/CDF reductions.
"""

from .cpu import Cpu
from .future import Future, FutureAlreadyResolved, all_of, gather
from .kernel import Event, Process, SimulationError, Simulator
from .latency import REGIONS, LatencyModel, rtt_ms
from .network import Address, Envelope, Network, NetworkMetrics, Node
from .rng import RngRegistry
from .trace import GLOBAL_TRACER, TraceRecord, Tracer
from .stats import cdf_points, mean_cdf, percentile

__all__ = [
    "Address",
    "Cpu",
    "GLOBAL_TRACER",
    "TraceRecord",
    "Tracer",
    "Envelope",
    "Event",
    "Future",
    "FutureAlreadyResolved",
    "LatencyModel",
    "Network",
    "NetworkMetrics",
    "Node",
    "Process",
    "REGIONS",
    "RngRegistry",
    "SimulationError",
    "Simulator",
    "all_of",
    "cdf_points",
    "gather",
    "mean_cdf",
    "percentile",
    "rtt_ms",
]
