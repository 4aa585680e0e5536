"""The five ledger workloads: configuration by name, seed and scale.

All workloads are closed-loop (one outstanding transaction per session,
load generated inside the simulator process) and run the ``paris``
protocol.  ``--seed`` becomes ``SimulationConfig.seed``, so one seed fixes
every simulated input.  The one-line *why* of each workload is recorded in
``BENCHMARK.json`` and expanded in the README.

Two scales: ``full`` is the benchmark (sized so one repeat takes 2-5 host
seconds and a 20 s run holds several repeats); ``smoke`` shortens the
simulated time for ``test_ledger.py`` and changes nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Tuple

from repro import small_test_config
from repro.config import SimulationConfig

#: Window and level of the inline and re-check ``StreamingChecker``.  The
#: checked run lasts 0.3 sim-s, so a 0.1 s window retires about half of the
#: versions it sees (``repro run --big`` defaults to 0.5 s on far longer runs).
CHECK_WINDOW = 0.1
CHECK_LEVEL = "tcc"


@dataclass(frozen=True)
class Workload:
    """One workload: its configuration and which path runs it."""

    name: str
    base: Callable[[int], SimulationConfig]
    #: ``(warmup, duration)`` in simulated seconds, by scale.
    times: Dict[str, Tuple[float, float]]
    #: Run under ``StreamingOracle(sink=TraceWriter, checker=StreamingChecker)``.
    checked: bool = False
    #: Worker processes for ``run_sharded_experiment`` (0: single kernel).
    shards: int = 0

    def config(self, seed: int, scale: str) -> SimulationConfig:
        """The simulation configuration of this workload."""
        warmup, duration = self.times[scale]
        return self.base(seed).with_(warmup=warmup, duration=duration)


def _mix(reads: int, writes: int) -> Callable[[int], SimulationConfig]:
    """4 DCs x 2 machines, RF 2 (8 servers, 16 sessions), 20-op transactions."""

    def build(seed: int) -> SimulationConfig:
        return small_test_config(
            n_dcs=4,
            keys_per_partition=200,
            threads_per_client=2,
            reads_per_tx=reads,
            writes_per_tx=writes,
            partitions_per_tx=2,
            seed=seed,
        )

    return build


def _paper_scale(seed: int) -> SimulationConfig:
    """The paper's deployment: 5 DCs, 45 partitions, RF 2 = 90 servers."""
    config = SimulationConfig(seed=seed)
    return config.with_(workload=replace(config.workload, threads_per_client=1))


def _checked_big(seed: int) -> SimulationConfig:
    """The ``repro run --big`` shape (small 4r:2w transactions, few keys), all local.

    With the default 5% of transactions crossing the WAN, each one stalls its
    session for ~250 sim-ms, so how many transactions a seed commits in a
    fixed simulated time varies by +-17%; the checker's cost and memory grow
    faster than the history, and moved +-20% and +-30% with the seed.  At
    ``locality=1.0`` the history's length and the checker's work vary by 2%.
    """
    return small_test_config(
        n_dcs=4, keys_per_partition=50, threads_per_client=1, locality=1.0, seed=seed
    )


_READ_HEAVY = (_mix(19, 1), {"full": (0.5, 1.5), "smoke": (0.2, 0.3)})

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("read_heavy", *_READ_HEAVY),
        Workload("write_heavy", _mix(10, 10), {"full": (0.5, 1.5), "smoke": (0.2, 0.3)}),
        Workload("paper_scale", _paper_scale, {"full": (0.3, 0.4), "smoke": (0.1, 0.1)}),
        Workload(
            "checked_big", _checked_big, {"full": (0.1, 0.2), "smoke": (0.05, 0.1)}, checked=True
        ),
        # read_heavy's exact configuration, so the two result digests must be equal.
        Workload("sharded2", *_READ_HEAVY, shards=2),
    )
}
