"""Transaction mix generator (Section V-A workloads, profile-driven).

Every transaction performs ``reads_per_tx + writes_per_tx`` operations over
``partitions_per_tx`` distinct partitions.  With probability ``locality`` a
transaction is *local-DC* — it only touches partitions replicated in the
client's DC — otherwise it is *multi-DC* and draws partitions from the whole
keyspace.  Operations are spread round-robin over the chosen partitions.

*How* keys and values are drawn is decided by the workload's named profile
(:mod:`repro.workload.profiles`): key ranks come from a static zipfian (the
paper's default), uniform, latest-biased (YCSB-D), or shifting-hotspot
distribution; write values carry a constant, uniform, or bimodal payload
size; and read-modify-write profiles (YCSB-F) write back to the keys they
just read, so the written versions causally depend on the read versions all
the way through the consistency oracle.

Key ranks are drawn through the distributions' array-batched
``sample_batch`` path (one call per read phase / write phase instead of one
Python call per operation) whenever a batch is byte-identical to the scalar
sequence; ``vectorized=False`` forces the scalar path, and the seed-stability
suite in ``tests/test_workload.py`` asserts both emit identical key streams.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Tuple

from ..cluster.topology import ClusterSpec
from ..config import WorkloadConfig
from ..record import record
from .profiles import WorkloadProfile, get_profile
from .zipfian import (
    LatestBiasedGenerator,
    ShiftingHotspotGenerator,
    UniformGenerator,
    ZipfianGenerator,
)


# Key-name memo: ``partition -> {rank: key}``.  A transaction names 20 keys
# out of a dataset that was named once already, when the stores were preloaded
# (``dataset_keys``); handing out those very string objects skips the
# formatting and lets every dict the key then meets (store chains, read sets,
# the routing memo) reuse its cached hash and match by identity.  Bounded by
# the data: one entry per distinct key ever named, i.e. the keys the stores
# hold — the preloaded dataset plus whatever a ``latest`` profile inserts.
_KEY_NAMES: Dict[int, Dict[int, str]] = {}


def key_name(partition: int, rank: int) -> str:
    """The canonical key of ``rank`` within ``partition`` (routes by prefix).

    Memoized: the same ``(partition, rank)`` always returns the same object.
    """
    try:
        return _KEY_NAMES[partition][rank]
    except KeyError:
        name = _KEY_NAMES.setdefault(partition, {})[rank] = f"p{partition}:k{rank:06d}"
        return name


@record
class TransactionSpec:
    """One generated transaction: what to read, what to write."""

    reads: Tuple[str, ...]
    writes: Tuple[Tuple[str, str], ...]
    partitions: Tuple[int, ...]
    is_local: bool


def _make_key_generator(
    profile: WorkloadProfile, workload: WorkloadConfig, clock: Callable[[], float]
):
    """Instantiate the rank distribution the profile asks for."""
    n = workload.keys_per_partition
    kind = profile.key_dist
    if kind == "uniform" or (kind == "zipfian" and workload.zipf_theta <= 0.0):
        return UniformGenerator(n)
    if kind == "zipfian":
        return ZipfianGenerator(n, workload.zipf_theta)
    if kind == "latest":
        return LatestBiasedGenerator(n, workload.zipf_theta)
    if kind == "hotspot":
        return ShiftingHotspotGenerator(
            n,
            workload.zipf_theta,
            profile.hotspot_interval,
            profile.hotspot_step,
            clock,
        )
    raise ValueError(f"unknown key distribution {kind!r}")  # pragma: no cover


class WorkloadGenerator:
    """Generates the transaction stream for clients of one DC.

    ``clock`` supplies the simulated time to time-dependent distributions
    (the shifting hotspot); it defaults to a frozen clock so generators can
    be used standalone in tests.
    """

    def __init__(
        self,
        spec: ClusterSpec,
        workload: WorkloadConfig,
        dc_id: int,
        rng: random.Random,
        clock: Optional[Callable[[], float]] = None,
        vectorized: bool = True,
    ) -> None:
        self.spec = spec
        self.workload = workload
        self.dc_id = dc_id
        self.profile = get_profile(workload.profile)
        self.vectorized = vectorized
        self._rng = rng
        self._clock = clock if clock is not None else lambda: 0.0
        self._local_partitions = spec.dc_partitions(dc_id)
        self._all_partitions = list(range(spec.n_partitions))
        self._key_gen = _make_key_generator(self.profile, workload, self._clock)
        self._values = self.profile.values
        self._payload = "v" * workload.value_size
        self._sequence = 0

    def next_transaction(self) -> TransactionSpec:
        """Draw the next transaction of the stream."""
        is_local = self._rng.random() < self.workload.locality
        pool = self._local_partitions if is_local else self._all_partitions
        count = min(self.workload.partitions_per_tx, len(pool))
        partitions = self._rng.sample(pool, count)
        n_reads = self.workload.reads_per_tx
        if self.vectorized and n_reads > 0:
            ranks = self._key_gen.sample_batch(self._rng, n_reads)
            reads = tuple(
                [key_name(partitions[i % count], ranks[i]) for i in range(n_reads)]
            )
        else:
            reads = tuple(self._pick_key(partitions[i % count]) for i in range(n_reads))
        writes = self._pick_writes(partitions, count, reads)
        self._sequence += 1
        return TransactionSpec(reads, writes, tuple(partitions), is_local)

    def _pick_key(self, partition: int) -> str:
        rank = self._key_gen.sample(self._rng)
        return key_name(partition, rank)

    def _write_key(self, partition: int) -> str:
        """The key of one write: an 'insert' under the latest distribution."""
        if isinstance(self._key_gen, LatestBiasedGenerator):
            return key_name(partition, self._key_gen.next_insert())
        return self._pick_key(partition)

    def _value(self, index: int) -> str:
        """One write's payload (size drawn from the profile's distribution)."""
        if self._values is None:
            payload = self._payload
        else:
            payload = "v" * self._values.sample(self._rng)
        return f"{payload}:{self._sequence}:{index}"

    def _pick_writes(
        self, partitions: List[int], count: int, reads: Tuple[str, ...]
    ) -> Tuple[Tuple[str, str], ...]:
        writes: Dict[str, str] = {}
        if self.profile.rmw and reads:
            # Read-modify-write: update the first writes_per_tx distinct keys
            # the transaction just read (fewer if reads deduplicated).
            targets = list(dict.fromkeys(reads))[: self.workload.writes_per_tx]
            for i, key in enumerate(targets):
                writes[key] = self._value(i)
        else:
            for i in range(self.workload.writes_per_tx):
                key = self._write_key(partitions[i % count])
                writes[key] = self._value(i)
        return tuple(writes.items())

    def all_keys_of_partition(self, partition: int) -> List[str]:
        """Every key of ``partition`` (used to preload the dataset)."""
        return [key_name(partition, rank) for rank in range(self.workload.keys_per_partition)]


def dataset_keys(spec: ClusterSpec, workload: WorkloadConfig, partition: int) -> List[str]:
    """Keys preloaded into ``partition`` before an experiment starts."""
    return [key_name(partition, rank) for rank in range(workload.keys_per_partition)]
