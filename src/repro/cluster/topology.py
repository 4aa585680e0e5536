"""Cluster shape: DCs, partitions, partial-replication placement.

System model (Section II-C): the dataset is split into N partitions by a
deterministic hash; each partition is replicated at R of the M DCs
(multi-master).  The paper's deployments satisfy

    machines_per_dc = N * R / M

e.g. the default configuration of 45 partitions, RF 2, 5 DCs gives 18
machines per DC.  Placement assigns partition ``n`` to DCs
``(n + i) mod M`` for ``i in 0..R-1``, which balances partitions across DCs
for every cluster shape used in the evaluation.

Remote-replica preference (Section V-A): every client in a DC uses the same
preferred remote replica per partition, varied across DCs round-robin to
balance load.
"""

from __future__ import annotations

import sys
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

# Address memo tables.  Servers and clients resolve peer addresses on every
# routed request, and those strings key the network's endpoint and link-clock
# dicts — interning them makes each lookup hash a precomputed value and hit
# the identity fast path of dict key comparison, instead of re-formatting and
# re-hashing a fresh string per send.
_SERVER_ADDRESSES: Dict[Tuple[int, int], str] = {}
_CLIENT_ADDRESSES: Dict[Tuple[int, int, int], str] = {}

# Routing memo: ``n_partitions -> {key: partition}``.  A key's partition is
# fixed for a given partition count (the only field of a spec the formula
# reads), yet every read, prepare and commit used to re-parse the key's prefix
# (or re-hash it) to find it.  Keyed by partition count first, so specs of
# different widths never share an entry.  It lives here and not on the (frozen)
# ``ClusterSpec`` so that ``==``, ``hash``, ``repr``, ``asdict`` and every
# pickle of a config sent to a worker stay exactly what they were.  Bounded by
# the data: one entry per distinct key ever routed, i.e. the keys the stores
# already hold (800 in the ledger's ``read_heavy``, 9,000 at paper scale).
_KEY_PARTITIONS: Dict[int, Dict[str, int]] = {}


def server_address(dc_id: int, partition: int) -> str:
    """Canonical (interned, memoized) address of a partition's server in a DC."""
    address = _SERVER_ADDRESSES.get((dc_id, partition))
    if address is None:
        address = sys.intern(f"server/d{dc_id}/p{partition}")
        _SERVER_ADDRESSES[(dc_id, partition)] = address
    return address


def client_address(dc_id: int, partition: int, index: int = 0) -> str:
    """Canonical (interned, memoized) address of a co-located client process."""
    address = _CLIENT_ADDRESSES.get((dc_id, partition, index))
    if address is None:
        address = sys.intern(f"client/d{dc_id}/p{partition}/c{index}")
        _CLIENT_ADDRESSES[(dc_id, partition, index)] = address
    return address


@dataclass(frozen=True)
class ClusterSpec:
    """Immutable description of a deployment's shape."""

    n_dcs: int
    n_partitions: int
    replication_factor: int

    def __post_init__(self) -> None:
        if self.n_dcs < 1:
            raise ValueError("need at least one DC")
        if self.n_partitions < 1:
            raise ValueError("need at least one partition")
        if not 1 <= self.replication_factor <= self.n_dcs:
            raise ValueError(
                f"replication factor {self.replication_factor} must be in "
                f"[1, {self.n_dcs}]"
            )

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_machines(
        cls, n_dcs: int, machines_per_dc: int, replication_factor: int = 2
    ) -> "ClusterSpec":
        """Build a spec the way the paper states deployments: machines per DC.

        ``N = M * machines_per_dc / R`` must be integral (all the paper's
        configurations are).
        """
        total_replicas = n_dcs * machines_per_dc
        if total_replicas % replication_factor != 0:
            raise ValueError(
                f"{n_dcs} DCs x {machines_per_dc} machines is not divisible by "
                f"replication factor {replication_factor}"
            )
        return cls(
            n_dcs=n_dcs,
            n_partitions=total_replicas // replication_factor,
            replication_factor=replication_factor,
        )

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def replica_dcs(self, partition: int) -> Tuple[int, ...]:
        """DC ids hosting ``partition``, in replica-index order."""
        self._check_partition(partition)
        return tuple(
            (partition + i) % self.n_dcs for i in range(self.replication_factor)
        )

    def is_replicated_at(self, partition: int, dc_id: int) -> bool:
        """Whether ``dc_id`` stores a replica of ``partition``."""
        return dc_id in self.replica_dcs(partition)

    def replica_index(self, partition: int, dc_id: int) -> int:
        """The replica index r of ``partition``'s copy in ``dc_id``."""
        dcs = self.replica_dcs(partition)
        try:
            return dcs.index(dc_id)
        except ValueError as exc:
            raise ValueError(f"partition {partition} has no replica in DC {dc_id}") from exc

    def dc_partitions(self, dc_id: int) -> List[int]:
        """Partitions hosted by ``dc_id`` (the DC's machines), ascending."""
        self._check_dc(dc_id)
        return [p for p in range(self.n_partitions) if self.is_replicated_at(p, dc_id)]

    def preferred_dc(self, partition: int, local_dc: int) -> int:
        """Which DC a client in ``local_dc`` reads ``partition`` from.

        Local if the partition is replicated locally; otherwise the DC's
        fixed preferred remote replica, assigned round-robin across DCs.
        """
        dcs = self.replica_dcs(partition)
        if local_dc in dcs:
            return local_dc
        return dcs[local_dc % self.replication_factor]

    # ------------------------------------------------------------------
    # Key routing
    # ------------------------------------------------------------------
    def key_to_partition(self, key: str) -> int:
        """Deterministic key-to-partition routing.

        Keys of the form ``p<partition>:<rest>`` route to the named partition
        — the YCSB-style workload uses this to control which partitions a
        transaction touches, mirroring how the paper's loader pre-shards its
        keyspace.  All other keys are hash-partitioned (CRC32, seed-stable).
        Answers are memoized per partition count (``_KEY_PARTITIONS``).
        """
        try:
            return _KEY_PARTITIONS[self.n_partitions][key]
        except KeyError:
            partition = self._route(key)
            _KEY_PARTITIONS.setdefault(self.n_partitions, {})[key] = partition
            return partition

    def _route(self, key: str) -> int:
        """The routing formula itself (what :meth:`key_to_partition` memoizes)."""
        if key.startswith("p"):
            sep = key.find(":")
            if sep > 1:
                prefix = key[1:sep]
                # isdecimal, not isdigit: "²".isdigit() is true but int("²") raises.
                if prefix.isdecimal():
                    return int(prefix) % self.n_partitions
        return zlib.crc32(key.encode("utf-8")) % self.n_partitions

    # ------------------------------------------------------------------
    # Derived sizes and capacity model
    # ------------------------------------------------------------------
    @property
    def machines_per_dc(self) -> float:
        """Average number of partition servers per DC."""
        return self.n_partitions * self.replication_factor / self.n_dcs

    @property
    def total_servers(self) -> int:
        """Total partition servers across the deployment."""
        return self.n_partitions * self.replication_factor

    def storage_fraction_per_dc(self) -> float:
        """Fraction of the dataset each DC stores (R/M; 1.0 = full replication)."""
        return self.replication_factor / self.n_dcs

    def capacity_vs_full_replication(self) -> float:
        """How much larger a dataset fits vs. full replication (M/R)."""
        return self.n_dcs / self.replication_factor

    # ------------------------------------------------------------------
    # Stabilization tree (Section IV-B, "Stabilization protocol")
    # ------------------------------------------------------------------
    def dc_tree(self, dc_id: int, fanout: int = 2) -> "StabilizationTree":
        """The intra-DC aggregation tree over the DC's partitions."""
        if fanout < 1:
            raise ValueError("fanout must be >= 1")
        members = self.dc_partitions(dc_id)
        return StabilizationTree(dc_id=dc_id, members=members, fanout=fanout)

    # ------------------------------------------------------------------
    def _check_partition(self, partition: int) -> None:
        if not 0 <= partition < self.n_partitions:
            raise ValueError(f"partition {partition} out of range")

    def _check_dc(self, dc_id: int) -> None:
        if not 0 <= dc_id < self.n_dcs:
            raise ValueError(f"DC {dc_id} out of range")


@dataclass
class StabilizationTree:
    """A fanout-k tree over the partitions of one DC.

    The GST aggregates from leaves to root and is broadcast back down
    (Section IV-B); the root also speaks for the DC in inter-DC gossip.
    """

    dc_id: int
    members: List[int]
    fanout: int = 2
    _position: Dict[int, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError(f"DC {self.dc_id} hosts no partitions")
        self._position = {partition: i for i, partition in enumerate(self.members)}

    @property
    def root(self) -> int:
        """The root partition of the DC's tree."""
        return self.members[0]

    def parent(self, partition: int) -> int | None:
        """Parent partition in the tree; None for the root."""
        index = self._position[partition]
        if index == 0:
            return None
        return self.members[(index - 1) // self.fanout]

    def children(self, partition: int) -> List[int]:
        """Child partitions in the tree."""
        index = self._position[partition]
        first = index * self.fanout + 1
        return [
            self.members[i]
            for i in range(first, min(first + self.fanout, len(self.members)))
        ]

    def is_leaf(self, partition: int) -> bool:
        """Whether ``partition`` has no children."""
        return not self.children(partition)
