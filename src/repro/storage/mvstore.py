"""Multi-version key-value storage with snapshot reads and GC.

Each key maps to a version chain ordered by the version total order
``(ut, tid, sr)``.  Snapshot reads return the freshest version whose update
time is within the snapshot (Algorithm 3 lines 4-7).  Garbage collection
implements Section IV-B: keep the newest version at or below the oldest
active snapshot plus everything newer; drop the rest.
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, Iterator, List, Optional, Tuple

from .version import TransactionId, Version, preload_version


class _Chain:
    """Version chain of one key, sorted ascending by version order key.

    ``_order_keys`` is a cache of ``[v.order_key() for v in versions]`` used
    for binary search.  Inserts in commit-timestamp order (the overwhelmingly
    common case: Algorithm 4 applies transactions in increasing ct) take an
    O(1) append fast path.  Garbage collection invalidates the cache instead
    of slicing it in lockstep; it is rebuilt lazily on the next access, so a
    GC sweep touching thousands of chains does one deferred rebuild per chain
    actually read again rather than an eager O(n) slice per chain.
    """

    __slots__ = ("versions", "_order_keys")

    def __init__(self) -> None:
        self.versions: List[Version] = []
        self._order_keys: Optional[List[Tuple[int, TransactionId, int]]] = []

    def _keys(self) -> List[Tuple[int, TransactionId, int]]:
        keys = self._order_keys
        if keys is None:
            keys = self._order_keys = [v.order_key() for v in self.versions]
        return keys

    def insert(self, version: Version) -> None:
        """Add one version, keeping the chain ordered by its order key."""
        key = version.order_key()
        keys = self._keys()
        if not keys or key > keys[-1]:
            keys.append(key)
            self.versions.append(version)
            return
        index = bisect.bisect_left(keys, key)
        if index < len(keys) and keys[index] == key:
            raise ValueError(f"duplicate version {key} for key {version.key!r}")
        keys.insert(index, key)
        self.versions.insert(index, version)

    def insert_if_absent(self, version: Version) -> bool:
        """Add ``version`` unless a version with its order key already exists.

        The idempotent variant of :meth:`insert`, used by membership-change
        snapshot migration: a rejoining replica may receive versions it
        already holds (from its own durable state or the replication backlog
        drained just before the snapshot lands).  Returns True if inserted.
        """
        key = version.order_key()
        keys = self._keys()
        if not keys or key > keys[-1]:
            keys.append(key)
            self.versions.append(version)
            return True
        index = bisect.bisect_left(keys, key)
        if index < len(keys) and keys[index] == key:
            return False
        keys.insert(index, key)
        self.versions.insert(index, version)
        return True

    def read(self, snapshot: int) -> Optional[Version]:
        """Freshest version with ``ut <= snapshot`` (None if none exists)."""
        versions = self.versions
        # Most keys were last written well before the snapshot, so the newest
        # version usually is the answer: no sentinel, no bisect.
        if versions and versions[-1].ut <= snapshot:
            return versions[-1]
        # All versions with ut <= snapshot sort strictly below this sentinel.
        sentinel = (snapshot + 1, (-1, -1), -1)
        index = bisect.bisect_left(self._keys(), sentinel)
        if index == 0:
            return None
        return versions[index - 1]

    def latest(self) -> Optional[Version]:
        """The newest version of the chain (None when empty)."""
        return self.versions[-1] if self.versions else None

    def collect(self, oldest_snapshot: int) -> int:
        """Trim versions older than the newest one within ``oldest_snapshot``.

        Returns the number of versions removed.
        """
        visible = self.read(oldest_snapshot)
        if visible is None:
            return 0
        index = bisect.bisect_left(self._keys(), visible.order_key())
        if index == 0:
            return 0
        del self.versions[:index]
        self._order_keys = None  # rebuilt lazily on next insert/read
        return index


class MultiVersionStore:
    """The versioned storage of one partition server."""

    def __init__(self) -> None:
        self._chains: Dict[str, _Chain] = {}
        self.writes_applied = 0
        self.versions_collected = 0

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def apply(
        self,
        key: str,
        value: Any,
        ut: int,
        tid: TransactionId,
        sr: int,
        deps: Any = None,
        dedup: bool = False,
    ) -> Version:
        """Install a new version (the UPDATE function of Algorithm 4).

        With ``dedup`` a version already present is silently skipped.  Local
        applies stay strict — a duplicate there is a protocol bug — but the
        replication receive path passes ``dedup=True``: under a membership
        change, delivery is at-least-once (a batch in flight to a rejoining
        replica can overlap the join's snapshot transfer), and the store is
        where the duplicates are squashed.
        """
        version = Version(key, value, ut, tid, sr, deps)
        if dedup:
            if self._chain(key).insert_if_absent(version):
                self.writes_applied += 1
        else:
            self._chain(key).insert(version)
            self.writes_applied += 1
        return version

    def ingest(self, key: str, version: Version) -> bool:
        """Install a migrated version if it is not already present.

        Snapshot transfer during membership change ships whole version
        chains from donor replicas; deduplicating on the version order key
        makes the transfer idempotent against versions the receiver already
        applied (rejoin after a leave, or replication racing the snapshot).
        Returns True if the version was new.
        """
        inserted = self._chain(key).insert_if_absent(version)
        if inserted:
            self.writes_applied += 1
        return inserted

    def preload(self, key: str, value: Any) -> Version:
        """Install the timestamp-zero base version of ``key``."""
        version = preload_version(key, value)
        self._chain(key).insert(version)
        return version

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def read(self, key: str, snapshot: int) -> Optional[Version]:
        """Freshest version of ``key`` within ``snapshot``; None if unknown."""
        chain = self._chains.get(key)
        if chain is None:
            return None
        return chain.read(snapshot)

    def read_latest(self, key: str) -> Optional[Version]:
        """The newest version of ``key`` regardless of snapshot."""
        chain = self._chains.get(key)
        if chain is None:
            return None
        return chain.latest()

    def read_visible(self, key: str, visible) -> Optional[Version]:
        """Freshest version of ``key`` satisfying the ``visible`` predicate.

        Vector-snapshot protocols (cure) cannot express visibility as a
        scalar ``ut`` cut, so this scans the chain newest-first and returns
        the first version the predicate accepts.  Chains stay short under
        GC, keeping the scan cheap.
        """
        chain = self._chains.get(key)
        if chain is None:
            return None
        for version in reversed(chain.versions):
            if visible(version):
                return version
        return None

    def versions_of(self, key: str) -> List[Version]:
        """All live versions of ``key``, oldest first (copy)."""
        chain = self._chains.get(key)
        return list(chain.versions) if chain else []

    # ------------------------------------------------------------------
    # Maintenance / introspection
    # ------------------------------------------------------------------
    def collect(self, oldest_snapshot: int) -> int:
        """Garbage-collect all chains against ``oldest_snapshot``."""
        removed = sum(chain.collect(oldest_snapshot) for chain in self._chains.values())
        self.versions_collected += removed
        return removed

    @property
    def key_count(self) -> int:
        """Number of distinct keys stored."""
        return len(self._chains)

    @property
    def version_count(self) -> int:
        """Total number of live versions across all chains."""
        return sum(len(chain.versions) for chain in self._chains.values())

    def keys(self) -> Iterator[str]:
        """Iterate over stored keys."""
        return iter(self._chains)

    def _chain(self, key: str) -> _Chain:
        chain = self._chains.get(key)
        if chain is None:
            chain = _Chain()
            self._chains[key] = chain
        return chain
