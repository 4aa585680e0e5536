"""Item versions and their total order.

An item version is the tuple ``<k, v, ut, idT, sr>`` of Section IV-A: key,
value, update (commit) timestamp, id of the creating transaction, and source
DC.  Conflicting writes are resolved last-writer-wins on ``ut``; ties are
broken "by looking at the id of the DC combined with the identifier of the
transaction" (Section II-B) — we order by ``(ut, idT, sr)`` as the read
protocol of Section IV-B specifies ("a concatenation of timestamp,
transaction id and source data center id, in this order").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Tuple

#: A transaction id: (sequence number, coordinator uid).  Tuples compare
#: lexicographically, giving the deterministic tie-break the paper requires.
TransactionId = Tuple[int, int]


@dataclass(frozen=True, slots=True)
class Version:
    """One immutable version of a key."""

    key: str
    value: Any
    ut: int
    tid: TransactionId
    sr: int
    #: Optional per-version dependency metadata.  The scalar-snapshot
    #: protocols leave it ``None``; cure stores a per-DC dependency vector
    #: and cops a tuple of ``(key, ut)`` pairs.  Not part of the total
    #: order — two versions never share ``(ut, tid, sr)``.
    deps: Any = None

    def order_key(self) -> Tuple[int, TransactionId, int]:
        """Total order over versions of the same key."""
        return (self.ut, self.tid, self.sr)

    def newer_than(self, other: "Version") -> bool:
        """Whether this version wins last-writer-wins against ``other``."""
        return self.order_key() > other.order_key()


#: Transaction id reserved for dataset preload (sorts before all real ids).
PRELOAD_TID: TransactionId = (0, 0)


def preload_version(key: str, value: Any) -> Version:
    """A timestamp-zero base version, visible in every snapshot."""
    return Version(key, value, 0, PRELOAD_TID, 0)
