"""Wire format of consistency events (the persisted trace of a run).

The oracle observes two kinds of events — transactional reads and commits —
and the checker consumes exactly those.  This module defines a compact,
self-contained JSON-line encoding of both so a run's consistency-relevant
history can be spilled to disk (:class:`repro.sim.trace.TraceWriter`) and
re-checked later (``repro check --trace-in``, docs/scaling.md).

A commit event carries its *direct dependencies* (the recording session's
observed frontier at commit time), so decoding never needs oracle session
state: the event stream alone reconstructs the dependency graph.

Schema (one JSON object per line, sorted keys)::

    {"t": "read", "seq": 12, "client": "c:d0.p0.0", "tid": [3, 17],
     "snapshot": 123456, "at": 1.25,
     "returned": [["p0:k000001", "store", 99, 3, 17, 0],   # key, source, vid
                  ["p1:k000002", "ws"]]}                   # WS read: no vid

    {"t": "commit", "seq": 13, "client": "c:d0.p0.0", "tid": [4, 17],
     "ct": 131072, "at": 1.27,
     "written": [["p0:k000001", 131072, 4, 17, 0]],
     "deps": [["p1:k000002", 99, 3, 17, 0]]}

A version id is ``[key, ut, tid_seq, tid_uid, sr]`` and decodes to the
:data:`VersionId` tuple ``(key, ut, (tid_seq, tid_uid), sr)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from ..storage.version import PRELOAD_TID, TransactionId, Version

#: A version identity: (key, ut, tid, sr) — hashable, and two ids of one key
#: compare as plain tuples in that key's version order (ut, tid, sr).
VersionId = Tuple[str, int, TransactionId, int]


def version_id(version: Version) -> VersionId:
    """The oracle identity of a version."""
    return (version.key, version.ut, version.tid, version.sr)


def is_preload(version: Version) -> bool:
    """Whether a version is part of the preloaded (timestamp-zero) dataset."""
    return version.tid == PRELOAD_TID


@dataclass(frozen=True, slots=True)
class ReadEvent:
    """One transactional read phase, decoded from (or bound for) a trace."""

    seq: int
    client: str
    tid: Tuple[int, int]
    snapshot: int
    #: key -> (returned version id or None for WS reads, source tag); the
    #: insertion order of the original read results is preserved.
    returned: Mapping[str, Tuple[Optional[VersionId], str]]
    at: float


@dataclass(frozen=True, slots=True)
class CommitEvent:
    """One committed update transaction, with its direct dependencies."""

    seq: int
    client: str
    tid: Tuple[int, int]
    commit_ts: int
    written: Tuple[VersionId, ...]
    #: The session's observed frontier at commit time (direct dependencies
    #: of every written version), sorted for deterministic encoding.
    deps: Tuple[VersionId, ...]
    at: float


def _encode_vid(vid: VersionId) -> List[Any]:
    return [vid[0], vid[1], vid[2][0], vid[2][1], vid[3]]


def _decode_vid(data: List[Any]) -> VersionId:
    return (data[0], data[1], (data[2], data[3]), data[4])


def encode_read(event: ReadEvent) -> Dict[str, Any]:
    """The JSON-serialisable form of a read event."""
    returned = []
    for key, (vid, source) in event.returned.items():
        if vid is None:
            returned.append([key, source])
        else:
            returned.append([key, source] + _encode_vid(vid)[1:])
    return {
        "t": "read",
        "seq": event.seq,
        "client": event.client,
        "tid": list(event.tid),
        "snapshot": event.snapshot,
        "returned": returned,
        "at": event.at,
    }


def encode_commit(event: CommitEvent) -> Dict[str, Any]:
    """The JSON-serialisable form of a commit event."""
    return {
        "t": "commit",
        "seq": event.seq,
        "client": event.client,
        "tid": list(event.tid),
        "ct": event.commit_ts,
        "written": [_encode_vid(vid) for vid in event.written],
        "deps": [_encode_vid(vid) for vid in sorted(event.deps)],
        "at": event.at,
    }


#: Either event kind, as produced by :func:`decode_event`.
TraceEvent = Union[ReadEvent, CommitEvent]


def decode_event(obj: Mapping[str, Any]) -> TraceEvent:
    """Invert :func:`encode_read` / :func:`encode_commit`."""
    kind = obj.get("t")
    if kind == "read":
        returned: Dict[str, Tuple[Optional[VersionId], str]] = {}
        for entry in obj["returned"]:
            key, source = entry[0], entry[1]
            if len(entry) == 2:
                returned[key] = (None, source)
            else:
                returned[key] = (_decode_vid([key] + entry[2:]), source)
        return ReadEvent(
            seq=obj["seq"],
            client=obj["client"],
            tid=tuple(obj["tid"]),
            snapshot=obj["snapshot"],
            returned=returned,
            at=obj["at"],
        )
    if kind == "commit":
        return CommitEvent(
            seq=obj["seq"],
            client=obj["client"],
            tid=tuple(obj["tid"]),
            commit_ts=obj["ct"],
            written=tuple(_decode_vid(v) for v in obj["written"]),
            deps=tuple(_decode_vid(v) for v in obj["deps"]),
            at=obj["at"],
        )
    raise ValueError(f"unknown trace event type {kind!r}")
