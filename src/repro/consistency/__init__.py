"""Consistency verification: oracle recording + invariant checking.

One oracle, one checker: :class:`StreamingOracle` turns client reports into
an event stream and :class:`StreamingChecker` judges it one event at a time
— unbounded (``window=None``) for small runs, O(window) for big ones (see
docs/scaling.md).
"""

from .events import (
    CommitEvent,
    ReadEvent,
    VersionId,
    decode_event,
    encode_commit,
    encode_read,
    version_id,
)
from .streaming import StreamingChecker, StreamingOracle, Violation, check_trace

__all__ = [
    "CommitEvent",
    "ReadEvent",
    "StreamingChecker",
    "StreamingOracle",
    "VersionId",
    "Violation",
    "check_trace",
    "decode_event",
    "encode_commit",
    "encode_read",
    "version_id",
]
