"""Structured event tracing for debugging protocol runs.

A :class:`Tracer` collects timestamped, typed records from any component
that chooses to emit them.  Tracing is strictly opt-in and zero-cost when
disabled (the default): call sites guard on :attr:`Tracer.enabled`.

Typical use::

    tracer = Tracer()
    with tracer.capture("commit", "replicate"):
        ...run simulation...
    for record in tracer.records:
        print(record)

The categories used by the core protocol:

========== ==========================================================
category    meaning
========== ==========================================================
commit      a coordinator decided a commit timestamp
apply       a server applied a transaction's writes
replicate   a replicate batch was shipped
ust         a server's UST advanced
block       a BPR read parked / woke
========== ==========================================================

For runs whose event volume exceeds RAM, :class:`TraceWriter` spills
JSON-line events to an append-only file instead of an in-memory list, and
:func:`read_jsonl` streams them back one at a time.  The big-run tier
(``repro run --big``, docs/scaling.md) records consistency events through
this sink and re-checks them with ``repro check --trace-in``.
"""

from __future__ import annotations

import io
import json
import pathlib
from contextlib import contextmanager
from ..record import record
from typing import Any, Dict, Iterator, List, Mapping, Optional, Set, Tuple, Union


@record
class TraceRecord:
    """One traced event."""

    at: float
    category: str
    source: str
    details: Tuple[Tuple[str, Any], ...]

    def get(self, key: str, default: Any = None) -> Any:
        """Look up one detail field."""
        for name, value in self.details:
            if name == key:
                return value
        return default

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        detail_text = " ".join(f"{k}={v}" for k, v in self.details)
        return f"[{self.at:.6f}] {self.category:<10} {self.source:<18} {detail_text}"


class Tracer:
    """A sink of :class:`TraceRecord`, filterable by category."""

    __slots__ = ("enabled", "categories", "limit", "records", "dropped")

    def __init__(self, categories: Optional[Set[str]] = None, limit: int = 1_000_000) -> None:
        self.enabled = False
        self.categories = categories  # None = all
        self.limit = limit
        self.records: List[TraceRecord] = []
        self.dropped = 0

    def emit(self, at: float, category: str, source: str, **details: Any) -> None:
        """Record one event (no-op unless enabled and category selected)."""
        if not self.enabled:
            return
        if self.categories is not None and category not in self.categories:
            return
        if len(self.records) >= self.limit:
            self.dropped += 1
            return
        self.records.append(
            TraceRecord(
                at=at,
                category=category,
                source=source,
                details=tuple(sorted(details.items())),
            )
        )

    @contextmanager
    def capture(self, *categories: str) -> Iterator["Tracer"]:
        """Enable tracing (optionally narrowed to ``categories``) in a scope."""
        previous = (self.enabled, self.categories)
        self.enabled = True
        if categories:
            self.categories = set(categories)
        try:
            yield self
        finally:
            self.enabled, self.categories = previous

    def by_category(self) -> Dict[str, List[TraceRecord]]:
        """Records grouped by category."""
        groups: Dict[str, List[TraceRecord]] = {}
        for record in self.records:
            groups.setdefault(record.category, []).append(record)
        return groups

    def clear(self) -> None:
        """Drop all collected records."""
        self.records.clear()
        self.dropped = 0


#: Shared default tracer used by servers when none is injected explicitly.
GLOBAL_TRACER = Tracer()


class TraceWriter:
    """Append-only JSONL event sink with bounded in-process buffering.

    One JSON object per line, written with sorted keys and compact
    separators so the file is deterministic for a deterministic event
    stream.  Events are buffered and flushed every ``flush_every`` lines;
    memory stays O(flush_every) regardless of run length.  Usable as a
    context manager::

        with TraceWriter(path) as sink:
            sink.write({"t": "commit", ...})
    """

    __slots__ = ("path", "flush_every", "count", "_file", "_buffer")

    def __init__(
        self, path: Union[str, pathlib.Path], flush_every: int = 1024
    ) -> None:
        if flush_every < 1:
            raise ValueError("flush_every must be >= 1")
        self.path = pathlib.Path(path)
        self.flush_every = flush_every
        self.count = 0
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._file: Optional[io.TextIOWrapper] = self.path.open("w")
        self._buffer: List[str] = []

    def write(self, event: Mapping[str, Any]) -> None:
        """Append one event as a JSON line."""
        if self._file is None:
            raise ValueError(f"trace writer already closed: {self.path}")
        self._buffer.append(json.dumps(event, sort_keys=True, separators=(",", ":")))
        self.count += 1
        if len(self._buffer) >= self.flush_every:
            self.flush()

    def flush(self) -> None:
        """Drain the line buffer through to the file on disk."""
        if self._buffer and self._file is not None:
            self._file.write("\n".join(self._buffer) + "\n")
            self._file.flush()
            self._buffer.clear()

    def close(self) -> None:
        """Flush and close the underlying file (idempotent)."""
        if self._file is not None:
            self.flush()
            self._file.close()
            self._file = None

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class TraceError(ValueError):
    """A trace file that cannot be read back: missing, truncated, or corrupt.

    The message starts with ``path:line`` (just ``path`` when the file
    itself cannot be opened).
    """


def read_jsonl(path: Union[str, pathlib.Path]) -> Iterator[Dict[str, Any]]:
    """Stream the events of a JSONL trace file one dict at a time.

    Blank lines are skipped.  A file that cannot be opened, a line that is
    not JSON (a corrupt line, or the cut-off last line of a truncated file)
    and a line that is not a JSON object raise :class:`TraceError`.
    """
    try:
        handle = pathlib.Path(path).open(errors="replace")
    except OSError as exc:
        raise TraceError(f"{path}: cannot open trace ({exc.strerror or exc})") from exc
    with handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceError(
                    f"{path}:{lineno}: corrupt or truncated line ({exc.msg})"
                ) from exc
            if not isinstance(obj, dict):
                raise TraceError(f"{path}:{lineno}: not a JSON object")
            yield obj
