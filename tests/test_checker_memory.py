"""Memory-ceiling regression tests for the streaming checker.

The O(window) claim of docs/scaling.md, measured rather than asserted: with
a fixed window, feeding 4x the events must not grow peak heap usage
meaningfully (the retirement machinery caps the dependency/closure maps,
and the per-client frontiers depend on clients x keys, not run length).
The unbounded checker, fed the same stream, grows linearly — the contrast
keeps this test honest about what it measures.
"""

from __future__ import annotations

import tracemalloc
from typing import Iterator

from repro.consistency.events import CommitEvent, ReadEvent, TraceEvent
from repro.consistency.streaming import StreamingChecker

N_KEYS = 100
N_CLIENTS = 8


def hlc(seconds: float) -> int:
    """An HLC-packed timestamp at ``seconds`` of simulated physical time."""
    return int(seconds * 1_000_000) << 16


def event_stream(n_commits: int) -> Iterator[TraceEvent]:
    """A well-formed, unbounded-length stream: rotating writers and readers.

    Commit ``i`` writes key ``k(i % N_KEYS)`` at ``i`` milliseconds of
    commit time, depending on the writer's previous write; each commit is
    followed by a read of that key by the same client.  Generated lazily so
    the stream itself never holds O(n) memory.
    """
    last_write = {}
    seq = 0
    for i in range(n_commits):
        client = f"c{i % N_CLIENTS}"
        key = f"k{i % N_KEYS}"
        tid = (i + 1, 1)
        vid = (key, hlc((i + 1) * 0.001), tid, 0)
        # The writer's previous write is the one frontier entry it raised.
        added = (last_write[client],) if client in last_write else ()
        yield CommitEvent(
            seq=seq,
            client=client,
            tid=tid,
            commit_ts=vid[1],
            written=(vid,),
            added_deps=added,
            at=float(i),
        )
        seq += 1
        last_write[client] = vid
        yield ReadEvent(
            seq=seq,
            client=client,
            tid=(i + 1, 99),
            snapshot=vid[1],
            returned={key: (vid, "store")},
            at=float(i),
        )
        seq += 1


def peak_heap_bytes(checker: StreamingChecker, n_commits: int) -> int:
    """Peak traced heap while ``checker`` consumes ``n_commits`` commits."""
    tracemalloc.start()
    try:
        for event in event_stream(n_commits):
            checker.feed(event)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


class TestStreamingMemoryCeiling:
    N = 3_000

    def test_windowed_peak_heap_is_flat_in_run_length(self):
        """4x the events, same window: peak heap must stay within 1.5x."""
        small = peak_heap_bytes(StreamingChecker(window=0.02), self.N)
        large = peak_heap_bytes(StreamingChecker(window=0.02), 4 * self.N)
        assert large < 1.5 * small, (
            f"peak heap grew with run length under a fixed window: "
            f"{small} -> {large} bytes"
        )

    def test_windowed_state_is_bounded_and_clean(self):
        """The long run retires most versions and finds no violations."""
        checker = StreamingChecker(window=0.02)
        for event in event_stream(4 * self.N):
            checker.feed(event)
        assert checker.violations == []
        assert checker.versions_retired > 3 * self.N
        assert checker.state_size < self.N

    def test_unbounded_peak_heap_grows(self):
        """Contrast: without a window the same stream grows the heap."""
        small = peak_heap_bytes(StreamingChecker(window=None), self.N)
        large = peak_heap_bytes(StreamingChecker(window=None), 4 * self.N)
        assert large > 2.0 * small
