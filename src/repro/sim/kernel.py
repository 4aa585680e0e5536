"""Deterministic discrete-event simulation kernel.

The kernel owns a priority queue of timestamped events.  Two styles of code
run on top of it:

* **Event-driven handlers** — a callable and its positional arguments,
  scheduled with :meth:`Simulator.call_at` / :meth:`Simulator.call_after`
  (cancellable, an :class:`Event` handle is returned) or with the
  :meth:`Simulator.post_at` / :meth:`Simulator.post_after` fast path when no
  handle is needed.  ``post_at(t, fn, a, b)`` fires
  ``fn(a, b)``: pass the arguments, never a closure over them.
* **Processes** — generator coroutines spawned with :meth:`Simulator.spawn`.
  A process may ``yield``:

  - a ``float``/``int`` number of seconds (sleep),
  - a :class:`~repro.sim.future.Future` (wait for resolution; the resolved
    value is sent back into the generator, failures are thrown in),
  - a list/tuple of futures (wait for all; list of values is sent back).

Determinism: events at equal times fire in scheduling order (a monotonically
increasing sequence number breaks ties), and all randomness in the wider
simulator flows through named :mod:`repro.sim.rng` streams.

Hot-path design: the heap holds plain ``[time, seq, fn, args]`` list entries
so heap sift comparisons stay in C (the unique ``seq`` guarantees ``fn`` and
``args`` are never compared).  An event carries its arguments in the entry,
so scheduling allocates the entry and nothing else — no closure per event —
and firing is ``fn(*args)``: one frame from the loop to the handler.
:meth:`Simulator.run` (with or without ``until``) and
:meth:`Simulator.run_window` share one drain loop that pops, counts and
calls inline; :meth:`Simulator.step` is the same body for one event and
serves :meth:`Simulator.run_until_resolved`.  A fired entry is garbage once
popped (entries are not pooled: on CPython 3.11 a fresh 4-slot list is
cheaper than refilling a recycled one).  Cancellation clears the ``fn`` and
``args`` slots in place, so a cancelled timer pins nothing while it waits to
surface at the heap top, where it is discarded.
"""

from __future__ import annotations

from heapq import heappop, heappush
from math import inf, nextafter
from typing import Any, Callable, Generator, List, Optional

from .future import Future

ProcessGenerator = Generator[Any, Any, Any]

#: Heap entry layout: ``[time, seq, fn, args]``.  ``fn is None`` marks an
#: entry that was cancelled (``args`` emptied with it, awaiting lazy removal
#: from the heap) or has already fired.
_TIME, _SEQ, _FN, _ARGS = 0, 1, 2, 3


class SimulationError(RuntimeError):
    """Raised for invalid kernel usage (e.g. scheduling into the past)."""


class Event:
    """A cancellable handle to one scheduled callback.

    ``time`` and ``seq`` are cached at scheduling time.  Firing and
    cancelling both clear the entry's ``fn`` slot, so cancelling after the
    event fired is a no-op.
    """

    __slots__ = ("time", "seq", "_entry")

    def __init__(self, entry: List[Any]) -> None:
        self.time: float = entry[_TIME]
        self.seq: int = entry[_SEQ]
        self._entry = entry

    def cancel(self) -> None:
        """Prevent the callback from running when the event fires.

        The arguments are dropped with the callback: a cancelled far-future
        timer stays in the heap until it surfaces, and must not keep an
        envelope and its payload alive until then.
        """
        entry = self._entry
        entry[_FN] = None
        entry[_ARGS] = ()

    @property
    def cancelled(self) -> bool:
        """Whether this event was cancelled (or has already fired)."""
        return self._entry[_FN] is None


class Process:
    """A generator coroutine driven by the kernel.

    ``process.completed`` is a future resolving to the generator's return
    value (or failing with its uncaught exception).
    """

    __slots__ = ("_sim", "_generator", "completed", "name")

    def __init__(self, sim: "Simulator", generator: ProcessGenerator, name: str = "") -> None:
        self._sim = sim
        self._generator = generator
        self.completed = Future()
        self.name = name or getattr(generator, "__name__", "process")

    @property
    def done(self) -> bool:
        """True once the generator has returned or raised."""
        return self.completed.done

    def _step(self, send_value: Any = None, throw_exc: Optional[BaseException] = None) -> None:
        try:
            if throw_exc is not None:
                yielded = self._generator.throw(throw_exc)
            else:
                yielded = self._generator.send(send_value)
        except StopIteration as stop:
            self.completed.resolve(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate via the future
            self.completed.fail(exc)
            return
        self._wire(yielded)

    def _wire(self, yielded: Any) -> None:
        if isinstance(yielded, Future):
            yielded.add_done_callback(self._on_future)
        elif isinstance(yielded, (int, float)):
            if yielded < 0:
                self._step(throw_exc=SimulationError(f"negative sleep: {yielded}"))
                return
            self._sim.post_after(yielded, self._step)
        elif isinstance(yielded, (list, tuple)):
            from .future import all_of

            all_of(yielded).add_done_callback(self._on_future)
        else:
            self._step(
                throw_exc=SimulationError(f"process yielded unsupported value: {yielded!r}")
            )

    def _on_future(self, fut: Future) -> None:
        if fut.exception is not None:
            self._step(throw_exc=fut.exception)
        else:
            self._step(send_value=fut._value)


class Simulator:
    """The event loop.  Time is a float in seconds, starting at 0."""

    __slots__ = ("_now", "_queue", "_seq", "_processes", "_event_count")

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: List[List[Any]] = []
        self._seq = 0
        self._processes: List[Process] = []
        self._event_count = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_executed(self) -> int:
        """Total number of events fired so far (for kernel benchmarks)."""
        return self._event_count

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def call_at(self, time: float, fn: Callable[..., None], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute sim time ``time``."""
        if time < self._now:
            raise SimulationError(f"cannot schedule into the past: {time} < {self._now}")
        self._seq = seq = self._seq + 1
        entry = [time, seq, fn, args]
        heappush(self._queue, entry)
        return Event(entry)

    def call_after(self, delay: float, fn: Callable[..., None], *args: Any) -> Event:
        """Schedule ``fn(*args)`` after ``delay`` seconds."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        self._seq = seq = self._seq + 1
        entry = [self._now + delay, seq, fn, args]
        heappush(self._queue, entry)
        return Event(entry)

    def post_at(self, time: float, fn: Callable[..., None], *args: Any) -> None:
        """Like :meth:`call_at` but returns no handle (not cancellable).

        This is the hot path used by the network fabric and CPU model: it
        skips the :class:`Event` wrapper allocation entirely.
        """
        if time < self._now:
            raise SimulationError(f"cannot schedule into the past: {time} < {self._now}")
        self._seq = seq = self._seq + 1
        heappush(self._queue, [time, seq, fn, args])

    def post_after(self, delay: float, fn: Callable[..., None], *args: Any) -> None:
        """Like :meth:`call_after` but returns no handle (not cancellable)."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        self._seq = seq = self._seq + 1
        heappush(self._queue, [self._now + delay, seq, fn, args])

    def timeout(self, delay: float, value: Any = None) -> Future:
        """A future that resolves to ``value`` after ``delay`` seconds."""
        future = Future()
        self.post_after(delay, future.resolve, value)
        return future

    def spawn(self, generator: ProcessGenerator, name: str = "") -> Process:
        """Start a process immediately (its first step runs inline)."""
        process = Process(self, generator, name=name)
        self._processes.append(process)
        process._step(None)
        return process

    def every(
        self,
        period: float,
        callback: Callable[[], None],
        *,
        phase: float = 0.0,
        jitter: Optional[Callable[[], float]] = None,
    ) -> Callable[[], None]:
        """Run ``callback`` every ``period`` seconds until cancelled.

        ``phase`` delays the first firing; ``jitter()`` (if given) is added to
        each interval.  Returns a cancel function.
        """
        if period <= 0:
            raise SimulationError(f"period must be positive: {period}")
        cancelled = [False]

        def tick() -> None:
            """One firing: run the callback, then rearm the next interval."""
            if cancelled[0]:
                return
            callback()
            delay = period + (jitter() if jitter is not None else 0.0)
            self.post_after(max(delay, 0.0), tick)

        self.post_after(phase + period, tick)

        def cancel() -> None:
            """Stop future firings (an in-flight firing still completes)."""
            cancelled[0] = True

        return cancel

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Fire the next event.  Returns False when the queue is empty."""
        queue = self._queue
        while queue:
            entry = heappop(queue)
            fn = entry[_FN]
            if fn is not None:
                entry[_FN] = None
                self._now = entry[_TIME]
                self._event_count += 1
                fn(*entry[_ARGS])
                return True
        return False

    def _drain(self, limit: float) -> None:
        """Fire every event timestamped at or before ``limit``.

        The one loop behind :meth:`run` and :meth:`run_window`: the body of
        :meth:`step`, inlined.  ``now`` and the event count are advanced
        before the call, so they stand when a handler raises.
        """
        queue = self._queue
        while queue and queue[0][_TIME] <= limit:
            entry = heappop(queue)
            fn = entry[_FN]
            if fn is not None:
                entry[_FN] = None
                self._now = entry[_TIME]
                self._event_count += 1
                fn(*entry[_ARGS])

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or sim time reaches ``until`` (inclusive)."""
        if until is None:
            self._drain(inf)
            return
        self._drain(until)
        self._now = max(self._now, until)

    def run_window(self, until: float) -> None:
        """Run events strictly before ``until``, then advance to ``until``.

        The exclusive counterpart of :meth:`run` (which is inclusive of
        ``until``): events timestamped exactly at ``until`` stay queued for
        the next window.  This is the barrier primitive of the sharded
        runner (:mod:`repro.sim.sharded`): each shard executes one lookahead
        window ``[now, until)``, parks at the barrier, and resumes after the
        cross-shard message exchange — deliveries injected *at* the barrier
        time then fire in the next window, exactly as they would have in a
        single-kernel run.
        """
        # "Strictly before until" is "at or before the float just below it".
        self._drain(nextafter(until, -inf))
        self._now = max(self._now, until)

    def run_until_resolved(self, future: Future, limit: float = float("inf")) -> Any:
        """Run until ``future`` resolves; raise if the queue drains first."""
        while not future.done:
            if self._queue and self._queue[0][_TIME] > limit:
                raise SimulationError(f"future not resolved by sim time {limit}")
            if not self.step():
                raise SimulationError("event queue drained before future resolved")
        return future.value
