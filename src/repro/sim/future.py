"""Futures and combinators for the discrete-event simulation kernel.

A :class:`Future` is the rendezvous point between event-driven code (message
handlers, timers) and process code (generator coroutines).  Handlers resolve
futures; processes ``yield`` them and are resumed with the resolved value.

Futures are single-assignment: resolving (or failing) a future twice raises
:class:`FutureAlreadyResolved`.

Request/response has one idiom, and it allocates no derived future and no
closure:

* the **producer** of a future shapes its value in place —
  ``return self.request(dst, msg).map(self._on_reply, extra)`` hands the
  caller the request's own future, which will resolve to
  ``self._on_reply(reply, extra)``;
* a **fan-out** joins its replies with ``gather(futures, self._on_all, a, b)``,
  which calls ``self._on_all(values, a, b)`` once, values in input order.

``fn, *args`` is the calling convention throughout (as for
``Simulator.post_at``): pass a method and what it needs, never a ``lambda`` or
a nested function over it.  :func:`all_of` is still the right call when the
join must itself be a future: a process that yields a list of futures
(``Process._wire``), or a caller that wants an input's failure delivered
through the aggregate rather than raised where it happened.

Almost every future has exactly one waiter (the session process or the
``gather`` of its fan-out), so the first callback lives in a slot of its own
and a list is only built from the second waiter on.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple


class FutureAlreadyResolved(RuntimeError):
    """Raised when a future is resolved or failed more than once."""


class Future:
    """A single-assignment container for a value produced later in sim time.

    Callbacks added via :meth:`add_done_callback` run synchronously at the
    moment of resolution, in registration order.  The simulation kernel uses
    this to resume processes that are waiting on the future.
    """

    __slots__ = ("_done", "_value", "_exception", "_callback", "_more", "_map")

    def __init__(self) -> None:
        self._done = False
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        #: The first waiter; further ones (rare) go to the ``_more`` list.
        self._callback: Optional[Callable[["Future"], None]] = None
        self._more: Optional[List[Callable[["Future"], None]]] = None
        #: ``(fn, args)`` installed by :meth:`map`, applied by :meth:`resolve`.
        self._map: Optional[Tuple[Callable[..., Any], Tuple[Any, ...]]] = None

    @property
    def done(self) -> bool:
        """True once the future has been resolved or failed."""
        return self._done

    @property
    def value(self) -> Any:
        """The resolved value.  Raises if not done or if the future failed."""
        if not self._done:
            raise RuntimeError("future is not resolved yet")
        if self._exception is not None:
            raise self._exception
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        """The failure exception, or None."""
        return self._exception

    def map(self, fn: Callable[..., Any], *args: Any) -> "Future":
        """Make this future resolve to ``fn(value, *args)``; returns ``self``.

        For the *producer* of a pending future, before handing it out:
        :meth:`resolve` applies ``fn`` before any waiter sees the value, and
        an exception raised by ``fn`` fails the future instead.  Failures
        (:meth:`fail`) pass through untouched.  A future takes one mapping.
        """
        if self._done:
            raise FutureAlreadyResolved("cannot map a future that is already resolved")
        if self._map is not None:
            raise RuntimeError("future is already mapped")
        self._map = (fn, args)
        return self

    def resolve(self, value: Any = None) -> None:
        """Resolve the future with ``value`` and run callbacks."""
        if self._done:
            raise FutureAlreadyResolved("future already resolved")
        mapped = self._map
        if mapped is not None:
            self._map = None
            try:
                value = mapped[0](value, *mapped[1])
            except BaseException as exc:  # noqa: BLE001 - surface via the future
                self.fail(exc)
                return
        self._done = True
        self._value = value
        self._run_callbacks()

    def fail(self, exc: BaseException) -> None:
        """Fail the future with ``exc``; waiters re-raise it."""
        if self._done:
            raise FutureAlreadyResolved("future already resolved")
        self._done = True
        self._exception = exc
        self._run_callbacks()

    def add_done_callback(self, callback: Callable[["Future"], None]) -> None:
        """Run ``callback(self)`` when resolved (immediately if already done).

        A callback registered from inside another callback of this future
        therefore runs at once, ahead of the waiters still queued.
        """
        if self._done:
            callback(self)
        elif self._callback is None:
            self._callback = callback
        elif self._more is None:
            self._more = [callback]
        else:
            self._more.append(callback)

    def _run_callbacks(self) -> None:
        callback = self._callback
        if callback is None:
            return
        self._callback = None
        callback(self)
        more = self._more
        if more is not None:
            self._more = None
            for callback in more:
                callback(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if not self._done:
            state = "pending"
        elif self._exception is not None:
            state = f"failed({self._exception!r})"
        else:
            state = f"resolved({self._value!r})"
        return f"<Future {state}>"


class _Gather:
    """The join behind :func:`gather`: one object for the whole fan-out."""

    __slots__ = ("_futures", "_remaining", "_fn", "_args")

    def __init__(
        self, futures: Sequence[Future], fn: Callable[..., None], args: Tuple[Any, ...]
    ) -> None:
        self._futures = futures
        self._remaining = len(futures)
        self._fn = fn
        self._args = args

    def _on_done(self, future: Future) -> None:
        if future._exception is not None:
            raise future._exception
        self._remaining -= 1
        if self._remaining == 0:
            self._fn([fut._value for fut in self._futures], *self._args)


def gather(futures: Sequence[Future], fn: Callable[..., None], *args: Any) -> None:
    """Call ``fn(values, *args)`` once, when every one of ``futures`` is in.

    ``values`` lists the inputs' values in input order, whatever order they
    resolved in; with no inputs (or all of them already resolved) ``fn`` runs
    before this returns.  There is no aggregate future to carry a failure:
    an input that fails raises its exception out of the ``fail`` call that
    delivered it (out of this call, if it had failed already), and ``fn``
    never runs.  ``futures`` must not be mutated afterwards.
    """
    if not futures:
        fn([], *args)
        return
    on_done = _Gather(futures, fn, args)._on_done
    for future in futures:
        future.add_done_callback(on_done)


def all_of(futures: Iterable[Future]) -> Future:
    """Return a future resolving to the list of values of ``futures``.

    Values preserve input order.  If any input future fails, the aggregate
    fails with the first failure (remaining inputs are still awaited so that
    late resolutions do not hit an already-resolved aggregate).
    """
    futures = list(futures)
    aggregate = Future()
    if not futures:
        aggregate.resolve([])
        return aggregate

    remaining = len(futures)
    values: List[Any] = [None] * len(futures)
    first_error: List[Optional[BaseException]] = [None]

    def make_callback(index: int) -> Callable[[Future], None]:
        """Bind one input future's slot in the aggregate value list."""
        def callback(fut: Future) -> None:
            """Record one input's outcome; resolve when all are in."""
            nonlocal remaining
            if fut.exception is not None and first_error[0] is None:
                first_error[0] = fut.exception
            else:
                values[index] = fut._value
            remaining -= 1
            if remaining == 0:
                if first_error[0] is not None:
                    aggregate.fail(first_error[0])
                else:
                    aggregate.resolve(values)

        return callback

    for i, fut in enumerate(futures):
        fut.add_done_callback(make_callback(i))
    return aggregate
