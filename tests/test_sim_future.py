"""Unit tests for futures and combinators."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.future import Future, FutureAlreadyResolved, all_of, gather


class TestFuture:
    def test_initially_pending(self):
        future = Future()
        assert not future.done
        with pytest.raises(RuntimeError):
            _ = future.value

    def test_resolve_sets_value(self):
        future = Future()
        future.resolve(5)
        assert future.done
        assert future.value == 5
        assert future.exception is None

    def test_resolve_default_is_none(self):
        future = Future()
        future.resolve()
        assert future.value is None

    def test_double_resolve_raises(self):
        future = Future()
        future.resolve(1)
        with pytest.raises(FutureAlreadyResolved):
            future.resolve(2)

    def test_fail_then_value_raises(self):
        future = Future()
        future.fail(ValueError("x"))
        assert future.done
        assert isinstance(future.exception, ValueError)
        with pytest.raises(ValueError):
            _ = future.value

    def test_fail_after_resolve_raises(self):
        future = Future()
        future.resolve(1)
        with pytest.raises(FutureAlreadyResolved):
            future.fail(RuntimeError("late"))

    def test_callbacks_run_in_order(self):
        future = Future()
        order = []
        future.add_done_callback(lambda f: order.append(1))
        future.add_done_callback(lambda f: order.append(2))
        future.resolve("v")
        assert order == [1, 2]

    def test_callback_added_after_resolution_runs_immediately(self):
        future = Future()
        future.resolve("v")
        seen = []
        future.add_done_callback(lambda f: seen.append(f.value))
        assert seen == ["v"]

    def test_callbacks_receive_failed_future(self):
        future = Future()
        seen = []
        future.add_done_callback(lambda f: seen.append(type(f.exception)))
        future.fail(KeyError("k"))
        assert seen == [KeyError]


class ReferenceFuture:
    """The callback-list future ``Future`` replaced, kept as the test oracle."""

    def __init__(self):
        self.done, self.outcome, self._callbacks = False, None, []

    def add_done_callback(self, callback):
        if self.done:
            callback(self)
        else:
            self._callbacks.append(callback)

    def settle(self, outcome):
        self.done, self.outcome = True, outcome
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)


def _waiter_log(future, settle, n_waiters, chained):
    """What ``n_waiters`` callbacks see; waiter ``i`` in ``chained`` registers another from inside."""
    log = []

    def waiter(index):
        def callback(fut):
            log.append(("waiter", index, fut.done))
            if index in chained:
                fut.add_done_callback(lambda f: log.append(("chained by", index, f.done)))
                log.append(("waiter done", index))

        return callback

    for index in range(n_waiters):
        future.add_done_callback(waiter(index))
    settle("outcome")
    future.add_done_callback(lambda f: log.append(("late", f.done)))
    return log


class TestWaiters:
    """The single-waiter slot and the overflow list behave like one list."""

    @pytest.mark.parametrize("n_waiters", [1, 2, 5])
    @pytest.mark.parametrize("fail", [False, True])
    def test_registration_order(self, n_waiters, fail):
        future, order = Future(), []
        for index in range(n_waiters):
            future.add_done_callback(lambda f, index=index: order.append(index))
        if fail:
            future.fail(KeyError("k"))
        else:
            future.resolve("v")
        assert order == list(range(n_waiters))

    @pytest.mark.parametrize("n_waiters", [1, 2, 5])
    def test_registered_from_inside_a_callback_runs_at_once(self, n_waiters):
        future = Future()
        log = _waiter_log(future, future.resolve, n_waiters, {0})
        # Waiter 0's chained callback ran before waiter 0 returned, hence
        # before every waiter queued behind it.
        assert log[:3] == [("waiter", 0, True), ("chained by", 0, True), ("waiter done", 0)]
        assert [entry for entry in log if entry[0] == "waiter"] == [
            ("waiter", index, True) for index in range(n_waiters)
        ]
        assert log[-1] == ("late", True)

    @given(
        n_waiters=st.integers(min_value=0, max_value=6),
        chained=st.sets(st.integers(min_value=0, max_value=5)),
        fail=st.booleans(),
    )
    def test_same_callback_sequence_as_the_list_reference(self, n_waiters, chained, fail):
        future, reference = Future(), ReferenceFuture()
        settle = (lambda _outcome: future.fail(KeyError("k"))) if fail else future.resolve
        assert _waiter_log(future, settle, n_waiters, chained) == _waiter_log(
            reference, reference.settle, n_waiters, chained
        )

    def test_waiters_are_released_after_they_ran(self):
        future = Future()
        for _ in range(3):
            future.add_done_callback(lambda f: None)
        future.resolve()
        assert future._callback is None and future._more is None


class TestAllOf:
    def test_empty_resolves_immediately(self):
        aggregate = all_of([])
        assert aggregate.done
        assert aggregate.value == []

    def test_preserves_input_order(self):
        futures = [Future(), Future(), Future()]
        aggregate = all_of(futures)
        futures[2].resolve("c")
        futures[0].resolve("a")
        assert not aggregate.done
        futures[1].resolve("b")
        assert aggregate.value == ["a", "b", "c"]

    def test_already_resolved_inputs(self):
        f1, f2 = Future(), Future()
        f1.resolve(1)
        f2.resolve(2)
        assert all_of([f1, f2]).value == [1, 2]

    def test_failure_propagates_first_error(self):
        futures = [Future(), Future()]
        aggregate = all_of(futures)
        futures[0].fail(ValueError("first"))
        futures[1].fail(RuntimeError("second"))
        with pytest.raises(ValueError, match="first"):
            _ = aggregate.value

    def test_failure_waits_for_all_inputs(self):
        futures = [Future(), Future()]
        aggregate = all_of(futures)
        futures[0].fail(ValueError("x"))
        assert not aggregate.done  # second input still pending
        futures[1].resolve("ok")
        assert aggregate.done


class TestMapFuture:
    """``Future.map``: the producer shapes the value in place."""

    def test_maps_value(self):
        future = Future()
        mapped = future.map(lambda v: v * 2)
        assert mapped is future  # in place: no derived future
        future.resolve(21)
        assert mapped.value == 42

    def test_value_is_fn_of_value_and_args(self):
        future = Future().map(lambda value, *args: (value, args), "a", 2)
        future.resolve("v")
        assert future.value == ("v", ("a", 2))

    def test_waiters_see_only_the_mapped_value(self):
        future, seen = Future(), []
        future.add_done_callback(lambda f: seen.append(f.value))  # before the map
        future.map(str.upper)
        future.add_done_callback(lambda f: seen.append(f.value))  # after it
        future.resolve("a")
        assert seen == ["A", "A"]

    def test_mapping_after_resolution_raises(self):
        future = Future()
        future.resolve("a")
        with pytest.raises(FutureAlreadyResolved):
            future.map(str.upper)
        assert future.value == "a"

    def test_mapping_twice_raises(self):
        future = Future().map(str.upper)
        with pytest.raises(RuntimeError, match="already mapped"):
            future.map(str.lower)
        future.resolve("a")
        assert future.value == "A"

    def test_propagates_failure(self):
        future = Future()
        mapped = future.map(lambda v: v)
        future.fail(KeyError("k"))
        with pytest.raises(KeyError):
            _ = mapped.value

    def test_transform_exception_fails_mapped(self):
        future, seen = Future(), []
        mapped = future.map(lambda v: 1 / v)
        mapped.add_done_callback(lambda f: seen.append(type(f.exception)))
        future.resolve(0)
        assert seen == [ZeroDivisionError]  # the waiter ran, and saw the failure
        with pytest.raises(ZeroDivisionError):
            _ = mapped.value
        with pytest.raises(FutureAlreadyResolved):
            future.resolve(1)


class TestGather:
    def test_empty_calls_at_once(self):
        calls = []
        gather([], lambda values, *args: calls.append((values, args)), "x")
        assert calls == [([], ("x",))]

    @given(order=st.permutations(range(5)))
    def test_values_in_input_order_whatever_the_resolution_order(self, order):
        futures = [Future() for _ in range(5)]
        calls = []
        gather(futures, lambda values, tag: calls.append((values, tag)), "tag")
        for count, index in enumerate(order, start=1):
            assert calls == []  # not before the last one is in
            futures[index].resolve(f"v{index}")
            assert len(calls) == (count == 5)
        assert calls == [([f"v{i}" for i in range(5)], "tag")]

    def test_already_resolved_inputs(self):
        futures = [Future(), Future()]
        futures[1].resolve(2)
        futures[0].resolve(1)
        calls = []
        gather(futures, calls.append)
        assert calls == [[1, 2]]

    def test_fires_exactly_once(self):
        futures = [Future(), Future()]
        calls = []
        gather(futures, calls.append)
        for future in futures:
            future.resolve("v")
        for future in futures:
            with pytest.raises(FutureAlreadyResolved):
                future.resolve("again")
        assert calls == [["v", "v"]]

    def test_gathers_mapped_values(self):
        futures = [Future().map(str.upper), Future().map(len)]
        calls = []
        gather(futures, calls.append)
        futures[0].resolve("a")
        futures[1].resolve("abc")
        assert calls == [["A", 3]]

    def test_failed_input_raises_where_it_failed_and_never_calls(self):
        futures = [Future(), Future()]
        calls = []
        gather(futures, calls.append)
        with pytest.raises(KeyError):
            futures[0].fail(KeyError("k"))
        futures[1].resolve("late")
        assert calls == []
