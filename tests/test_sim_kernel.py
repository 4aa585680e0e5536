"""Unit tests for the discrete-event kernel: ordering, timers, processes."""

from __future__ import annotations

import ast
import pathlib
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import kernel as kernel_module
from repro.sim.future import Future
from repro.sim.kernel import SimulationError, Simulator


class TestScheduling:
    def test_time_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.call_after(0.3, lambda: fired.append("c"))
        sim.call_after(0.1, lambda: fired.append("a"))
        sim.call_after(0.2, lambda: fired.append("b"))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_equal_time_events_fire_in_scheduling_order(self):
        sim = Simulator()
        fired = []
        for label in "abcde":
            sim.call_after(1.0, lambda label=label: fired.append(label))
        sim.run()
        assert fired == list("abcde")

    def test_now_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.call_after(2.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.5]

    def test_cannot_schedule_into_the_past(self):
        sim = Simulator()
        sim.call_after(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.call_at(0.5, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().call_after(-0.1, lambda: None)

    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.call_after(1.0, lambda: fired.append("x"))
        event.cancel()
        sim.run()
        assert fired == []

    def test_run_until_stops_at_horizon(self):
        sim = Simulator()
        fired = []
        sim.call_after(1.0, lambda: fired.append(1))
        sim.call_after(3.0, lambda: fired.append(3))
        sim.run(until=2.0)
        assert fired == [1]
        assert sim.now == 2.0
        sim.run()
        assert fired == [1, 3]

    def test_events_scheduled_during_run_execute(self):
        sim = Simulator()
        fired = []

        def chain():
            fired.append(sim.now)
            if len(fired) < 3:
                sim.call_after(1.0, chain)

        sim.call_after(1.0, chain)
        sim.run()
        assert fired == [1.0, 2.0, 3.0]

    def test_event_counter(self):
        sim = Simulator()
        for _ in range(5):
            sim.call_after(0.1, lambda: None)
        sim.run()
        assert sim.events_executed == 5


class TestPeriodicTimers:
    def test_every_fires_at_period(self):
        sim = Simulator()
        ticks = []
        sim.every(0.5, lambda: ticks.append(sim.now))
        sim.run(until=2.2)
        assert ticks == [0.5, 1.0, 1.5, 2.0]

    def test_every_with_phase(self):
        sim = Simulator()
        ticks = []
        sim.every(1.0, lambda: ticks.append(sim.now), phase=0.25)
        sim.run(until=3.0)
        assert ticks == [1.25, 2.25]

    def test_every_cancel_stops_ticking(self):
        sim = Simulator()
        ticks = []
        cancel = sim.every(0.5, lambda: ticks.append(sim.now))
        sim.run(until=1.1)
        cancel()
        sim.run(until=5.0)
        assert ticks == [0.5, 1.0]

    def test_every_rejects_nonpositive_period(self):
        with pytest.raises(SimulationError):
            Simulator().every(0.0, lambda: None)

    def test_every_with_jitter(self):
        sim = Simulator()
        ticks = []
        sim.every(1.0, lambda: ticks.append(sim.now), jitter=lambda: 0.1)
        sim.run(until=3.5)
        # First tick at 1.0, subsequent intervals are 1.1.
        assert ticks == pytest.approx([1.0, 2.1, 3.2])


class TestProcesses:
    def test_process_sleeps(self):
        sim = Simulator()
        marks = []

        def proc():
            marks.append(sim.now)
            yield 1.0
            marks.append(sim.now)
            yield 0.5
            marks.append(sim.now)

        sim.spawn(proc())
        sim.run()
        assert marks == [0.0, 1.0, 1.5]

    def test_process_waits_on_future(self):
        sim = Simulator()
        future = Future()
        got = []

        def proc():
            value = yield future
            got.append((sim.now, value))

        sim.spawn(proc())
        sim.call_after(2.0, lambda: future.resolve("hi"))
        sim.run()
        assert got == [(2.0, "hi")]

    def test_process_waits_on_list_of_futures(self):
        sim = Simulator()
        futures = [Future(), Future()]

        def proc():
            values = yield futures
            return values

        process = sim.spawn(proc())
        sim.call_after(1.0, lambda: futures[1].resolve("b"))
        sim.call_after(2.0, lambda: futures[0].resolve("a"))
        sim.run()
        assert process.completed.value == ["a", "b"]

    def test_process_return_value(self):
        sim = Simulator()

        def proc():
            yield 1.0
            return 42

        process = sim.spawn(proc())
        sim.run()
        assert process.done
        assert process.completed.value == 42

    def test_failed_future_raises_inside_process(self):
        sim = Simulator()
        future = Future()
        caught = []

        def proc():
            try:
                yield future
            except ValueError as exc:
                caught.append(str(exc))

        sim.spawn(proc())
        sim.call_after(1.0, lambda: future.fail(ValueError("boom")))
        sim.run()
        assert caught == ["boom"]

    def test_uncaught_process_exception_fails_completion(self):
        sim = Simulator()

        def proc():
            yield 0.5
            raise RuntimeError("dead")

        process = sim.spawn(proc())
        sim.run()
        assert process.done
        with pytest.raises(RuntimeError, match="dead"):
            _ = process.completed.value

    def test_invalid_yield_value_raises(self):
        sim = Simulator()

        def proc():
            yield "nonsense"

        process = sim.spawn(proc())
        sim.run()
        with pytest.raises(SimulationError):
            _ = process.completed.value

    def test_negative_sleep_rejected(self):
        sim = Simulator()

        def proc():
            yield -1.0

        process = sim.spawn(proc())
        sim.run()
        with pytest.raises(SimulationError):
            _ = process.completed.value

    def test_timeout_future(self):
        sim = Simulator()

        def proc():
            value = yield sim.timeout(1.5, "done")
            return value

        process = sim.spawn(proc())
        sim.run()
        assert process.completed.value == "done"
        assert sim.now == 1.5

    def test_run_until_resolved(self):
        sim = Simulator()
        future = Future()
        sim.call_after(1.0, lambda: future.resolve(7))
        assert sim.run_until_resolved(future) == 7

    def test_run_until_resolved_raises_when_queue_drains(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.run_until_resolved(Future())


class TestEventArguments:
    """Events carry ``(fn, args)``: the arguments are part of the schedule."""

    @pytest.mark.parametrize("schedule", ["call_at", "call_after", "post_at", "post_after"])
    def test_args_reach_the_callback(self, schedule):
        sim = Simulator()
        got = []
        getattr(sim, schedule)(1.0, lambda *args: got.append(args), "envelope", 7)
        getattr(sim, schedule)(2.0, lambda *args: got.append(args))
        sim.run()
        assert got == [("envelope", 7), ()]

    def test_same_function_keeps_each_events_own_args(self):
        sim = Simulator()
        got = []
        for index in range(4):
            sim.post_after(1.0, got.append, index)
        sim.run()
        assert got == [0, 1, 2, 3]

    def test_timeout_and_sleep_use_the_args_form(self):
        sim = Simulator()

        def proc():
            yield 0.5
            return (yield sim.timeout(0.5, "value"))

        process = sim.spawn(proc())
        sim.run()
        assert (process.completed.value, sim.now) == ("value", 1.0)

    def test_cancel_releases_the_arguments_at_once(self):
        """A cancelled far-future timer must not pin its payload while it waits."""
        sim = Simulator()
        payload = _Payload()
        alive = weakref.ref(payload)
        event = sim.call_at(1e9, lambda p: None, payload)
        del payload
        assert alive() is not None
        event.cancel()
        assert alive() is None
        assert event.cancelled

    def test_nothing_of_a_fired_event_stays_in_the_kernel(self):
        """No pooled entry, no closure: once fired, an event's args are garbage."""
        sim = Simulator()
        payloads = [_Payload() for _ in range(3)]
        alive = [weakref.ref(payload) for payload in payloads]
        for payload in payloads:
            sim.post_after(1.0, lambda p: None, payload)
        del payloads, payload
        sim.post_after(2.0, lambda: None)  # later scheduling reuses nothing stale
        sim.run(until=1.5)
        assert [ref() for ref in alive] == [None, None, None]

    def test_cancelling_after_the_event_fired_is_a_noop(self):
        sim = Simulator()
        fired = []
        event = sim.call_after(1.0, fired.append, "first")
        sim.run()
        assert event.cancelled  # "or has already fired"
        sim.call_after(1.0, fired.append, "second")
        event.cancel()
        sim.run()
        assert fired == ["first", "second"]


class _Payload:
    """A weakly referenceable stand-in for an envelope."""


#: Times on a coarse grid, so same-timestamp ties and events exactly at the
#: boundary are the common case, not the rare one.
_GRID = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0])
_SCHEDULES = st.lists(
    st.tuples(_GRID, st.booleans(), st.sampled_from([None, 0.0, 0.5])), max_size=12
)


def _populate(sim, schedule):
    """Schedule ``(time, cancelled, child delay)`` entries; returns the firing log."""
    log = []

    def fire(label, child_delay):
        log.append((label, sim.now))
        if child_delay is not None:
            sim.post_after(child_delay, fire, f"{label}+", None)

    for index, (at, cancelled, child_delay) in enumerate(schedule):
        event = sim.call_at(at, fire, str(index), child_delay)
        if cancelled:
            event.cancel()
    return log


def _next_live_time(sim):
    live = [entry for entry in sim._queue if entry[2] is not None]
    return min(live)[0] if live else None


class TestOneDrainLoop:
    """``run()``, ``run(until)`` and ``run_window(until)`` against a ``step()`` loop."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        schedule=_SCHEDULES,
        until=_GRID,
        mode=st.sampled_from(["run", "run_until", "run_window"]),
    )
    def test_same_events_as_a_step_loop(self, schedule, until, mode):
        sim, twin = Simulator(), Simulator()
        log, twin_log = _populate(sim, schedule), _populate(twin, schedule)
        within = {
            "run": lambda at: True,
            "run_until": lambda at: at <= until,  # inclusive
            "run_window": lambda at: at < until,  # exclusive
        }[mode]
        while (at := _next_live_time(twin)) is not None and within(at):
            assert twin.step()
        if mode == "run":
            sim.run()
            assert sim.now == twin.now
        else:
            sim.run(until=until) if mode == "run_until" else sim.run_window(until)
            assert sim.now == max(twin.now, until)
        assert log == twin_log
        assert sim.events_executed == twin.events_executed == len(log)
        # What is left fires identically afterwards.
        sim.run()
        twin.run()
        assert log == twin_log

    def test_boundary_is_inclusive_for_run_and_exclusive_for_run_window(self):
        for runner, expected in (("run", ["at", "child"]), ("run_window", [])):
            sim = Simulator()
            fired = []

            def at_boundary():
                fired.append("at")
                sim.post_after(0.0, fired.append, "child")  # same timestamp

            sim.call_at(1.0, at_boundary).cancel()
            sim.call_at(1.0, at_boundary)
            sim.call_at(1.0, fired.append, "never").cancel()
            if runner == "run":
                sim.run(until=1.0)
            else:
                sim.run_window(1.0)
            assert fired == expected
            assert sim.now == 1.0

    @pytest.mark.parametrize("mode", ["step", "run", "run_until", "run_window"])
    def test_a_raising_callback_leaves_now_and_count_advanced(self, mode):
        """The event counts as fired and ``now`` is its time; the bound is not reached."""
        sim = Simulator()
        fired = []

        def boom():
            raise RuntimeError("boom")

        sim.post_at(0.5, fired.append, "before")
        sim.post_at(1.0, boom)
        sim.post_at(2.0, fired.append, "after")
        with pytest.raises(RuntimeError, match="boom"):
            if mode == "step":
                while sim.step():
                    pass
            elif mode == "run":
                sim.run()
            elif mode == "run_until":
                sim.run(until=5.0)
            else:
                sim.run_window(5.0)
        assert (sim.now, sim.events_executed, fired) == (1.0, 2, ["before"])
        sim.run()  # the raising event was consumed; the rest still fires
        assert (sim.now, sim.events_executed, fired) == (2.0, 3, ["before", "after"])


_SRC = pathlib.Path(kernel_module.__file__).resolve().parents[1]
#: Packages that schedule on the kernel or the CPU model.
_SCHEDULING_PACKAGES = ("sim", "protocols", "faults")
_SCHEDULING_CALLS = {"post_at", "post_after", "call_at", "call_after", "submit"}
#: Packages whose futures sit on the per-transaction path, and what takes a
#: continuation there.
_RPC_PACKAGES = ("core", "protocols")
_CONTINUATION_CALLS = {"add_done_callback", "map", "gather"}


def _closures_passed(packages, calls, nested_defs=False):
    """``path:line call`` for each ``lambda`` (and nested ``def``, if asked) passed to ``calls``."""
    offenders = []
    for package in packages:
        for path in sorted((_SRC / package).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
            nested = {
                inner.name
                for outer in functions
                for inner in ast.walk(outer)
                if nested_defs and isinstance(inner, ast.FunctionDef) and inner is not outer
            }
            for call in ast.walk(tree):
                if not isinstance(call, ast.Call):
                    continue
                name = getattr(call.func, "attr", getattr(call.func, "id", None))
                if name not in calls:
                    continue
                for arg in [*call.args, *(kw.value for kw in call.keywords)]:
                    if isinstance(arg, ast.Lambda) or (isinstance(arg, ast.Name) and arg.id in nested):
                        offenders.append(f"{path.relative_to(_SRC)}:{call.lineno} {name}")
    return offenders


def test_no_lambda_is_scheduled():
    """One way to schedule: ``fn, *args`` — never a closure built per event."""
    assert _closures_passed(_SCHEDULING_PACKAGES, _SCHEDULING_CALLS) == []


def test_no_closure_is_passed_as_a_continuation():
    """One way to continue an RPC: ``future.map(fn, *args)`` / ``gather(futures, fn, *args)``.

    Neither a ``lambda`` nor a function nested in the caller is handed to
    ``add_done_callback``, ``map`` or ``gather`` on the transaction path.
    """
    assert _closures_passed(_RPC_PACKAGES, _CONTINUATION_CALLS, nested_defs=True) == []


def test_map_future_is_gone():
    """The derived-future combinator is not defined, imported or named under ``src/``."""
    offenders = [
        str(path.relative_to(_SRC))
        for path in sorted(_SRC.rglob("*.py"))
        if "map_future" in path.read_text(encoding="utf-8")
    ]
    assert offenders == []


def _calls(tree):
    """``(called name, call node)`` for every call in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield getattr(node.func, "attr", getattr(node.func, "id", None)), node


def _enclosing_functions(tree, names):
    """Names of the outermost functions of ``tree`` that call one of ``names``."""
    return {
        outer.name
        for outer in tree.body
        if isinstance(outer, (ast.FunctionDef, ast.ClassDef))
        for name, _ in _calls(outer)
        if name in names
    }


def test_the_run_spine_is_written_once():
    """Start / drive / record live in ``bench/harness.py`` and nowhere else.

    One function opens and closes the measurement window; the CLI, the
    figures and the shard worker wire no oracle, trace sink or profiler of
    their own; and a ``SimulationConfig`` is assembled only by its own
    module and by ``config_from_params``.
    """
    trees = {
        str(path.relative_to(_SRC)): ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(_SRC.rglob("*.py"))
    }
    window_edges = {
        (relative, function)
        for relative, tree in trees.items()
        if relative not in ("workload/runner.py", "sim/stats.py")
        for function in _enclosing_functions(tree, {"open_window", "close_window"})
    }
    assert window_edges == {("bench/harness.py", "drive")}

    for relative in ("cli.py", "bench/experiments.py", "sim/sharded.py"):
        wired = {name for name, _ in _calls(trees[relative])} & {"StreamingOracle", "TraceWriter"}
        profilers = [
            node
            for node in ast.walk(trees[relative])
            if (isinstance(node, ast.Name) and node.id == "cProfile")
            or (isinstance(node, ast.Import) and any(a.name == "cProfile" for a in node.names))
        ]
        assert (relative, wired, profilers) == (relative, set(), [])

    builders = {
        relative
        for relative, tree in trees.items()
        if any(name == "SimulationConfig" for name, _ in _calls(tree))
    }
    assert builders == {"config.py", "bench/sweep.py"}
