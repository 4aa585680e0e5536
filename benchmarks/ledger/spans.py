"""Spans around the calls into each layer, recorded from outside ``src/``.

A traced repeat wraps, at class level and before ``build_cluster``, only
public callables of the simulator (the table in :func:`install`).  Every
call becomes a span ``(name, start, end, parent)``; a span's *self time* is
its duration minus the part its child spans cover, and is accumulated per
span name while the run goes on.  Span names are ``<layer>.<callable>``, so
a layer's self time is the sum over the names that share its prefix.

``Simulator.run`` is the root of a run: its self time is the event kernel
plus the private glue between a fired event and the first public callable
(``Node._receive``/``_dispatch``, ``Cpu._complete``).  ``Future.resolve``
runs the continuations that wait on an RPC; it is charged to the layer that
issued the request (``client.future`` or ``coordinator.future``), which the
``Node.request`` wrapper notes without recording a span of its own.

Live traffic dispatches to the engine components' handler methods
(``TxCoordinator.handle_read`` ...), not to the ``ProtocolServer.handle_<Msg>``
facade, so the components are what gets wrapped.

Wrappers cost host time (``layers.trace_overhead_frac``), so end-to-end
numbers always come from untraced repeats.  :func:`uninstall` restores every
original; instrumenting inside ``src/`` is a later issue.
"""

from __future__ import annotations

import json
import pathlib
import time
from array import array
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Tuple

#: ``(owner, attribute, original)`` for every patched callable.
Undo = List[Tuple[Any, str, Any]]


class Recorder:
    """In-memory spans plus running self-time, call and weight totals per name."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        # One entry per span, in start order.
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._covered = array("d")  # seconds of each span covered by its children
        self.current = -1
        # One entry per span name.
        self.self_s: List[float] = []
        self.calls: List[int] = []
        #: Per-name tally set by the hooks in :func:`install` (keys, state size).
        self.weight: List[int] = []

    def name(self, name: str) -> int:
        """The id of span name ``name`` (registered on first use)."""
        found = self._ids.get(name)
        if found is None:
            found = self._ids[name] = len(self.names)
            self.names.append(name)
            self.self_s.append(0.0)
            self.calls.append(0)
            self.weight.append(0)
        return found

    def enter(self, name_id: int) -> int:
        """Open a span under the current one; returns its index."""
        index = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self.current)
        self.end.append(0.0)
        self._covered.append(0.0)
        self.current = index
        self.calls[name_id] += 1
        self.start.append(time.perf_counter())
        return index

    def leave(self, index: int) -> None:
        """Close span ``index`` and credit its self time to its name."""
        finish = time.perf_counter()
        self.end[index] = finish
        spent = finish - self.start[index]
        self.self_s[self.name_id[index]] += spent - self._covered[index]
        parent = self.parent[index]
        if parent >= 0:
            self._covered[parent] += spent
        self.current = parent

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` with every call recorded as a span called ``name``."""
        name_id = self.name(name)
        enter, leave = self.enter, self.leave

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = enter(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(index)

        return traced

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """An explicit span around a block of the benchmark's own code."""
        index = self.enter(self.name(name))
        try:
            yield
        finally:
            self.leave(index)

    def take_totals(self) -> Dict[str, Dict[str, float]]:
        """``{name: {calls, self_s, weight}}`` of the names called since the last take."""
        totals = {
            name: {"calls": self.calls[i], "self_s": self.self_s[i], "weight": self.weight[i]}
            for i, name in enumerate(self.names)
            if self.calls[i]
        }
        # Zeroed in place: the hooks in install() hold on to these lists.
        for tally in (self.self_s, self.calls, self.weight):
            tally[:] = [0] * len(tally)
        return totals

    def write(self, path: pathlib.Path) -> None:
        """Write every span, column-wise, as integer ns since the first start."""
        origin = self.start[0] if self.start else 0.0
        document = {
            "unit": "ns since the first span started (time.perf_counter)",
            "names": self.names,
            "name": self.name_id.tolist(),
            "start": [round((t - origin) * 1e9) for t in self.start],
            "end": [round((t - origin) * 1e9) for t in self.end],
            "parent": self.parent.tolist(),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            json.dump(document, handle, separators=(",", ":"))


def layer_totals(totals: Dict[str, Dict[str, float]]) -> Dict[str, Dict[str, float]]:
    """Fold per-name totals into per-layer ``{calls, self_s}`` (prefix before ``.``)."""
    layers: Dict[str, Dict[str, float]] = {}
    for name, entry in totals.items():
        layer = layers.setdefault(name.split(".", 1)[0], {"calls": 0, "self_s": 0.0})
        layer["calls"] += entry["calls"]
        layer["self_s"] += entry["self_s"]
    return layers


def install(recorder: Recorder) -> Undo:
    """Patch every traced callable at class/module level; returns the undo list."""
    from repro.consistency import streaming
    from repro.core.client import PaRiSClient
    from repro.protocols import get_protocol
    from repro.sim.cpu import Cpu
    from repro.sim.future import Future
    from repro.sim.kernel import Simulator
    from repro.sim.network import Network, Node
    from repro.sim.trace import TraceWriter
    from repro.storage.mvstore import MultiVersionStore
    from repro.workload.generator import WorkloadGenerator

    kit = get_protocol("paris").server_cls.components
    table = [
        ("kernel", Simulator, ["run"]),
        ("network", Network, ["send"]),
        ("cpu", Cpu, ["submit"]),
        (
            "coordinator",
            kit.coordinator,
            ["handle_start_tx", "handle_read", "handle_one_shot_read", "handle_commit",
             "handle_finish_tx", "handle_prepare", "handle_commit_tx", "expire_contexts"],
        ),
        ("reads", kit.reads, ["handle_read_slice"]),
        ("replication", kit.replication, ["handle_replicate", "handle_heartbeat", "tick"]),
        (
            "stabilization",
            kit.stabilization,
            ["handle_agg_up", "handle_dc_gst", "handle_ust_broadcast", "tick", "ust_tick"],
        ),
        ("mvstore", MultiVersionStore, ["apply", "ingest", "read", "read_visible", "collect"]),
        ("client", PaRiSClient, ["start_tx", "read", "write", "commit", "finish"]),
        ("workload", WorkloadGenerator, ["next_transaction"]),
        ("oracle", streaming.StreamingOracle, ["record_read", "record_commit"]),
        ("checker", streaming.StreamingChecker, ["feed"]),
        ("trace", TraceWriter, ["write", "flush"]),
        ("trace", streaming, ["decode_event"]),
    ]
    undo: Undo = []

    def patch(owner: Any, attr: str, replacement: Callable) -> None:
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    for layer, owner, attrs in table:
        for attr in attrs:
            patch(owner, attr, recorder.wrap(getattr(owner, attr), f"{layer}.{attr}"))

    # --- hooks that tally a weight on top of the span ----------------------
    # They re-wrap callables patched above, whose undo entries already hold the
    # originals, so they are set without a second entry.
    weight = recorder.weight

    def weigh(owner: Any, attr: str, name: str, measure: Callable[..., int]) -> None:
        """Re-wrap an already traced callable so each call adds ``measure(*args)``."""
        traced = getattr(owner, attr)
        name_id = recorder.name(name)

        def weighed(*args: Any) -> Any:
            weight[name_id] += measure(*args)
            return traced(*args)

        setattr(owner, attr, weighed)

    # Keys a session asked for, and keys its client had to forward in a ReadReq.
    weigh(PaRiSClient, "read", "client.read", lambda client, keys: len(keys))
    weigh(kit.coordinator, "handle_read", "coordinator.handle_read",
          lambda coordinator, src, msg, reply: len(msg.keys))

    feed = streaming.StreamingChecker.feed
    feed_id = recorder.name("checker.feed")

    def feed_and_size(checker: Any, event: Any) -> None:
        """Track the largest in-window state the checker reached."""
        feed(checker, event)
        if checker.state_size > weight[feed_id]:
            weight[feed_id] = checker.state_size

    streaming.StreamingChecker.feed = feed_and_size

    # --- Future.resolve, charged to whoever issued the request -------------
    client_future = recorder.name("client.future")
    coordinator_future = recorder.name("coordinator.future")
    futures = (client_future, coordinator_future)
    owner_of: Dict[int, int] = {}
    request, resolve = Node.request, Future.resolve
    enter, leave = recorder.enter, recorder.leave

    def tagged_request(node: Any, dst: str, payload: Any) -> Any:
        future = request(node, dst, payload)
        owner_of[id(future)] = client_future if isinstance(node, PaRiSClient) else coordinator_future
        return future

    def traced_resolve(future: Any, value: Any = None) -> None:
        name_id = owner_of.pop(id(future), None)
        if name_id is None:
            # A derived future (map_future, all_of) resolves inside its source's
            # span and belongs to the same layer; a bare timer wakes a session.
            around = recorder.current
            inherited = recorder.name_id[around] if around >= 0 else client_future
            name_id = inherited if inherited in futures else client_future
        index = enter(name_id)
        try:
            resolve(future, value)
        finally:
            leave(index)

    patch(Node, "request", tagged_request)
    patch(Future, "resolve", traced_resolve)

    # --- read_jsonl is a generator: time each line it produces -------------
    read_jsonl = streaming.read_jsonl
    read_id = recorder.name("trace.read_jsonl")

    def traced_read_jsonl(path: Any) -> Iterator[Dict[str, Any]]:
        lines = read_jsonl(path)
        while True:
            index = enter(read_id)
            try:
                obj = next(lines, None)
            finally:
                leave(index)
            if obj is None:
                return
            yield obj

    patch(streaming, "read_jsonl", traced_read_jsonl)
    return undo


def install_sharded(recorder: Recorder) -> Undo:
    """Patch only what the parent of a sharded run calls.

    Shard workers are forked inside ``run_sharded_experiment`` and would
    inherit class-level wrappers, paying for spans nobody reads; so a sharded
    repeat traces the parent's side alone and everything the workers do shows
    up as the parent's wait in ``sharded.exchange``.
    """
    from repro import workers
    from repro.bench import harness

    undo: Undo = []
    for layer, owner, attr in [
        ("sharded", workers, "spawn_pipe_workers"),
        ("harness", harness, "merge_measures"),
        ("harness", harness, "summarize_measures"),
    ]:
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, recorder.wrap(getattr(owner, attr), f"{layer}.{attr}"))
    return undo


def uninstall(undo: Undo) -> None:
    """Restore every original, newest patch first."""
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
