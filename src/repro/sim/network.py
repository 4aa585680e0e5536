"""Simulated message fabric: FIFO point-to-point links, RPC, fault injection.

The paper assumes "point-to-point lossless FIFO channels (e.g., a TCP
socket)" (Section II-C).  We reproduce that contract:

* per ``(src, dst)`` link, messages are delivered in send order even though
  individual latency draws are jittered;
* links never lose messages.  A DC-level network partition *holds* traffic
  (as TCP backpressure/retransmission would) and releases it in order when
  the partition heals; a *degraded* link (see :meth:`Network.degrade_link`)
  delivers late — packet loss shows up as retransmission delay, never as a
  missing message.

:class:`Node` is the base class for every protocol participant (servers and
clients).  It provides one-way sends, request/response RPC with correlation
ids, and handler dispatch by message type.  Inbound messages are charged to
the node's CPU model, which is how server saturation arises.

Hot-path design: same-DC traffic dominates PaRiS (client/coordinator/cohort
RPCs stay inside one DC), so those sends take a fast path that uses the
constant LAN one-way delay — never a jittered draw, so a run's trajectory is
identical whether or not it is being traced — and skip the tracer when
tracing is off.  Envelopes/endpoints are ``__slots__`` dataclasses scheduled
through the kernel's no-handle ``post_at`` path, which carries the envelope
as the event's argument: a same-DC hop is one frame in :meth:`Network.send`
(metrics, FIFO floor, ``post_at(t, deliver, envelope)``), one in
:meth:`Node._receive` (``cpu.submit(cost, self._dispatch, envelope)``) and
no closure anywhere.  Inter-DC sends always sample the WAN latency model.

Determinism across sharding: jitter and loss draws come from *per-source-DC*
streams (``network.jitter.d<src>`` / ``network.loss.d<src>``), and every
delay component — jitter, degradation, retransmits, the FIFO link-clock
floor — is computed at the **sender**.  A DC's outbound draw order is then a
function of that DC's own event order alone, which is what lets the sharded
runner (:mod:`repro.sim.sharded`) split DCs across processes and still
replay the exact single-kernel trajectory: a shard computes final delivery
times for cross-shard envelopes locally, buffers them as flat wire tuples
in one bucket per destination shard (see
:meth:`Network.enable_shard_routing`), and the receiving shard injects them
unchanged with :meth:`Network.inject`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .cpu import Cpu
from .future import Future
from .kernel import Simulator
from .latency import LatencyModel
from .rng import RngRegistry
from .trace import GLOBAL_TRACER, Tracer

Address = str

#: One cross-shard delivery as it crosses a window barrier:
#: ``(deliver_at, src, dst, payload, rpc_id, is_reply, send_time)`` — the
#: sender's final delivery time followed by :class:`Envelope`'s fields in
#: order.  Unlike an :class:`Envelope`, whose slots pickle through Python
#: ``__getstate__``/``__setstate__`` calls, a flat tuple pickles in C.
Wire = Tuple[float, Address, Address, Any, Optional[int], bool, float]


def dc_of_address(address: Address) -> int:
    """DC id encoded in a node address (``server/d2/p0`` -> ``2``).

    Every node address in the deployment embeds its DC as the second
    ``/``-separated component (``d<id>``); under shard routing a send uses
    this to bucket an envelope whose destination lives in another shard's
    process and therefore has no registered endpoint here.
    """
    try:
        component = address.split("/", 2)[1]
        if not component.startswith("d"):
            raise ValueError(address)
        return int(component[1:])
    except (IndexError, ValueError) as exc:
        raise ValueError(f"address does not encode a DC id: {address!r}") from exc

#: Minimum spacing between deliveries on one link, to keep FIFO order strict.
_FIFO_EPSILON = 1e-9

#: Retransmission timeout charged per lost transmission on a lossy link
#: (Linux TCP's minimum RTO).  Loss never *drops* an envelope — the channel
#: contract stays lossless FIFO — it delays it by one RTO per lost attempt.
RETRANSMIT_TIMEOUT = 0.2

#: Cap on consecutive loss draws per envelope, so a (validated-out) loss
#: probability approaching 1 cannot stall the simulation.
_MAX_RETRANSMITS = 64


@dataclass(slots=True)
class Envelope:
    """A message in flight.

    One per hop, so :class:`Node` builds it positionally: the field order is
    part of the interface.
    """

    src: Address
    dst: Address
    payload: Any
    rpc_id: Optional[int] = None
    is_reply: bool = False
    send_time: float = 0.0


@dataclass(slots=True)
class _Endpoint:
    dc_id: int
    deliver: Callable[[Envelope], None]


@dataclass(slots=True)
class NetworkMetrics:
    """Counters of fabric traffic, by payload type and DC scope.

    :meth:`Network.send` is the only writer and counts in its own frame.
    """

    messages_total: int = 0
    messages_inter_dc: int = 0
    #: Causal-metadata wire bytes (snapshots, vectors, dependency lists);
    #: summed from each payload's ``metadata_bytes()`` when it has one.
    metadata_bytes_total: int = 0
    by_type: Dict[str, int] = field(default_factory=dict)


class Network:
    """The message fabric shared by all nodes of one simulation."""

    __slots__ = (
        "_sim",
        "_latency",
        "_jitter_rngs",
        "_loss_rngs",
        "_tracer",
        "_lan_delay",
        "_endpoints",
        "_link_clock",
        "_partitioned",
        "_degraded",
        "_held",
        "_local_dcs",
        "_shard_of",
        "_buckets",
        "metrics",
    )

    def __init__(
        self,
        sim: Simulator,
        latency: LatencyModel,
        rngs: RngRegistry,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self._sim = sim
        self._latency = latency
        #: One jitter stream per *source* DC, so a DC's outbound draw order
        #: depends only on that DC's own send order — the property that lets
        #: sharded runs replay the single-kernel trajectory exactly.
        self._jitter_rngs = [
            rngs.stream(f"network.jitter.d{dc}") for dc in range(latency.n_dcs)
        ]
        #: Dedicated per-source-DC streams for loss draws on degraded links:
        #: drawing from them never perturbs jitter (or any other) streams,
        #: so a healthy run and a faulted run share their trajectory up to
        #: the first fault.
        self._loss_rngs = [
            rngs.stream(f"network.loss.d{dc}") for dc in range(latency.n_dcs)
        ]
        self._tracer = tracer if tracer is not None else GLOBAL_TRACER
        #: When shard routing is on: the DCs simulated by this process.
        self._local_dcs: Optional[frozenset[int]] = None
        #: When shard routing is on: the shard that simulates each DC.
        self._shard_of: Sequence[int] = ()
        #: Buffered cross-shard deliveries, one bucket per destination shard.
        self._buckets: List[List[Wire]] = []
        #: Constant intra-DC one-way delay used by the untraced fast path
        #: (the LAN base latency is the same for every DC).
        self._lan_delay = latency.base_one_way(0, 0)
        self._endpoints: Dict[Address, _Endpoint] = {}
        self._link_clock: Dict[Tuple[Address, Address], float] = {}
        self._partitioned: set[frozenset[int]] = set()
        #: Per DC-pair (extra one-way latency, loss probability) overrides.
        self._degraded: Dict[frozenset[int], Tuple[float, float]] = {}
        self._held: Dict[Tuple[Address, Address], List[Envelope]] = {}
        self.metrics = NetworkMetrics()

    @property
    def sim(self) -> Simulator:
        """The simulation kernel this fabric is attached to."""
        return self._sim

    @property
    def latency_model(self) -> LatencyModel:
        """The WAN latency model in use."""
        return self._latency

    @property
    def tracer(self) -> Tracer:
        """The tracer receiving ``net`` records (when enabled)."""
        return self._tracer

    def register(self, address: Address, dc_id: int, deliver: Callable[[Envelope], None]) -> None:
        """Attach an endpoint; ``deliver`` is invoked for each arriving envelope."""
        if address in self._endpoints:
            raise ValueError(f"address already registered: {address}")
        self._endpoints[address] = _Endpoint(dc_id=dc_id, deliver=deliver)

    def dc_of(self, address: Address) -> int:
        """DC id that hosts ``address``.

        Registered endpoints answer authoritatively; under shard routing a
        peer in another shard has no endpoint here, so the DC id is parsed
        from the address itself (every address embeds one).
        """
        endpoint = self._endpoints.get(address)
        if endpoint is not None:
            return endpoint.dc_id
        if self._local_dcs is not None:
            return dc_of_address(address)
        raise KeyError(f"unknown address: {address}")

    # ------------------------------------------------------------------
    # Shard routing
    # ------------------------------------------------------------------
    @property
    def local_dcs(self) -> Optional[frozenset]:
        """DCs simulated in this process (None unless shard routing is on)."""
        return self._local_dcs

    def enable_shard_routing(self, local_dcs: Iterable[int], shard_of: Sequence[int]) -> None:
        """Restrict this fabric to ``local_dcs``; buffer everything else.

        ``shard_of[dc]`` is the shard that simulates ``dc``.  Sends whose
        destination DC is not local compute their full delivery time here
        (jitter, degradation, retransmits, FIFO floor — all sender-side
        state) but are appended, as a flat :data:`Wire` tuple, to the
        destination shard's bucket instead of being scheduled.  The shard
        runner drains the buckets at each window barrier and the destination
        shard schedules every entry verbatim via :meth:`inject`.
        """
        if len(shard_of) != self._latency.n_dcs:
            raise ValueError(
                f"shard_of names {len(shard_of)} DC(s); the deployment has "
                f"{self._latency.n_dcs}"
            )
        self._local_dcs = frozenset(local_dcs)
        self._shard_of = tuple(shard_of)
        self._buckets = [[] for _ in range(max(self._shard_of) + 1)]

    def drain_buckets(self) -> List[List[Wire]]:
        """Take the buffered cross-shard deliveries, indexed by destination shard."""
        buckets = self._buckets
        self._buckets = [[] for _ in buckets]
        return buckets

    def inject(self, wire: Wire) -> None:
        """Schedule a delivery computed by the sending shard.

        No metrics, tracing, link clock, or delay computation happen here —
        the sender already did all of that; this is purely the receiving
        half of a send that crossed the shard boundary.
        """
        deliver_at, src, dst, payload, rpc_id, is_reply, send_time = wire
        endpoint = self._endpoints.get(dst)
        if endpoint is None:
            raise KeyError(f"unknown address: {dst}")
        self._sim.post_at(
            deliver_at,
            endpoint.deliver,
            Envelope(src, dst, payload, rpc_id, is_reply, send_time),
        )

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, envelope: Envelope) -> None:
        """Route one envelope, honouring per-link FIFO order and partitions."""
        endpoints = self._endpoints
        src_ep = endpoints.get(envelope.src)
        dst_ep = endpoints.get(envelope.dst)
        if src_ep is None:
            raise KeyError(f"unknown address: {envelope.src}")
        if dst_ep is not None:
            dst_dc = dst_ep.dc_id
        else:
            # With shard routing on, a missing destination endpoint is the
            # normal cross-shard case: the DC id comes from the address
            # itself and the delivery is buffered rather than scheduled.
            local = self._local_dcs
            try:
                dst_dc = dc_of_address(envelope.dst) if local is not None else -1
            except ValueError:
                dst_dc = -1
            if local is None or dst_dc < 0 or dst_dc in local:
                raise KeyError(f"unknown address: {envelope.dst}")
        sim = self._sim
        envelope.send_time = now = sim.now
        src_dc = src_ep.dc_id
        payload = envelope.payload
        metrics = self.metrics
        metrics.messages_total += 1
        meta = getattr(payload, "metadata_bytes", None)
        if meta is not None:
            metrics.metadata_bytes_total += meta()
        name = type(payload).__name__
        by_type = metrics.by_type
        by_type[name] = by_type.get(name, 0) + 1
        if src_dc == dst_dc:
            # Same-DC fast path, the whole hop in this frame: never
            # partitioned, and the delay is always the constant LAN latency —
            # never a jitter draw — so enabling the tracer cannot perturb a
            # seeded run's trajectory.  Only the tracer call itself is gated
            # on tracing being on.
            tracer = self._tracer
            if tracer.enabled:
                tracer.emit(
                    now,
                    "net",
                    envelope.src,
                    dst=envelope.dst,
                    payload=name,
                    delay=self._lan_delay,
                    inter_dc=False,
                )
            # The per-link FIFO floor (as in _schedule_delivery), inline.
            link = (envelope.src, envelope.dst)
            link_clock = self._link_clock
            deliver_at = now + self._lan_delay
            floor = link_clock.get(link)
            if floor is not None and deliver_at < floor + _FIFO_EPSILON:
                deliver_at = floor + _FIFO_EPSILON
            link_clock[link] = deliver_at
            sim.post_at(deliver_at, dst_ep.deliver, envelope)
            return
        metrics.messages_inter_dc += 1
        if self.is_partitioned(src_dc, dst_dc):
            self._held.setdefault((envelope.src, envelope.dst), []).append(envelope)
            return
        self._schedule_delivery(envelope, src_dc, dst_dc)

    def _schedule_delivery(self, envelope: Envelope, src_dc: int, dst_dc: int) -> None:
        delay = self._latency.sample(self._jitter_rngs[src_dc], src_dc, dst_dc)
        if self._degraded:
            degradation = self._degraded.get(frozenset((src_dc, dst_dc)))
            if degradation is not None:
                extra, loss = degradation
                delay += extra
                if loss > 0.0:
                    loss_rng = self._loss_rngs[src_dc]
                    for _ in range(_MAX_RETRANSMITS):
                        if loss_rng.random() >= loss:
                            break
                        delay += RETRANSMIT_TIMEOUT
        endpoint = self._endpoints.get(envelope.dst)
        sim = self._sim
        tracer = self._tracer
        if tracer.enabled:
            tracer.emit(
                sim.now,
                "net",
                envelope.src,
                dst=envelope.dst,
                payload=type(envelope.payload).__name__,
                delay=delay,
                inter_dc=src_dc != dst_dc,
            )
        link = (envelope.src, envelope.dst)
        link_clock = self._link_clock
        deliver_at = sim.now + delay
        floor = link_clock.get(link)
        if floor is not None and deliver_at < floor + _FIFO_EPSILON:
            deliver_at = floor + _FIFO_EPSILON
        link_clock[link] = deliver_at
        if endpoint is None:
            # Cross-shard destination: the delivery time is final (it embeds
            # every sender-side delay component), so the receiving shard can
            # schedule it verbatim after the next barrier exchange.
            self._buckets[self._shard_of[dst_dc]].append((
                deliver_at,
                envelope.src,
                envelope.dst,
                envelope.payload,
                envelope.rpc_id,
                envelope.is_reply,
                envelope.send_time,
            ))
            return
        sim.post_at(deliver_at, endpoint.deliver, envelope)

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def partition_dcs(self, dc_a: int, dc_b: int) -> None:
        """Cut connectivity between two DCs; traffic is held, not dropped."""
        if dc_a == dc_b:
            raise ValueError("cannot partition a DC from itself")
        self._partitioned.add(frozenset((dc_a, dc_b)))

    def isolate_dc(self, dc_id: int) -> None:
        """Partition ``dc_id`` away from every other DC in the deployment."""
        for other in range(self._latency.n_dcs):
            if other != dc_id:
                self.partition_dcs(dc_id, other)

    def heal(self, dc_a: Optional[int] = None, dc_b: Optional[int] = None) -> None:
        """Heal one pair (or everything when called with no arguments)."""
        if dc_a is None and dc_b is None:
            self._partitioned.clear()
        elif dc_a is not None and dc_b is not None:
            self._partitioned.discard(frozenset((dc_a, dc_b)))
        else:
            raise ValueError("heal takes either both DC ids or neither")
        self._release_held()

    def degrade_link(
        self, dc_a: int, dc_b: int, *, extra_latency: float = 0.0, loss: float = 0.0
    ) -> None:
        """Degrade the inter-DC link: add latency and/or retransmission loss.

        ``extra_latency`` seconds are added to every one-way delivery between
        the two DCs; with probability ``loss`` each transmission is lost and
        retried after :data:`RETRANSMIT_TIMEOUT` (drawn per attempt from the
        sender DC's dedicated ``network.loss.d<src>`` stream).  FIFO order
        is preserved — a
        retransmitted envelope still blocks later sends on its link, exactly
        as TCP head-of-line blocking would.  Intra-DC links cannot be
        degraded: the fault model targets the WAN.
        """
        if dc_a == dc_b:
            raise ValueError("cannot degrade a DC's intra-DC fabric")
        if extra_latency < 0:
            raise ValueError(f"extra_latency must be non-negative: {extra_latency}")
        if not 0.0 <= loss < 1.0:
            raise ValueError(f"loss must be in [0, 1): {loss}")
        self._degraded[frozenset((dc_a, dc_b))] = (extra_latency, loss)

    def restore_link(self, dc_a: Optional[int] = None, dc_b: Optional[int] = None) -> None:
        """Undo ``degrade_link`` for one pair (or every link, with no args)."""
        if dc_a is None and dc_b is None:
            self._degraded.clear()
        elif dc_a is not None and dc_b is not None:
            self._degraded.pop(frozenset((dc_a, dc_b)), None)
        else:
            raise ValueError("restore_link takes either both DC ids or neither")

    def link_degradation(self, dc_a: int, dc_b: int) -> Tuple[float, float]:
        """Current ``(extra_latency, loss)`` override for one DC pair."""
        return self._degraded.get(frozenset((dc_a, dc_b)), (0.0, 0.0))

    def is_partitioned(self, dc_a: int, dc_b: int) -> bool:
        """Whether traffic between these DCs is currently blocked."""
        if dc_a == dc_b:
            return False
        return frozenset((dc_a, dc_b)) in self._partitioned

    def _release_held(self) -> None:
        still_held: Dict[Tuple[Address, Address], List[Envelope]] = {}
        for link, envelopes in self._held.items():
            src_dc = self.dc_of(link[0])
            dst_dc = self.dc_of(link[1])
            if self.is_partitioned(src_dc, dst_dc):
                still_held[link] = envelopes
                continue
            for envelope in envelopes:
                self._schedule_delivery(envelope, src_dc, dst_dc)
        self._held = still_held


class Node:
    """Base class for protocol participants.

    Subclasses implement handlers named ``handle_<MessageClassName>`` with
    signature ``handler(src, message, reply)``.  ``reply`` is a callable that
    sends the response of an RPC (or ``None`` for one-way messages); handlers
    may stash it and reply later, which is how blocking reads are modelled.
    """

    __slots__ = (
        "network",
        "sim",
        "address",
        "dc_id",
        "cpu",
        "_pending_rpcs",
        "_handler_cache",
        "_paused",
        "_backlog",
    )

    _rpc_counter = itertools.count(1)

    def __init__(
        self,
        network: Network,
        address: Address,
        dc_id: int,
        cpu: Optional[Cpu] = None,
    ) -> None:
        self.network = network
        self.sim = network.sim
        self.address = address
        self.dc_id = dc_id
        self.cpu = cpu
        self._pending_rpcs: Dict[int, Future] = {}
        self._handler_cache: Dict[type, Callable] = {}
        self._paused = False
        self._backlog: List[Envelope] = []
        network.register(address, dc_id, self._receive)

    # ------------------------------------------------------------------
    # Crash modelling
    # ------------------------------------------------------------------
    @property
    def paused(self) -> bool:
        """Whether inbound delivery is suspended (crashed node)."""
        return self._paused

    def pause_delivery(self) -> None:
        """Suspend processing: inbound traffic queues instead of dispatching.

        Models a fail-stop crash with durable state and TCP peers that keep
        retransmitting: nothing is lost, nothing is processed, FIFO order is
        preserved for when the node comes back.
        """
        self._paused = True

    def resume_delivery(self) -> None:
        """Process the crash backlog in arrival order and resume normally."""
        self._paused = False
        backlog, self._backlog = self._backlog, []
        for envelope in backlog:
            self._receive(envelope)

    def discard_backlog(self) -> None:
        """Drop everything queued while paused.

        A crashed node keeps its backlog (TCP peers retransmit); a node
        *retired* by a membership change does not — the process is gone, so
        traffic addressed to it between retirement and a later rejoin is
        discarded rather than replayed into the new incarnation.
        """
        self._backlog.clear()

    # ------------------------------------------------------------------
    # Outbound
    # ------------------------------------------------------------------
    def cast(self, dst: Address, payload: Any) -> None:
        """One-way send (replication, heartbeats, gossip)."""
        self.network.send(Envelope(self.address, dst, payload))

    def request(self, dst: Address, payload: Any) -> Future:
        """RPC send; the returned future resolves to the reply payload."""
        rpc_id = next(self._rpc_counter)
        future = Future()
        self._pending_rpcs[rpc_id] = future
        self.network.send(Envelope(self.address, dst, payload, rpc_id))
        return future

    # ------------------------------------------------------------------
    # Inbound
    # ------------------------------------------------------------------
    def service_cost(self, payload: Any) -> float:
        """CPU seconds charged to process ``payload``; zero by default."""
        return 0.0

    def _receive(self, envelope: Envelope) -> None:
        if self._paused:
            self._backlog.append(envelope)
            return
        if self.cpu is not None:
            self.cpu.submit(self.service_cost(envelope.payload), self._dispatch, envelope)
        else:
            self._dispatch(envelope)

    def _dispatch(self, envelope: Envelope) -> None:
        if envelope.is_reply:
            future = self._pending_rpcs.pop(envelope.rpc_id, None)
            if future is not None:
                future.resolve(envelope.payload)
            return
        payload = envelope.payload
        handler = self._handler_cache.get(type(payload))
        if handler is None:
            handler = self._handler_for(type(payload))
        reply: Optional[Callable[[Any], None]] = None
        if envelope.rpc_id is not None:
            reply = self._make_reply(envelope)
        handler(envelope.src, payload, reply)

    def _make_reply(self, envelope: Envelope) -> Callable[[Any], None]:
        def reply(payload: Any) -> None:
            """Send the RPC response back over the originating link."""
            self.network.send(
                Envelope(self.address, envelope.src, payload, envelope.rpc_id, True)
            )

        return reply

    def _handler_for(self, payload_type: type) -> Callable:
        """Resolve (and cache) ``handle_<payload type>`` on a dispatch-table miss."""
        name = f"handle_{payload_type.__name__}"
        handler = getattr(self, name, None)
        if handler is None:
            raise NotImplementedError(
                f"{type(self).__name__} has no handler {name}"
            )
        self._handler_cache[payload_type] = handler
        return handler
