"""Seeded random fault schedules ("chaos mode").

``repro chaos --plan-out PLAN`` writes one; ``repro run --big --faults PLAN``
with the same cluster flags runs it under the consistency checker.

Generates a :class:`~repro.faults.plan.FaultPlan` of randomised fault
*episodes* — crash windows, partition windows, link degradations, clock
steps, and membership churn (replica leave/rejoin and join/retire) — from a
single seed, shaped so that:

* every fault is undone before the plan's horizon (the run ends healthy,
  letting backlogs drain so the consistency checker sees complete sessions);
* no server is crashed twice concurrently and at least one replica of every
  partition stays up (the paper's fail-stop model assumes a quorum of
  durable state; killing all replicas of a partition just halts the load);
* crash and membership episodes never share a target, so a replica is never
  asked to drain while crashed (the plan validator rejects that);
* membership windows are wider than the default drain delay, so a departing
  replica genuinely retires before any rejoin;
* the same ``(seed, spec, horizon)`` triple always yields the same plan.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Set, Tuple

from ..cluster.topology import ClusterSpec
from .plan import FaultEvent, FaultPlan

#: Episode kinds the generator may draw, with relative weights.
EPISODE_KINDS: Tuple[Tuple[str, float], ...] = (
    ("crash", 3.0),
    ("partition", 3.0),
    ("degrade", 2.0),
    ("skew", 1.0),
    ("leave", 1.5),
    ("join", 1.5),
)

#: Largest clock step (seconds) a ``skew`` episode may apply.
MAX_SKEW = 0.01

#: Minimum width of a membership window — wider than the default
#: ``ReconfigConfig.drain_delay`` so the leaver truly retires in between.
MEMBERSHIP_MARGIN = 0.35


def random_plan(
    spec: ClusterSpec,
    *,
    seed: int,
    horizon: float,
    episodes: int = 6,
    start: Optional[float] = None,
    kinds: Sequence[Tuple[str, float]] = EPISODE_KINDS,
) -> FaultPlan:
    """A seeded random plan of ``episodes`` fault episodes within ``horizon``.

    Episodes begin no earlier than ``start`` (default: 15 % of the horizon,
    leaving the stabilization plane time to converge) and every window closes
    by 85 % of the horizon.  Draws landing on an exhausted target are redrawn,
    so the requested count is met unless the deployment runs out of fresh
    targets (e.g. every DC pair already has a partition window); the search
    is bounded, deterministic in ``seed``, and may then fall short.
    """
    if horizon <= 0:
        raise ValueError(f"horizon must be positive: {horizon}")
    if episodes < 1:
        raise ValueError(f"episodes must be >= 1: {episodes}")
    rng = random.Random(seed)
    first = start if start is not None else 0.15 * horizon
    last = 0.85 * horizon
    if not 0 <= first < last:
        raise ValueError(f"no room for episodes in [{first}, {last}]")

    events: List[FaultEvent] = []
    # One episode per target, so windows of one target never overlap (an
    # overlapping crash/crash would be rejected by the plan validator, and an
    # overlapping partition/heal pair would not mean what the plan says).
    # Crash and membership episodes share one exhaustion set: a replica that
    # crashes somewhere in the plan is never also asked to leave or join —
    # the validator rejects draining a crashed replica, and keeping the
    # target sets disjoint sidesteps the temporal interleaving entirely.
    # A draw that lands on an exhausted target is *redrawn*, not consumed, so
    # the plan carries the requested number of episodes whenever the
    # deployment still has fresh targets (small deployments can run out — the
    # attempt budget below bounds that search deterministically).
    used_servers: Set[Tuple[int, int]] = set()
    partitioned: Set[Tuple[int, int]] = set()
    degraded: Set[Tuple[int, int]] = set()
    population = [kind for kind, _ in kinds]
    weights = [weight for _, weight in kinds]
    made = 0
    attempts_left = episodes * 20
    membership_ok = last - first > MEMBERSHIP_MARGIN
    while made < episodes and attempts_left > 0:
        attempts_left -= 1
        kind = rng.choices(population, weights=weights)[0]
        begin = rng.uniform(first, last)
        end = rng.uniform(begin, last)
        if kind == "crash":
            target = _spared_server(spec, rng, used_servers)
            if target is None:
                continue  # every further crash would lose a partition
            dc, partition = target
            used_servers.add(target)
            events.append(FaultEvent(at=begin, action="crash", dc=dc, partition=partition))
            events.append(FaultEvent(at=end, action="recover", dc=dc, partition=partition))
        elif kind == "partition" and spec.n_dcs >= 2:
            pair = tuple(sorted(rng.sample(range(spec.n_dcs), 2)))
            if pair in partitioned:
                continue
            partitioned.add(pair)
            events.append(FaultEvent(at=begin, action="partition", dcs=pair))
            events.append(FaultEvent(at=end, action="heal", dcs=pair))
        elif kind == "degrade" and spec.n_dcs >= 2:
            pair = tuple(sorted(rng.sample(range(spec.n_dcs), 2)))
            if pair in degraded:
                continue
            degraded.add(pair)
            events.append(
                FaultEvent(
                    at=begin,
                    action="degrade",
                    dcs=pair,
                    extra_latency=rng.uniform(0.01, 0.1),
                    loss=rng.uniform(0.0, 0.2),
                )
            )
            events.append(FaultEvent(at=end, action="restore", dcs=pair))
        elif kind == "skew":
            # Skew shares the exhaustion set too: a skew scheduled inside a
            # leave window would target a replica that no longer exists.
            candidates = [
                (dc, partition)
                for dc in range(spec.n_dcs)
                for partition in spec.dc_partitions(dc)
                if (dc, partition) not in used_servers
            ]
            if not candidates:
                continue
            dc, partition = rng.choice(candidates)
            used_servers.add((dc, partition))
            events.append(
                FaultEvent(
                    at=begin,
                    action="skew",
                    dc=dc,
                    partition=partition,
                    offset=rng.uniform(-MAX_SKEW, MAX_SKEW),
                )
            )
        elif kind == "leave" and membership_ok:
            # Retire an existing replica, rejoin it before the horizon.
            target = _spared_server(spec, rng, used_servers)
            if target is None:
                continue
            dc, partition = target
            used_servers.add(target)
            begin = rng.uniform(first, last - MEMBERSHIP_MARGIN)
            end = rng.uniform(begin + MEMBERSHIP_MARGIN, last)
            events.append(
                FaultEvent(at=begin, action="remove_replica", dc=dc, partition=partition)
            )
            events.append(
                FaultEvent(at=end, action="add_replica", dc=dc, partition=partition)
            )
        elif kind == "join" and membership_ok:
            # Join a brand-new replica, retire it again before the horizon.
            target = _joinable_server(spec, rng, used_servers)
            if target is None:
                continue
            dc, partition = target
            used_servers.add(target)
            begin = rng.uniform(first, last - MEMBERSHIP_MARGIN)
            end = rng.uniform(begin + MEMBERSHIP_MARGIN, last)
            events.append(
                FaultEvent(at=begin, action="add_replica", dc=dc, partition=partition)
            )
            events.append(
                FaultEvent(at=end, action="remove_replica", dc=dc, partition=partition)
            )
        else:
            continue  # no eligible target for this kind; redraw
        made += 1
    events.sort(key=lambda event: event.at)  # stable: same-time keeps episode order
    return FaultPlan(events=tuple(events), name=f"chaos-seed{seed}")


def _spared_server(
    spec: ClusterSpec, rng: random.Random, used: Set[Tuple[int, int]]
) -> Optional[Tuple[int, int]]:
    """A random untargeted (dc, partition) with a peer replica no episode touches.

    Crashing or retiring it leaves its partition served by that peer: peers
    that another episode crashes or retires are not counted on.
    """
    candidates = []
    for dc in range(spec.n_dcs):
        for partition in spec.dc_partitions(dc):
            if (dc, partition) not in used and any(
                peer != dc and (peer, partition) not in used
                for peer in spec.replica_dcs(partition)
            ):
                candidates.append((dc, partition))
    if not candidates:
        return None
    return rng.choice(candidates)


def _joinable_server(
    spec: ClusterSpec, rng: random.Random, used: Set[Tuple[int, int]]
) -> Optional[Tuple[int, int]]:
    """A random (dc, partition) pair the spec placement does *not* replicate."""
    candidates = []
    for dc in range(spec.n_dcs):
        hosted = set(spec.dc_partitions(dc))
        for partition in range(spec.n_partitions):
            if partition in hosted or (dc, partition) in used:
                continue
            candidates.append((dc, partition))
    if not candidates:
        return None
    return rng.choice(candidates)
