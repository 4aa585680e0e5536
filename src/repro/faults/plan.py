"""Declarative fault schedules: the *what and when* of fault injection.

A :class:`FaultPlan` is an ordered list of :class:`FaultEvent` entries, each
naming an action, the simulated time it fires at, and its target.  Plans are
plain data — they can be written by hand, loaded from JSON (``repro run
--faults plan.json``), or generated from a seed (:mod:`repro.faults.chaos`) —
and are applied by :class:`repro.faults.engine.FaultInjector`.

Every action is declared once, in :data:`ACTIONS`: its scope and the fields
an event of it may set.  docs/faults.md describes each one and the JSON
schema.  Field types are enforced (ids are integers, times and effects are
finite numbers), because plans arrive from files and HTTP bodies.

Determinism: a plan carries no randomness of its own.  Fault times are
absolute simulated seconds, events must be listed in non-decreasing ``at``
order (out-of-order plans are rejected — equal times apply in plan order),
and any randomness a fault *induces* (e.g. loss retransmission draws) flows
through dedicated named RNG streams — so one (seed, plan) pair always yields
one trajectory.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Any, Dict, Iterator, NamedTuple, Optional, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..cluster.topology import ClusterSpec


class FaultPlanError(ValueError):
    """Raised for malformed fault events or plans."""


class Action(NamedTuple):
    """What one fault action acts on, and which fields its events set."""

    #: ``"server"``: one replica, applied only by the shard that hosts it;
    #: ``"link"``: inter-DC links, applied in every shard (held and degraded
    #: traffic lives at the sender); ``"membership"``: run by
    #: :class:`~repro.faults.reconfig.ReconfigManager`.
    scope: str
    #: The accepted target forms, each the space-separated fields an event
    #: sets ("" targets nothing).
    forms: Tuple[str, ...]
    #: Effect fields an event may set on top of its target form.
    effects: str = ""

    def hint(self) -> str:
        """The fields this action takes, as error messages name them."""
        forms = " or ".join(
            " and ".join(f"'{name}'" for name in form.split()) or "nothing"
            for form in self.forms
        )
        effects = " and/or ".join(f"'{name}'" for name in self.effects.split())
        return f"{forms} with {effects}" if effects else forms


#: Every action a :class:`FaultEvent` may carry, declared once.
ACTIONS: Dict[str, Action] = {
    "crash": Action("server", ("dc partition",)),
    "recover": Action("server", ("dc partition",)),
    "partition": Action("link", ("dcs", "dc")),  # sever a pair, or isolate a DC
    "heal": Action("link", ("dcs", "")),  # one pair, or everything
    "degrade": Action("link", ("dcs",), "extra_latency loss"),
    "restore": Action("link", ("dcs", "")),
    "skew": Action("server", ("dc partition",), "offset"),
    "add_replica": Action("membership", ("dc partition",)),
    "remove_replica": Action("membership", ("dc partition",)),
    "add_dc": Action("membership", ("dc",)),
    "remove_dc": Action("membership", ("dc",)),
}


def _is_int(value: Any) -> bool:
    """A JSON integer (``bool`` is an ``int`` to Python, never an id here)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite(value: Any) -> bool:
    """A JSON number that is neither NaN nor infinite."""
    return _is_int(value) or (isinstance(value, float) and math.isfinite(value))


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: an action applied to a target at time ``at``."""

    #: Absolute simulated time (seconds) the fault fires at.
    at: float
    #: One of :data:`ACTIONS`.
    action: str
    #: Target DC (server actions, or ``partition`` meaning *isolate this DC*).
    dc: Optional[int] = None
    #: Target partition within ``dc`` (server actions).
    partition: Optional[int] = None
    #: Target DC pair (link actions).
    dcs: Optional[Tuple[int, int]] = None
    #: Seconds added to every delivery on a degraded link.
    extra_latency: float = 0.0
    #: Per-transmission loss probability on a degraded link (in [0, 1)).
    loss: float = 0.0
    #: Clock-offset step in seconds (``skew`` only; may be negative).
    offset: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.action, str) or self.action not in ACTIONS:
            raise FaultPlanError(f"unknown action {self.action!r}; choose from {tuple(ACTIONS)}")
        for name in ("at", "extra_latency", "loss", "offset"):
            value = getattr(self, name)
            if not _is_finite(value):
                raise FaultPlanError(f"'{name}' must be a finite number: {value!r}")
        for name in ("dc", "partition"):
            value = getattr(self, name)
            if value is not None and not _is_int(value):
                raise FaultPlanError(f"'{name}' must be an integer: {value!r}")
        if self.at < 0:
            raise FaultPlanError(f"fault time must be non-negative: {self.at}")
        if self.dcs is not None:
            if not isinstance(self.dcs, (list, tuple)) or not all(map(_is_int, self.dcs)):
                raise FaultPlanError(f"'dcs' must be a pair of integer DC ids: {self.dcs!r}")
            object.__setattr__(self, "dcs", tuple(self.dcs))
            if len(self.dcs) != 2 or self.dcs[0] == self.dcs[1]:
                raise FaultPlanError(f"dcs must name two distinct DCs: {self.dcs}")
        # Reject fields the action does not use: a "lossy partition" or a
        # crash with "dcs" would otherwise parse and then silently mean
        # something different from what the plan author wrote.
        action = ACTIONS[self.action]
        # Target and effect fields are the ones after 'at' and 'action'.
        given = {f.name for f in fields(self)[2:] if getattr(self, f.name) != f.default}
        forms = [set(form.split()) for form in action.forms]
        effects = set(action.effects.split())
        unused = sorted(given - effects.union(*forms))
        if unused:
            raise FaultPlanError(
                f"{self.action!r} does not use field(s) {unused}; it takes {action.hint()}"
            )
        if not any(form <= given <= form | effects for form in forms):
            raise FaultPlanError(f"{self.action!r} needs {action.hint()}")
        if self.action == "degrade" and self.extra_latency <= 0.0 and self.loss <= 0.0:
            raise FaultPlanError("'degrade' needs extra_latency > 0 and/or loss > 0")
        if self.extra_latency < 0:
            raise FaultPlanError(f"extra_latency must be non-negative: {self.extra_latency}")
        if not 0.0 <= self.loss < 1.0:
            raise FaultPlanError(f"loss must be in [0, 1): {self.loss}")

    def to_dict(self) -> Dict[str, Any]:
        """A minimal JSON-ready mapping (default-valued fields omitted)."""
        data: Dict[str, Any] = {"at": self.at, "action": self.action}
        for f in fields(self)[2:]:
            value = getattr(self, f.name)
            if value != f.default:
                data[f.name] = list(value) if f.name == "dcs" else value
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultEvent":
        """Parse one event mapping, rejecting unknown keys."""
        if not isinstance(data, dict):
            raise FaultPlanError(f"fault event must be a mapping, got {type(data).__name__}")
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise FaultPlanError(f"unknown fault event keys: {sorted(unknown)}")
        missing = {"at", "action"} - set(data)
        if missing:
            raise FaultPlanError(f"fault event is missing keys: {sorted(missing)}")
        return cls(**data)


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, validated schedule of fault events."""

    events: Tuple[FaultEvent, ...] = ()
    name: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.name, str):
            raise FaultPlanError(f"plan 'name' must be a string: {self.name!r}")
        events = tuple(self.events)
        object.__setattr__(self, "events", events)
        # Reject out-of-order schedules instead of silently re-sorting:
        # membership and crash/recover pairings are order-sensitive, and a
        # silently reordered plan no longer means what its author wrote.
        for index, (prev, cur) in enumerate(zip(events, events[1:])):
            if cur.at < prev.at:
                raise FaultPlanError(
                    f"events out of order: event {index + 1} "
                    f"({cur.action!r} at t={cur.at}) fires before event {index} "
                    f"({prev.action!r} at t={prev.at}); list events in "
                    f"non-decreasing 'at' order (equal times keep plan order)"
                )
        for _ in self._walk():
            pass

    def _walk(self) -> Iterator[Tuple[FaultEvent, Set[Tuple[int, int]]]]:
        """Each event with the servers crashed when it fires.

        Rejects schedules that crash a server twice or recover a live one.
        """
        down: Set[Tuple[int, int]] = set()
        for event in self.events:
            yield event, down
            target = (event.dc, event.partition)
            if event.action == "crash":
                if target in down:
                    raise FaultPlanError(f"server {target} crashed twice without recovery")
                down.add(target)
            elif event.action == "recover":
                if target not in down:
                    raise FaultPlanError(f"server {target} recovered without a prior crash")
                down.discard(target)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    @property
    def horizon(self) -> float:
        """The firing time of the last event (0.0 for an empty plan)."""
        return self.events[-1].at if self.events else 0.0

    def validate_for(self, spec: "ClusterSpec") -> None:
        """Check every event's target against a concrete deployment.

        Walks the plan in time order while simulating the membership it
        induces, so server and membership actions are checked against the
        placement *at their firing time*, not the static spec: a ``crash``
        of a replica an earlier ``remove_replica`` retired is rejected, a
        ``crash`` of a replica an earlier ``add_replica`` created is
        accepted, and contradictory membership pairs (removing a
        non-member, re-adding a member, retiring a crashed replica that
        can no longer drain) fail with errors naming the earlier event.
        """
        # Late import: cluster does not import faults, so no cycle.
        from ..cluster.membership import Membership, MembershipError

        membership = Membership(spec)
        for event, down in self._walk():
            where = f"event at t={event.at} ({event.action!r})"
            dc, partition = event.dc, event.partition
            for target_dc in (dc, *(event.dcs or ())):
                if target_dc is not None and not 0 <= target_dc < spec.n_dcs:
                    raise FaultPlanError(
                        f"{where}: DC {target_dc} out of range (deployment has "
                        f"{spec.n_dcs} DCs)"
                    )
            scope = ACTIONS[event.action].scope
            if scope == "server" and partition not in membership.dc_partitions(dc):
                raise FaultPlanError(
                    f"{where}: DC {dc} hosts no replica of partition "
                    f"{partition} at that time (hosted: {membership.dc_partitions(dc)})"
                )
            if scope != "membership":
                continue
            if event.action == "remove_replica" and (dc, partition) in down:
                raise FaultPlanError(
                    f"{where}: replica {(dc, partition)} is crashed at that time and "
                    f"cannot drain; 'recover' it before retiring it"
                )
            if event.action == "remove_dc":
                crashed = [p for p in membership.dc_partitions(dc) if (dc, p) in down]
                if crashed:
                    raise FaultPlanError(
                        f"{where}: DC {dc} has crashed replicas of partitions "
                        f"{crashed} that cannot drain; 'recover' them before "
                        f"removing the DC"
                    )
            try:
                if event.action == "add_replica":
                    membership.add_replica(dc, partition)
                elif event.action == "remove_replica":
                    membership.remove_replica(dc, partition)
                elif event.action == "add_dc":
                    membership.activate_dc(dc)
                    for hosted in spec.dc_partitions(dc):
                        membership.add_replica(dc, hosted)
                else:
                    for hosted in membership.dc_partitions(dc):
                        membership.remove_replica(dc, hosted)
                    membership.deactivate_dc(dc)
            except MembershipError as exc:
                raise FaultPlanError(f"{where}: {exc}") from exc

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready mapping of the whole plan."""
        data: Dict[str, Any] = {"events": [event.to_dict() for event in self.events]}
        if self.name:
            data["name"] = self.name
        return data

    def to_json(self, indent: int = 2) -> str:
        """Serialise the plan to a JSON document."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultPlan":
        """Parse a plan mapping, rejecting unknown keys."""
        if not isinstance(data, dict):
            raise FaultPlanError(f"fault plan must be a mapping, got {type(data).__name__}")
        unknown = set(data) - {"events", "name"}
        if unknown:
            raise FaultPlanError(f"unknown fault plan keys: {sorted(unknown)}")
        events = data.get("events", [])
        if not isinstance(events, list):
            raise FaultPlanError("'events' must be a list")
        return cls(
            events=tuple(FaultEvent.from_dict(event) for event in events),
            name=data.get("name", ""),
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Parse a plan from a JSON document."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FaultPlanError(f"fault plan is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        """Load a plan from a JSON file."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())

    def dump(self, path: str) -> None:
        """Write the plan to a JSON file."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json() + "\n")
