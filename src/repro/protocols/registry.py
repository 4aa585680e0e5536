"""The protocol registry: named consistency protocols as first-class objects.

Mirrors :mod:`repro.workload.profiles`: a :class:`ProtocolSpec` bundles
everything that distinguishes one protocol variant from another — the server
class (a :class:`~repro.protocols.engine.ProtocolServer` subclass composing
the four engine components) and the client class — plus display metadata for
``python -m repro protocols``.  Protocols are looked up by name, so they
travel across process boundaries (sweep workers, CLI flags) as plain
strings.

New scenario PRs start by registering a protocol, not by forking the
server: subclass one component (usually the read protocol), compose it into
a server class, and :func:`register` a spec.  The recipe is documented in
docs/protocol.md.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Tuple, Type

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    from ..core.client import PaRiSClient
    from .engine import ProtocolServer


class UnknownProtocolError(ValueError):
    """Raised when a protocol name is not in the registry.

    A ``ValueError`` so callers that predate the registry (``build_cluster``
    used to raise ``ValueError`` for unknown names) keep working unchanged.
    """


@dataclass(frozen=True)
class ProtocolSpec:
    """One named protocol variant: its server/client classes and metadata."""

    name: str
    description: str
    #: The composed server class built from the four engine components.
    server_cls: "Type[ProtocolServer]"
    #: The session/client class paired with the server.
    client_cls: "Type[PaRiSClient]"
    #: Where transaction snapshots come from (display only).
    snapshot: str = "ust"
    #: When an update becomes readable at a replica (display only).
    visibility: str = "ust"
    #: Whether read slices can block waiting for installation.
    blocking_reads: bool = False
    #: The consistency level this protocol claims — what ``repro run --big``
    #: verifies: ``"tcc"`` (causal snapshots, atomic visibility, session
    #: guarantees) or ``"session"`` (read-your-writes + monotonic reads
    #: only; the contract of eventually consistent variants).
    consistency: str = "tcc"

    def __post_init__(self) -> None:
        if not re.fullmatch(r"[a-z0-9_]+", self.name):
            raise ValueError(f"protocol name must be [a-z0-9_]+: {self.name!r}")
        if self.consistency not in ("tcc", "session"):
            raise ValueError(
                f"consistency must be 'tcc' or 'session': {self.consistency!r}"
            )


_REGISTRY: Dict[str, ProtocolSpec] = {}


def register(spec: ProtocolSpec) -> ProtocolSpec:
    """Add a protocol to the registry (rejecting duplicate names)."""
    if spec.name in _REGISTRY:
        raise ValueError(f"protocol {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def unregister(name: str) -> None:
    """Remove a protocol from the registry (test/plugin teardown hook)."""
    _REGISTRY.pop(name, None)


def get_protocol(name: str) -> ProtocolSpec:
    """Look a protocol up by name; unknown names list the catalogue."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownProtocolError(
            f"unknown protocol {name!r}; registered: {protocol_names()}"
        ) from None


def is_registered(name: str) -> bool:
    """Whether ``name`` is a registered protocol."""
    return name in _REGISTRY


def protocol_names() -> Tuple[str, ...]:
    """All registered protocol names, in registration order."""
    return tuple(_REGISTRY)


def all_protocols() -> Tuple[ProtocolSpec, ...]:
    """All registered protocol specs, in registration order."""
    return tuple(_REGISTRY.values())
