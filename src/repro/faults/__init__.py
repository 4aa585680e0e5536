"""Deterministic fault injection: declarative schedules applied to a cluster.

* :mod:`repro.faults.plan` — the :class:`FaultPlan` / :class:`FaultEvent`
  schema (JSON-serialisable, validated against a deployment);
* :mod:`repro.faults.engine` — the :class:`FaultInjector` that applies a
  plan through hooks in the network fabric, servers and clocks;
* :mod:`repro.faults.chaos` — seeded random plan generation (``repro chaos``
  writes one; ``repro run --big --faults`` runs it under the checker).
"""

from .chaos import random_plan
from .engine import FaultInjectionError, FaultInjector
from .plan import ACTIONS, FaultEvent, FaultPlan, FaultPlanError

__all__ = [
    "ACTIONS",
    "FaultEvent",
    "FaultPlan",
    "FaultPlanError",
    "FaultInjectionError",
    "FaultInjector",
    "random_plan",
]
