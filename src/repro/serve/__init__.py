"""Serving, persistence, and replay: the simulator as a long-running service.

The package behind ``repro serve`` / ``repro replay`` (docs/serving.md):

* :mod:`repro.serve.repository` — the content-addressed run repository
  under ``results/`` (records, traces, query API);
* :mod:`repro.serve.replay` — byte-identical re-execution of any persisted
  run, asserting digest equality against the stored summary and trace;
* :mod:`repro.serve.service` — the framework-neutral HTTP service core and
  its bounded job pool;
* :mod:`repro.serve.app` — the stdlib WSGI front end.
"""

from .replay import ReplayReport, replay_run
from .repository import RepositoryError, RunRepository
from .service import JobManager, ServeService

__all__ = [
    "JobManager",
    "ReplayReport",
    "RepositoryError",
    "RunRepository",
    "ServeService",
    "replay_run",
]
