"""The serving core behind ``repro serve``: jobs, endpoints, bounded execution.

This module is deliberately framework-free: :class:`ServeService` maps
``(method, path, query, body)`` to ``(status, payload)`` dicts, and the thin
adapter in :mod:`repro.serve.app` exposes it over the stdlib's WSGI server.
Everything testable lives here.

Execution model
---------------
Launch endpoints never block the HTTP request: they validate the request
*synchronously* (bad parameters are a 400 before any work is queued), then
enqueue a job on a bounded :class:`JobManager` pool and return ``202`` with
a job id the client polls.  The pool bound (``ServeConfig.workers``) is the
oversubscription guard: any number of concurrent clients can submit, at
most that many simulations execute at once, and the rest wait in FIFO
order.  Completed runs land in the :class:`~repro.serve.repository.RunRepository`,
so results survive the process and are replayable forever after
(docs/serving.md has the endpoint reference with curl examples).
"""

from __future__ import annotations

import itertools
import pathlib
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from ..bench import results as results_mod
from ..bench.sweep import (
    DEFAULT_SEED,
    SweepSpec,
    SweepSpecError,
    config_from_params,
    execute_sweep,
    resolve_params,
    sweep_dir,
)
from ..config import ServeConfig
from .replay import replay_run
from .repository import RepositoryError, RunRepository

#: Response payload type: JSON status + body.
Response = Tuple[int, Dict[str, Any]]

#: Job lifecycle states.
JOB_STATES = ("pending", "running", "done", "failed")


@dataclass
class Job:
    """One unit of queued work (a run, a sweep, or a replay)."""

    job_id: str
    kind: str
    #: Human-readable one-liner shown in listings.
    detail: str
    status: str = "pending"
    submitted_unix: float = field(default_factory=time.time)
    started_unix: Optional[float] = None
    finished_unix: Optional[float] = None
    result: Optional[Dict[str, Any]] = None
    error: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        """The JSON view served by ``GET /jobs`` and ``GET /jobs/<id>``."""
        return {
            "job_id": self.job_id,
            "kind": self.kind,
            "detail": self.detail,
            "status": self.status,
            "submitted_unix": self.submitted_unix,
            "started_unix": self.started_unix,
            "finished_unix": self.finished_unix,
            "result": self.result,
            "error": self.error,
        }


class JobManager:
    """A bounded FIFO pool executing jobs on worker threads.

    Simulations are pure Python compute, so threads serialise on the GIL —
    but the bound is what matters: it caps how much work the *machine* has
    in flight however many clients are connected, and sweep jobs that fan
    out worker *processes* internally are clamped to the same bound.
    """

    def __init__(self, workers: int) -> None:
        self.workers = workers
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-serve"
        )
        self._jobs: Dict[str, Job] = {}
        self._lock = threading.Lock()
        self._ids = itertools.count(1)

    def submit(
        self, kind: str, detail: str, fn: Callable[[], Dict[str, Any]]
    ) -> Job:
        """Queue one job; returns it immediately in ``pending`` state."""
        with self._lock:
            job = Job(job_id=f"j{next(self._ids):06d}", kind=kind, detail=detail)
            self._jobs[job.job_id] = job

        def execute() -> None:
            job.started_unix = time.time()
            job.status = "running"
            try:
                job.result = fn()
                job.status = "done"
            except Exception as exc:  # noqa: BLE001 - jobs report, not crash
                job.error = f"{type(exc).__name__}: {exc}"
                job.status = "failed"
            finally:
                job.finished_unix = time.time()

        self._pool.submit(execute)
        return job

    def get(self, job_id: str) -> Optional[Job]:
        """Look up one job by id."""
        with self._lock:
            return self._jobs.get(job_id)

    def list(self) -> List[Job]:
        """All jobs, newest first."""
        with self._lock:
            jobs = list(self._jobs.values())
        return sorted(jobs, key=lambda j: j.job_id, reverse=True)

    def counts(self) -> Dict[str, int]:
        """Jobs per lifecycle state (the ``/health`` payload)."""
        with self._lock:
            jobs = list(self._jobs.values())
        return {state: sum(1 for j in jobs if j.status == state) for state in JOB_STATES}

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting work and (optionally) wait for in-flight jobs."""
        self._pool.shutdown(wait=wait)


#: The discovery document served at ``GET /``.
ENDPOINTS = {
    "GET /": "this endpoint index",
    "GET /health": "liveness + job/run counts",
    "GET /runs": "query persisted runs "
    "(?protocol=&workload=&preset=&source=&since=&until=&limit=)",
    "POST /runs": "launch a run: {'params': {...}, 'trace': bool} -> 202 job",
    "GET /runs/<id>": "one persisted run's full record (id prefixes >= 8 chars ok)",
    "POST /runs/<id>/replay": "re-execute and assert digest equality -> 202 job",
    "POST /sweeps": "launch a sweep: {'spec': {...}, 'workers': int} -> 202 job",
    "GET /jobs": "all jobs, newest first",
    "GET /jobs/<id>": "one job's status and result",
}


class ServeService:
    """Framework-neutral endpoint logic over a repository and a job pool."""

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig()
        self.repository = RunRepository(self.config.results_dir)
        self.jobs = JobManager(self.config.workers)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def handle(
        self,
        method: str,
        path: str,
        query: Optional[Mapping[str, str]] = None,
        body: Optional[Mapping[str, Any]] = None,
    ) -> Response:
        """Route one request; never raises for client-side errors."""
        query = dict(query or {})
        parts = [p for p in path.split("/") if p]
        try:
            if not parts:
                return self._index(method)
            head = parts[0]
            if head == "health" and len(parts) == 1:
                return self._health(method)
            if head == "runs":
                if len(parts) == 1:
                    if method == "GET":
                        return self._list_runs(query)
                    if method == "POST":
                        return self._launch_run(body)
                    return _method_not_allowed(method, path)
                if len(parts) == 2:
                    if method == "GET":
                        return self._get_run(parts[1])
                    return _method_not_allowed(method, path)
                if len(parts) == 3 and parts[2] == "replay":
                    if method == "POST":
                        return self._launch_replay(parts[1])
                    return _method_not_allowed(method, path)
            if head == "sweeps" and len(parts) == 1:
                if method == "POST":
                    return self._launch_sweep(body)
                return _method_not_allowed(method, path)
            if head == "jobs":
                if len(parts) == 1 and method == "GET":
                    return self._list_jobs()
                if len(parts) == 2 and method == "GET":
                    return self._get_job(parts[1])
                return _method_not_allowed(method, path)
            return 404, {"error": f"unknown endpoint: {method} /{'/'.join(parts)}"}
        except _BadRequest as exc:
            return 400, {"error": str(exc)}
        except RepositoryError as exc:
            return 404, {"error": str(exc)}

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def _index(self, method: str) -> Response:
        if method != "GET":
            return _method_not_allowed(method, "/")
        return 200, {
            "service": "repro serve",
            "docs": "docs/serving.md",
            "results_dir": str(self.repository.root),
            "endpoints": ENDPOINTS,
        }

    def _health(self, method: str) -> Response:
        if method != "GET":
            return _method_not_allowed(method, "/health")
        return 200, {
            "status": "ok",
            "workers": self.config.workers,
            "jobs": self.jobs.counts(),
            "runs": len(self.repository),
        }

    def _list_runs(self, query: Mapping[str, str]) -> Response:
        filters: Dict[str, Any] = {}
        for name in ("protocol", "workload", "preset", "source"):
            if name in query:
                filters[name] = query[name]
        for name in ("since", "until"):
            if name in query:
                filters[name] = _parse_number(name, query[name])
        if "limit" in query:
            filters["limit"] = int(_parse_number("limit", query["limit"]))
        unknown = set(query) - {
            "protocol", "workload", "preset", "source", "since", "until", "limit",
        }
        if unknown:
            raise _BadRequest(f"unknown query parameter(s): {sorted(unknown)}")
        entries = self.repository.list(**filters)
        return 200, {"total": len(entries), "runs": entries}

    def _get_run(self, run_id: str) -> Response:
        record = self.repository.get(run_id)
        trace = self.repository.trace_path(record["run_id"])
        payload = dict(record)
        payload["trace_path"] = str(trace) if trace else None
        return 200, {"run": payload}

    def _launch_run(self, body: Optional[Mapping[str, Any]]) -> Response:
        body = _require_body(body)
        params = body.get("params")
        if not isinstance(params, Mapping):
            raise _BadRequest("body must carry 'params': a run-parameter mapping")
        want_trace = bool(body.get("trace", False))
        unknown = set(body) - {"params", "trace"}
        if unknown:
            raise _BadRequest(f"unknown body field(s): {sorted(unknown)}")
        params = dict(params)
        params.setdefault("seed", DEFAULT_SEED)
        try:
            resolved = resolve_params(params)
            config_from_params(resolved)  # full validation before queuing
        except (SweepSpecError, ValueError) as exc:
            raise _BadRequest(str(exc)) from exc

        def execute() -> Dict[str, Any]:
            record = _execute_and_persist(self.repository, resolved, want_trace)
            return {
                "run_id": record["run_id"],
                "summary_digest": record["summary_digest"],
                "trace_digest": record["trace_digest"],
                "throughput": record["result"]["throughput"],
            }

        job = self.jobs.submit(
            "run",
            f"protocol={resolved['protocol']} seed={resolved['seed']}"
            + (" +trace" if want_trace else ""),
            execute,
        )
        return 202, {"job": job.to_dict()}

    def _launch_replay(self, run_id: str) -> Response:
        full_id = self.repository.resolve(run_id)  # 404 now, not at poll time

        def execute() -> Dict[str, Any]:
            report = replay_run(self.repository, full_id)
            return report.to_dict()

        job = self.jobs.submit("replay", f"run={full_id[:12]}", execute)
        return 202, {"job": job.to_dict()}

    def _launch_sweep(self, body: Optional[Mapping[str, Any]]) -> Response:
        body = _require_body(body)
        spec_data = body.get("spec")
        if not isinstance(spec_data, Mapping):
            raise _BadRequest("body must carry 'spec': a sweep-spec mapping")
        unknown = set(body) - {"spec", "workers"}
        if unknown:
            raise _BadRequest(f"unknown body field(s): {sorted(unknown)}")
        try:
            spec = SweepSpec.from_dict(spec_data)
        except SweepSpecError as exc:
            raise _BadRequest(str(exc)) from exc
        workers = int(body.get("workers", 1))
        if workers < 1:
            raise _BadRequest(f"workers must be >= 1: {workers}")
        # The pool bound is the machine's oversubscription guard; a sweep
        # asking for more process-parallelism than that is clamped to it.
        workers = min(workers, self.config.workers)
        sweeps_root = self.repository.root / "sweeps"

        def execute() -> Dict[str, Any]:
            report = execute_sweep(
                spec, sweeps_root, workers=workers, repository=self.repository
            )
            summary = results_mod.aggregate(report.records, spec=spec)
            out = sweep_dir(sweeps_root, spec) / "summary.json"
            results_mod.dump_summary(summary, out)
            return {
                "name": spec.name,
                "total": report.total,
                "cached": len(report.cached),
                "executed": len(report.executed),
                "run_ids": [run.key for run in report.runs],
                "summary_path": str(out),
                "summary": summary,
            }

        job = self.jobs.submit(
            "sweep", f"name={spec.name} workers={workers}", execute
        )
        return 202, {"job": job.to_dict()}

    def _list_jobs(self) -> Response:
        return 200, {"jobs": [job.to_dict() for job in self.jobs.list()]}

    def _get_job(self, job_id: str) -> Response:
        job = self.jobs.get(job_id)
        if job is None:
            return 404, {"error": f"unknown job id {job_id!r}"}
        return 200, {"job": job.to_dict()}

    def close(self) -> None:
        """Drain the pool (used by tests and graceful shutdown)."""
        self.jobs.shutdown(wait=True)


def _execute_and_persist(
    repository: RunRepository, resolved: Mapping[str, Any], want_trace: bool
) -> Dict[str, Any]:
    """Run one simulation from resolved params and persist it (+ trace)."""
    from ..bench.harness import run_recorded

    config, protocol = config_from_params(resolved)
    with tempfile.TemporaryDirectory(prefix="serve_run_") as scratch:
        trace = pathlib.Path(scratch, "trace.jsonl") if want_trace else None
        result = run_recorded(config, protocol, trace_out=trace)
        return repository.save_run(
            resolved, result.to_dict(), source="serve", trace_path=trace
        )


class _BadRequest(ValueError):
    """Internal: turned into a 400 response by the dispatcher."""


def _require_body(body: Optional[Mapping[str, Any]]) -> Mapping[str, Any]:
    """Reject launch requests without a JSON object body."""
    if not isinstance(body, Mapping):
        raise _BadRequest("request body must be a JSON object")
    return body


def _parse_number(name: str, raw: str) -> float:
    """Parse one numeric query parameter, 400 on garbage."""
    try:
        return float(raw)
    except ValueError as exc:
        raise _BadRequest(f"query parameter {name!r} must be numeric: {raw!r}") from exc


def _method_not_allowed(method: str, path: str) -> Response:
    """The 405 payload."""
    return 405, {"error": f"method {method} not allowed on {path}"}
