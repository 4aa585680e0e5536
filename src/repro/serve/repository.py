"""The run repository: persisted, content-addressed, replayable results.

Every completed run the repository sees — launched over HTTP by ``repro
serve``, saved by ``repro run --save``, or executed by a sweep
(:func:`repro.bench.sweep.execute_sweep`, whose cache this is) — becomes one
JSON record under ``results/`` (layout in docs/serving.md):

``runs/<run_id>.json``
    The full record: the run's fully resolved flat parameters (fault plans
    inlined, so the record is self-contained), the resolved seed, the
    complete :class:`~repro.bench.harness.ExperimentResult` summary, and the
    digests ``repro replay`` re-asserts.
``traces/<run_id>.jsonl``
    Optionally, the run's consistency-event trace (the JSONL format of
    :mod:`repro.consistency.events`), byte-digested so replays can prove the
    *whole observable history* reproduced, not just the summary.

The run id is :func:`repro.bench.sweep.run_key` — the SHA-256 of the
canonical resolved parameters.  Identity therefore follows content:
re-saving an identical run is a no-op, a sweep cell and a served or saved
run with the same parameters are one record (so either reuses the other),
and editing a parameter (or the cache version) yields a new entry instead
of silently shadowing an old one.  :func:`write_record` is the one place a
record is built; it writes atomically (:func:`repro.bench.runner.write_json`),
and :func:`execute_and_record` is the one way a run becomes a record (sweep
worker processes and served jobs both call it).  The records are the only
store: listing scans ``runs/``, so every handle on a root — a serving
process, a CLI ``--save``, a sweep killed mid-way — sees every record on
disk, and there is no second file to keep consistent.
"""

from __future__ import annotations

import json
import pathlib
import tempfile
import time
from typing import Any, Dict, List, Mapping, Optional

from ..bench import runner
from ..bench.harness import run_recorded
from ..bench.results import result_digest
from ..bench.sweep import config_from_params, resolve_params, run_key

#: Bumped when the record layout changes incompatibly.
SCHEMA_VERSION = 1

#: Shortest run-id prefix :meth:`RunRepository.resolve` accepts.
MIN_PREFIX = 8

_HEX_DIGITS = frozenset("0123456789abcdef")


class RepositoryError(Exception):
    """Raised for unknown run ids, ambiguous prefixes, and corrupt entries."""


def _utc_iso(unix: float) -> str:
    """Render a unix timestamp as a compact UTC ISO-8601 string."""
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(unix))


def _sha256_file(path: pathlib.Path, chunk: int = 1 << 20) -> str:
    """The SHA-256 of a file's bytes, streamed."""
    import hashlib

    digest = hashlib.sha256()
    with path.open("rb") as handle:
        while True:
            block = handle.read(chunk)
            if not block:
                break
            digest.update(block)
    return digest.hexdigest()


def write_record(
    root: runner.PathLike,
    params: Mapping[str, Any],
    result: Mapping[str, Any],
    *,
    source: str,
    trace_path: Optional[runner.PathLike] = None,
) -> Dict[str, Any]:
    """Build one run's record and write ``<root>/runs/<run_id>.json``; returns it.

    ``params`` are the flat run parameters (resolved through
    :func:`repro.bench.sweep.resolve_params`, so partial parameter sets are
    completed exactly like the CLI and sweep engine complete them);
    ``result`` is the run's ``ExperimentResult.to_dict()``.  When
    ``trace_path`` names the run's JSONL consistency trace, the file is
    copied into ``<root>/traces/`` and its byte digest recorded.
    """
    root = pathlib.Path(root)
    resolved = resolve_params(params)
    run_id = run_key(resolved)
    record: Dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "run_id": run_id,
        "params": resolved,
        "protocol": resolved["protocol"],
        "result": dict(result),
        "summary_digest": result_digest(result),
        "trace_digest": None,
        "created_unix": round(time.time(), 3),
        "source": source,
    }
    record["created_at"] = _utc_iso(record["created_unix"])
    if trace_path is not None:
        record["trace_digest"] = _store_trace(root / "traces", run_id, trace_path)
    runner.write_json(root / "runs" / f"{run_id}.json", record)
    return record


def _store_trace(traces_dir: pathlib.Path, run_id: str, trace_path: runner.PathLike) -> str:
    """Copy a trace file into the repository atomically; returns its digest."""
    source = pathlib.Path(trace_path)
    if not source.is_file():
        raise RepositoryError(f"trace file not found: {source}")
    target = runner.write_bytes(traces_dir / f"{run_id}.jsonl", source.read_bytes())
    return _sha256_file(target)


def execute_and_record(
    root: runner.PathLike,
    params: Mapping[str, Any],
    *,
    source: str,
    trace: bool = False,
) -> Dict[str, Any]:
    """Run resolved ``params`` and write the run's record; returns it.

    With ``trace`` the run's consistency events are recorded (through
    :func:`~repro.bench.harness.run_recorded`, as ``repro replay`` records
    them) and stored beside the record.
    """
    config, protocol = config_from_params(params)
    with tempfile.TemporaryDirectory(prefix="repro-run-") as scratch:
        trace_path = pathlib.Path(scratch, "trace.jsonl") if trace else None
        result = run_recorded(config, protocol, trace_out=trace_path)
        return write_record(
            root, params, result.to_dict(), source=source, trace_path=trace_path
        )


class RunRepository:
    """Content-addressed persistence and query surface for completed runs.

    A handle holds only its paths: every query reads ``runs/``, so any
    number of handles, threads and processes share one root.  Writers
    never corrupt each other because each record is written atomically.
    """

    def __init__(self, root: runner.PathLike) -> None:
        self.root = pathlib.Path(root)
        self.runs_dir = self.root / "runs"
        self.traces_dir = self.root / "traces"

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def save_run(
        self,
        params: Mapping[str, Any],
        result: Mapping[str, Any],
        *,
        source: str = "cli",
        trace_path: Optional[runner.PathLike] = None,
    ) -> Dict[str, Any]:
        """Persist one completed run (see :func:`write_record`)."""
        return write_record(self.root, params, result, source=source, trace_path=trace_path)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def resolve(self, run_id_or_prefix: str) -> str:
        """Expand a (possibly abbreviated) run id to the full 64-hex id."""
        prefix = run_id_or_prefix.strip().lower()
        # Hex only: the prefix becomes a glob pattern below.
        if len(prefix) < MIN_PREFIX or not _HEX_DIGITS.issuperset(prefix):
            raise RepositoryError(
                f"run id prefix must be >= {MIN_PREFIX} hex chars: {run_id_or_prefix!r}"
            )
        matches = sorted(path.stem for path in self.runs_dir.glob(f"{prefix}*.json"))
        if not matches:
            raise RepositoryError(f"no persisted run matches {run_id_or_prefix!r}")
        if len(matches) > 1:
            shown = ", ".join(m[:12] for m in matches[:5])
            raise RepositoryError(
                f"run id prefix {run_id_or_prefix!r} is ambiguous ({shown}, ...)"
            )
        return matches[0]

    def get(self, run_id_or_prefix: str) -> Dict[str, Any]:
        """Load one run's full record (verifying its stored integrity).

        A record whose stored summary no longer matches its stored digest —
        bit rot, a hand-edited file — raises :class:`RepositoryError` naming
        both digests, the same contract ``repro replay`` exits non-zero on.
        """
        return self._load(self.resolve(run_id_or_prefix))

    def lookup(self, run_id: str) -> Optional[Dict[str, Any]]:
        """The intact record stored under exactly ``run_id``, else ``None``.

        The sweep engine's cache probe: a record :meth:`get` would reject
        (absent, unreadable, corrupt, tampered) is a miss, not an error.
        """
        try:
            return self._load(run_id)
        except RepositoryError:
            return None

    def _load(self, run_id: str) -> Dict[str, Any]:
        """Read ``runs/<run_id>.json`` and check it is that run, intact."""
        path = self.runs_dir / f"{run_id}.json"
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
        except OSError as exc:
            raise RepositoryError(f"cannot read run record {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise RepositoryError(f"corrupt run record {path}: {exc}") from exc
        if not isinstance(record, dict):
            raise RepositoryError(f"corrupt run record {path}: not a JSON object")
        for field in ("run_id", "params", "result", "summary_digest"):
            if field not in record:
                raise RepositoryError(f"corrupt run record {path}: missing {field!r}")
        if record["run_id"] != run_id:
            raise RepositoryError(
                f"corrupt run record {path}: it names run {record['run_id']!r}"
            )
        stored = record["summary_digest"]
        actual = result_digest(record["result"])
        if stored != actual:
            raise RepositoryError(
                f"corrupt run record {run_id[:12]}: stored summary digest "
                f"{stored[:12]} != digest of stored result {actual[:12]}"
            )
        return record

    def trace_path(self, run_id: str) -> Optional[pathlib.Path]:
        """Where the run's trace lives, or ``None`` when none was stored."""
        path = self.traces_dir / f"{run_id}.jsonl"
        return path if path.exists() else None

    def __contains__(self, run_id: str) -> bool:
        return (self.runs_dir / f"{run_id}.json").is_file()

    def __len__(self) -> int:
        return sum(1 for _ in self.runs_dir.glob("*.json"))

    # ------------------------------------------------------------------
    # Querying
    # ------------------------------------------------------------------
    def list(
        self,
        *,
        protocol: Optional[str] = None,
        workload: Optional[str] = None,
        preset: Optional[str] = None,
        source: Optional[str] = None,
        since: Optional[float] = None,
        until: Optional[float] = None,
        limit: Optional[int] = None,
    ) -> List[Dict[str, Any]]:
        """Query the records: newest first, every filter conjunctive.

        ``since``/``until`` bound the creation time (unix seconds);
        ``source`` matches exactly (``cli``, ``serve``) or, for runs a
        sweep executed, the ``sweep:<name>`` form.  ``limit`` keeps the
        newest entries; ``None`` or 0 keeps all, and a negative limit is a
        ``ValueError``.
        """
        if limit is not None and limit < 0:
            raise ValueError(f"limit must be >= 0 (0 = all): {limit}")
        entries = []
        for path in self.runs_dir.glob("*.json"):
            try:
                entries.append(self._entry(self._load(path.stem)))
            except RepositoryError:
                continue  # a corrupt record surfaces via get(), not listing
        if protocol is not None:
            entries = [e for e in entries if e["protocol"] == protocol]
        if workload is not None:
            entries = [e for e in entries if e["workload"] == workload]
        if preset is not None:
            entries = [e for e in entries if e["preset"] == preset]
        if source is not None:
            entries = [e for e in entries if e["source"] == source]
        if since is not None:
            entries = [e for e in entries if e["created_unix"] >= since]
        if until is not None:
            entries = [e for e in entries if e["created_unix"] <= until]
        entries.sort(key=lambda e: (-e["created_unix"], e["run_id"]))
        return entries[:limit] if limit else entries

    @staticmethod
    def _entry(record: Mapping[str, Any]) -> Dict[str, Any]:
        """The compact per-run line ``repro runs`` and ``GET /runs`` serve."""
        params = record["params"]
        result = record["result"]
        return {
            "run_id": record["run_id"],
            "protocol": record.get("protocol", params.get("protocol")),
            "workload": params.get("workload"),
            "preset": params.get("preset"),
            "seed": params.get("seed"),
            "created_unix": record.get("created_unix", 0.0),
            "created_at": record.get("created_at", ""),
            "source": record.get("source", "unknown"),
            "throughput": result.get("throughput"),
            "latency_p99": result.get("latency_p99"),
            "has_trace": record.get("trace_digest") is not None,
            "summary_digest": record["summary_digest"],
        }
