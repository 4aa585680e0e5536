"""Byte-identical replay of persisted runs (``repro replay RUN_ID``).

The repository stores what a run *was* (its resolved parameters and seed)
and what it *produced* (the summary digest, optionally the trace digest).
Because every simulation is deterministic in its configuration and seed —
the property the golden digests (:mod:`repro.protocols.golden`), the
sweep engine's worker-count invariance, and the streaming-tier equivalence
proofs all already lean on — re-executing the stored parameters must
reproduce the stored digests exactly.  ``replay_run`` asserts precisely
that, generalising the golden-digest idea from a fixed committed scenario
to *any* run anyone ever persisted:

* the replayed ``ExperimentResult`` must hash to the stored
  ``summary_digest`` (:func:`repro.bench.results.result_digest`);
* when a trace was stored, the replayed run re-records its consistency
  events through the same :class:`~repro.consistency.streaming.StreamingOracle`
  pipeline and the replayed JSONL bytes must hash to the stored
  ``trace_digest``.

A divergence therefore means one of exactly three things: the record was
corrupted, the code's observable behaviour changed since the run was
recorded (the digest names the drift, like a golden-digest failure), or
determinism itself broke.  All three exit non-zero.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from ..bench.results import result_digest
from ..bench.sweep import config_from_params
from .repository import RepositoryError, RunRepository, _sha256_file


@dataclass(frozen=True)
class ReplayReport:
    """The verdict of one replay: stored vs replayed digests."""

    run_id: str
    protocol: str
    #: Replayed summary hashed equal to the stored ``summary_digest``.
    summary_ok: bool
    stored_summary_digest: str
    replayed_summary_digest: str
    #: ``None`` when the record stored no trace; else byte-digest equality.
    trace_ok: Optional[bool] = None
    stored_trace_digest: Optional[str] = None
    replayed_trace_digest: Optional[str] = None
    #: Replayed headline metrics (display only).
    metrics: Dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when every stored digest reproduced exactly."""
        return self.summary_ok and self.trace_ok is not False

    def lines(self) -> List[str]:
        """Human-readable verdict block (one line per digest)."""
        out = [f"replay {self.run_id[:12]} (protocol {self.protocol}):"]
        if self.summary_ok:
            out.append(
                f"  summary digest  {self.stored_summary_digest[:16]}  reproduced"
            )
        else:
            out.append(
                "  summary digest DIVERGED: stored "
                f"{self.stored_summary_digest} != replayed "
                f"{self.replayed_summary_digest}"
            )
        if self.trace_ok is None:
            out.append("  trace           none stored")
        elif self.trace_ok:
            out.append(
                f"  trace digest    {self.stored_trace_digest[:16]}  reproduced"
            )
        else:
            out.append(
                "  trace digest DIVERGED: stored "
                f"{self.stored_trace_digest} != replayed "
                f"{self.replayed_trace_digest}"
            )
        if self.metrics:
            shown = ", ".join(f"{k}={v:,.1f}" for k, v in self.metrics.items())
            out.append(f"  replayed        {shown}")
        return out

    def to_dict(self) -> Dict[str, object]:
        """A JSON-serialisable view (the ``/runs/<id>/replay`` job result)."""
        from dataclasses import asdict

        data = asdict(self)
        data["ok"] = self.ok
        return data


def replay_run(
    repository: RunRepository,
    run_id_or_prefix: str,
    *,
    trace_out: Optional[Path] = None,
) -> ReplayReport:
    """Re-execute a persisted run and compare digests.

    Raises :class:`RepositoryError` when the record cannot even be loaded
    intact (unknown id, unreadable file, stored-digest corruption — the
    error names the divergent digest); returns a report whose ``ok`` is
    False when the re-execution itself diverged.  ``trace_out`` keeps the
    replayed trace file (for diffing a divergence); by default it is
    written to a temporary file and discarded after digesting.
    """
    record = repository.get(run_id_or_prefix)
    run_id = record["run_id"]
    config, protocol = config_from_params(record["params"])

    stored_trace_digest = record.get("trace_digest")
    replayed_trace_digest: Optional[str] = None
    trace_ok: Optional[bool] = None

    from ..bench.harness import run_experiment, run_recorded

    if stored_trace_digest is None:
        result = run_experiment(config, protocol=protocol)
    else:
        # The run was recorded through run_recorded; replaying through the
        # same function is what makes the trace bytes comparable.
        stored_trace = repository.trace_path(run_id)
        if stored_trace is None:
            raise RepositoryError(
                f"run {run_id[:12]} stored trace digest "
                f"{stored_trace_digest[:12]} but its trace file is missing "
                f"({repository.traces_dir / (run_id + '.jsonl')})"
            )
        with tempfile.TemporaryDirectory(prefix="replay_") as scratch:
            target = Path(trace_out) if trace_out is not None else Path(scratch, "trace.jsonl")
            result = run_recorded(config, protocol, trace_out=target)
            replayed_trace_digest = _sha256_file(target)
        trace_ok = replayed_trace_digest == stored_trace_digest

    replayed_summary_digest = result_digest(result.to_dict())
    return ReplayReport(
        run_id=run_id,
        protocol=protocol,
        summary_ok=replayed_summary_digest == record["summary_digest"],
        stored_summary_digest=record["summary_digest"],
        replayed_summary_digest=replayed_summary_digest,
        trace_ok=trace_ok,
        stored_trace_digest=stored_trace_digest,
        replayed_trace_digest=replayed_trace_digest,
        metrics={
            "throughput": result.throughput,
            "transactions": float(result.transactions_measured),
        },
    )
