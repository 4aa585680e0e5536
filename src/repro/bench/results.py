"""Aggregate cached sweep runs into deterministic statistical summaries.

The sweep engine (:mod:`repro.bench.sweep`) leaves one JSON record per run in
the content-addressed run repository; this module reduces those records to
the numbers a figure needs: runs are grouped by their parameters *minus the
seed* (so repeats of one configuration land in one group), and every numeric
metric of :class:`repro.bench.harness.ExperimentResult` is summarised as
mean / median / sample standard deviation / 95 % confidence half-width /
min / max across the group's repeats.

Determinism contract: the summary depends only on the set of records — not
on worker count, completion order, or wall-clock time — and is serialised
with sorted keys, so ``repro sweep`` at any ``--workers`` value writes a
byte-identical ``summary.json``.
"""

from __future__ import annotations

import hashlib
import math
import pathlib
import statistics
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from . import runner
from .sweep import SweepReport, SweepSpec, canonical_json, short_value

#: Result fields that are curves or labels, not scalar metrics.
NON_METRIC_FIELDS = frozenset({"visibility_cdf", "protocol"})

#: z-quantile of the normal approximation behind the 95 % confidence
#: half-width (repeats are few, so this is an indication, not inference).
Z_95 = 1.96


def summarize_values(values: List[float]) -> Dict[str, float]:
    """Mean/median/std/CI95/min/max of one metric across a group's repeats.

    ``std`` is the sample standard deviation (0.0 for a single repeat) and
    ``ci95`` the normal-approximation half-width ``1.96 * std / sqrt(n)``.
    """
    n = len(values)
    if n == 0:
        raise ValueError("cannot summarise an empty sample")
    std = statistics.stdev(values) if n > 1 else 0.0
    return {
        "mean": statistics.fmean(values),
        "median": statistics.median(values),
        "std": std,
        "ci95": Z_95 * std / math.sqrt(n),
        "min": min(values),
        "max": max(values),
    }


def result_digest(result: Mapping[str, Any]) -> str:
    """The canonical SHA-256 fingerprint of one run's summary metrics.

    Hashes the sorted-key compact JSON encoding of an
    :class:`~repro.bench.harness.ExperimentResult` dict, so two runs have
    equal digests exactly when every metric (and the visibility curve) is
    byte-identical.  This is the digest the run repository stores and
    ``repro replay`` re-asserts (docs/serving.md) — the same idea as the
    protocol golden digests, generalised to arbitrary persisted runs.
    """
    return hashlib.sha256(canonical_json(result).encode("utf-8")).hexdigest()


def group_params(params: Mapping[str, Any]) -> Dict[str, Any]:
    """The parameters that identify a group: everything except the seed."""
    return {name: value for name, value in params.items() if name != "seed"}


def aggregate(
    records: Iterable[Mapping[str, Any]], spec: Optional[SweepSpec] = None
) -> Dict[str, Any]:
    """Reduce run records to per-configuration statistics.

    Groups are emitted in first-appearance order of the (deterministic) run
    order; each carries its parameters, the sorted seeds that contributed,
    and a statistics block per numeric metric.  ``spec`` (when given) adds
    the sweep's name/description and axis inventory to the summary header.
    """
    groups: Dict[str, Dict[str, Any]] = {}
    order: List[str] = []
    total = 0
    for record in records:
        total += 1
        params = record["params"]
        key = canonical_json(group_params(params))
        group = groups.get(key)
        if group is None:
            group = {"params": group_params(params), "seeds": [], "results": []}
            groups[key] = group
            order.append(key)
        group["seeds"].append(params.get("seed"))
        group["results"].append(record["result"])

    rendered_groups: List[Dict[str, Any]] = []
    for key in order:
        group = groups[key]
        metrics: Dict[str, Dict[str, float]] = {}
        first = group["results"][0]
        for name, value in first.items():
            if name in NON_METRIC_FIELDS or isinstance(value, bool):
                continue
            if not isinstance(value, (int, float)):
                continue
            metrics[name] = summarize_values(
                [float(result[name]) for result in group["results"]]
            )
        rendered_groups.append(
            {
                "params": group["params"],
                "seeds": sorted(group["seeds"]),
                "repeats": len(group["seeds"]),
                "metrics": metrics,
            }
        )

    summary: Dict[str, Any] = {
        "total_runs": total,
        "groups": rendered_groups,
    }
    if spec is not None:
        summary["name"] = spec.name
        if spec.description:
            summary["description"] = spec.description
        summary["axes"] = {
            name: list(values) for name, values in spec.axes.items()
        }
        summary["repeats"] = spec.repeats
        summary["root_seed"] = spec.seed
    return summary


def dump_summary(summary: Mapping[str, Any], path: runner.PathLike) -> None:
    """Write a summary as deterministic (sorted-key) JSON, atomically."""
    runner.write_json(path, summary)


def write_sweep_summary(
    report: SweepReport, root: runner.PathLike
) -> Tuple[Dict[str, Any], pathlib.Path]:
    """Aggregate a sweep and write ``<root>/sweeps/<name>/summary.json``.

    ``root`` is the run repository the sweep ran against, so the summary
    sits next to the runs it was derived from; returns it and its path.
    """
    summary = aggregate(report.records, spec=report.spec)
    path = pathlib.Path(root) / "sweeps" / report.spec.name / "summary.json"
    dump_summary(summary, path)
    return summary, path


def render_summary_table(summary: Mapping[str, Any], metric: str = "throughput") -> str:
    """A compact plain-text view of one metric across a summary's groups."""
    from .report import format_table  # local import to avoid cycle

    varying = _varying_params(summary["groups"])
    headers = [*varying, "repeats", f"{metric} mean", "ci95", "min", "max"]
    rows = []
    for group in summary["groups"]:
        stats = group["metrics"].get(metric)
        if stats is None:
            continue
        rows.append(
            (
                *[short_value(group["params"].get(name)) for name in varying],
                group["repeats"],
                f"{stats['mean']:,.1f}",
                f"{stats['ci95']:,.1f}",
                f"{stats['min']:,.1f}",
                f"{stats['max']:,.1f}",
            )
        )
    return format_table(headers, rows)


def _varying_params(groups: List[Mapping[str, Any]]) -> List[str]:
    """The parameter names that differ between groups (the swept axes)."""
    if not groups:
        return []
    names = list(groups[0]["params"])
    varying = []
    for name in names:
        values = {canonical_json(group["params"].get(name)) for group in groups}
        if len(values) > 1:
            varying.append(name)
    return varying or ["protocol"]
