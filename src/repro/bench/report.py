"""Render experiment rows the way the paper reports them.

Plain-text tables (``repro figure`` prints them, ``benchmarks/run_all.py``
writes them into EXPERIMENTS.md; :mod:`repro.bench.figures` pairs each
renderer with its experiment) plus the static Table I taxonomy, regenerated
from a small systems knowledge base.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, List, Mapping, Sequence, Tuple

from .experiments import (
    BlockingResult,
    CacheAblationResult,
    CapacityRow,
    CurvePoint,
    Figure1Summary,
    LocalityPoint,
    PartitionStallResult,
    ScalePoint,
    StabilizationPoint,
    VisibilityResult,
)


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """A padded plain-text table."""
    materialized = [[str(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in materialized:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(header.ljust(widths[i]) for i, header in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in materialized:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Figure renderers
# ----------------------------------------------------------------------
def render_figure_1(mix: str, points: List[CurvePoint]) -> str:
    """Figure 1 as a table of curve points per protocol."""
    rows = [
        (
            point.protocol,
            point.threads,
            f"{point.result.throughput:.0f}",
            f"{point.result.latency_mean_ms:.2f}",
            f"{point.result.latency_p99 * 1000:.2f}",
            f"{point.result.blocking_mean * 1000:.2f}",
        )
        for point in points
    ]
    table = format_table(
        ["protocol", "threads", "tx/s", "avg lat (ms)", "p99 lat (ms)", "block (ms)"],
        rows,
    )
    return f"Figure 1 ({mix} r:w) — throughput vs latency\n{table}"

def render_figure_1_summary(summary: Figure1Summary) -> str:
    """The headline ratios the paper quotes in the abstract/Section V-B."""
    return (
        f"mix {summary.mix}: PaRiS peak {summary.paris_peak.result.throughput:.0f} tx/s @ "
        f"{summary.paris_peak.result.latency_mean_ms:.2f} ms; "
        f"BPR peak {summary.bpr_peak.result.throughput:.0f} tx/s @ "
        f"{summary.bpr_peak.result.latency_mean_ms:.2f} ms; "
        f"throughput gain {summary.throughput_gain:.2f}x, latency ratio "
        f"{summary.latency_ratio:.2f}x, BPR blocking {summary.bpr_blocking_at_peak * 1000:.1f} ms"
    )


def render_figure_2(points: List[ScalePoint], which: str) -> str:
    """Figures 2a/2b as throughput bars."""
    rows = [
        (
            point.n_dcs,
            point.machines_per_dc,
            point.threads_at_peak,
            f"{point.result.throughput:.0f}",
            f"{point.result.mean_cpu_utilization:.2f}",
        )
        for point in points
    ]
    table = format_table(["DCs", "machines/DC", "threads@peak", "tx/s", "cpu util"], rows)
    return f"Figure {which} — PaRiS scalability\n{table}"


def render_figure_3(points: List[LocalityPoint]) -> str:
    """Figures 3a/3b: locality sweep."""
    rows = [
        (
            f"{int(point.locality * 100)}:{int(round((1 - point.locality) * 100))}",
            point.threads_at_peak,
            f"{point.result.throughput:.0f}",
            f"{point.result.latency_mean_ms:.2f}",
        )
        for point in points
    ]
    table = format_table(
        ["local:multi", "threads@peak", "tx/s", "avg lat (ms)"], rows
    )
    return f"Figure 3 — locality sweep (PaRiS)\n{table}"


def render_figure_4(results: List[VisibilityResult]) -> str:
    """Figure 4: visibility CDP summary percentiles per protocol."""
    fractions = (0.10, 0.50, 0.90, 0.99)
    rows = []
    for entry in results:
        curve = entry.result.visibility_cdf
        row: List[object] = [entry.protocol]
        for fraction in fractions:
            value = _curve_percentile(curve, fraction)
            row.append(f"{value * 1000:.1f}" if value is not None else "-")
        row.append(f"{entry.result.visibility_mean * 1000:.1f}")
        rows.append(row)
    table = format_table(
        ["protocol", "p10 (ms)", "p50 (ms)", "p90 (ms)", "p99 (ms)", "mean (ms)"], rows
    )
    return f"Figure 4 — update visibility latency CDF\n{table}"


def _curve_percentile(curve: List[Tuple[float, float]], fraction: float):
    for value, cdf in curve:
        if cdf >= fraction:
            return value
    return curve[-1][0] if curve else None


def render_blocking(rows: List[BlockingResult]) -> str:
    """Section V-B blocking-time quote."""
    table = format_table(
        ["mix", "threads", "tx/s", "avg block (ms)", "blocked frac"],
        [
            (
                row.mix,
                row.threads,
                f"{row.throughput:.0f}",
                f"{row.blocking_mean * 1000:.1f}",
                f"{row.blocked_fraction:.2f}",
            )
            for row in rows
        ],
    )
    return f"BPR read blocking time at high load (Section V-B)\n{table}"


def render_partition_stall(rows: List[PartitionStallResult]) -> str:
    """Availability under an inter-DC partition (Section III-C)."""
    table = format_table(
        [
            "protocol",
            "tx before",
            "tx during",
            "tx after",
            "parked @ heal",
            "blocked slices",
            "max block (s)",
            "staleness @ heal (s)",
            "violations",
        ],
        [
            (
                row.protocol,
                row.committed_before,
                row.committed_during,
                row.committed_after,
                row.parked_at_heal,
                row.blocked_slices,
                f"{row.blocking_max:.2f}",
                f"{row.ust_staleness_at_heal:.2f}",
                row.violations,
            )
            for row in rows
        ],
    )
    lines = [f"Availability under an inter-DC partition (plan: {rows[0].plan_name})", table]
    by_protocol = {row.protocol: row for row in rows}
    paris, bpr = by_protocol.get("paris"), by_protocol.get("bpr")
    if paris is not None and bpr is not None and bpr.committed_during < paris.committed_during:
        lines.append(
            f"\nPaRiS committed {paris.committed_during} transactions during the partition "
            f"with {paris.blocked_slices} blocked reads; BPR committed "
            f"{bpr.committed_during} with {bpr.parked_at_heal} reads still parked at heal."
        )
    return "\n".join(lines)


def render_capacity(rows: List[CapacityRow]) -> str:
    """Partial vs full replication storage comparison."""
    table = format_table(
        ["strategy", "RF", "dataset frac/DC", "capacity vs full", "versions/DC"],
        [
            (
                row.label,
                row.replication_factor,
                f"{row.storage_fraction_per_dc:.2f}",
                f"{row.capacity_multiplier:.2f}x",
                f"{row.measured_versions_per_dc:.0f}",
            )
            for row in rows
        ],
    )
    return f"Storage capacity: partial vs full replication\n{table}"


def render_stabilization(rows: List[StabilizationPoint]) -> str:
    """Stabilization-period ablation."""
    table = format_table(
        ["period (ms)", "UST staleness (ms)", "visibility mean (ms)", "tx/s", "messages"],
        [
            (
                f"{row.interval * 1000:.0f}",
                f"{row.ust_staleness * 1000:.1f}",
                f"{row.visibility_mean * 1000:.1f}",
                f"{row.throughput:.0f}",
                row.stabilization_messages,
            )
            for row in rows
        ],
    )
    return f"Ablation — stabilization period vs staleness\n{table}"


def render_propagation(rows) -> str:
    """Update-propagation cost vs replication factor."""
    table = format_table(
        ["RF", "inter-DC replicate msgs", "commits", "msgs/commit"],
        [
            (
                row.replication_factor,
                row.inter_dc_replication_messages,
                row.transactions_committed,
                f"{row.messages_per_commit:.2f}",
            )
            for row in rows
        ],
    )
    return f"Update propagation cost: partial vs full replication\n{table}"


def render_clock_ablation(rows) -> str:
    """HLC vs logical clock ablation."""
    table = format_table(
        ["clock mode", "visibility mean (ms)", "visibility p99 (ms)", "tx/s"],
        [
            (
                row.mode,
                f"{row.visibility_mean * 1000:.1f}",
                f"{row.visibility_p99 * 1000:.1f}",
                f"{row.throughput:.0f}",
            )
            for row in rows
        ],
    )
    return f"Ablation — HLC vs logical clocks (UST freshness)\n{table}"


def render_cache_ablation(rows: List[CacheAblationResult]) -> str:
    """Client-cache ablation."""
    table = format_table(
        ["variant", "commits", "violations", "kinds"],
        [
            (row.protocol_variant, row.commits, row.violations, ",".join(row.violation_kinds) or "-")
            for row in rows
        ],
    )
    return f"Ablation — client write cache (UST alone is not causal)\n{table}"


def render_design_space(summary: Mapping[str, Any]) -> str:
    """The cross-protocol trade-off study (docs/design_space.md).

    One row per (protocol, workload) group of the ``design_space`` sweep
    summary: throughput and latency, update-visibility freshness, the
    causal-metadata wire bytes amortised per measured transaction, and
    stale-read retry rounds — the axes along which the registered variants
    trade against each other.
    """
    rows = []
    for group in summary["groups"]:
        params = group["params"]
        metrics = group["metrics"]

        def _mean(name: str) -> float:
            stats = metrics.get(name)
            return stats["mean"] if stats else 0.0

        transactions = max(_mean("transactions_measured"), 1.0)
        rows.append(
            (
                params.get("protocol", "?"),
                params.get("workload") or "default",
                f"{_mean('throughput'):,.0f}",
                f"{_mean('latency_mean') * 1000:.2f}",
                f"{_mean('latency_p99') * 1000:.2f}",
                f"{_mean('visibility_mean') * 1000:.1f}",
                f"{_mean('metadata_bytes_total') / transactions:,.0f}",
                f"{_mean('read_retries_total'):,.0f}",
            )
        )
    table = format_table(
        [
            "protocol",
            "workload",
            "tx/s",
            "lat (ms)",
            "p99 (ms)",
            "vis (ms)",
            "meta B/tx",
            "retries",
        ],
        rows,
    )
    return f"Design space — protocol x workload trade-offs\n{table}"


# ----------------------------------------------------------------------
# Table I taxonomy
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SystemEntry:
    """One row of the paper's Table I."""

    name: str
    transactions: str
    nonblocking_reads: bool
    partial_replication: bool
    metadata: str


#: The paper's taxonomy of causally consistent systems (Table I).
TAXONOMY: Tuple[SystemEntry, ...] = (
    SystemEntry("COPS", "ROT", True, False, "O(|deps|)"),
    SystemEntry("Eiger", "ROT/WOT", True, False, "O(|deps|)"),
    SystemEntry("ChainReaction", "ROT", False, False, "M"),
    SystemEntry("Orbe", "ROT", False, False, "1 ts"),
    SystemEntry("GentleRain", "ROT", False, False, "1 ts"),
    SystemEntry("POCC", "ROT", False, False, "M"),
    SystemEntry("COPS-SNOW", "ROT", True, False, "O(|deps|)"),
    SystemEntry("OCCULT", "Generic", False, False, "O(M)"),
    SystemEntry("Cure", "Generic", False, False, "M"),
    SystemEntry("Wren", "Generic", True, False, "2 ts"),
    SystemEntry("AV", "Generic", True, False, "M"),
    SystemEntry("Xiang, Vaidya", "none", False, True, "1 ts"),
    SystemEntry("Contrarian", "ROT", True, False, "M"),
    SystemEntry("C3", "none", True, True, "M"),
    SystemEntry("Saturn", "none", True, True, "1 ts"),
    SystemEntry("Karma", "ROT", True, True, "O(|deps|)"),
    SystemEntry("CausalSpartan", "none", True, False, "M"),
    SystemEntry("Bolt-on CC", "none", True, False, "M"),
    SystemEntry("EunomiaKV", "none", True, False, "M"),
    SystemEntry("PaRiS (this work)", "Generic", True, True, "1 ts"),
)


def render_table_1(entries: Sequence[SystemEntry] = TAXONOMY) -> str:
    """Regenerate Table I."""
    table = format_table(
        ["System", "Txs", "Nonbl. reads", "Partial rep.", "Meta-data"],
        [
            (
                entry.name,
                entry.transactions,
                "yes" if entry.nonblocking_reads else "no",
                "yes" if entry.partial_replication else "no",
                entry.metadata,
            )
            for entry in entries
        ],
    )
    return f"Table I — taxonomy of CC systems\n{table}"


def unique_full_support(entries: Sequence[SystemEntry] = TAXONOMY) -> List[str]:
    """Systems with generic txs + non-blocking reads + partial replication.

    The paper's claim: PaRiS is the only one.
    """
    return [
        entry.name
        for entry in entries
        if entry.transactions == "Generic"
        and entry.nonblocking_reads
        and entry.partial_replication
    ]
