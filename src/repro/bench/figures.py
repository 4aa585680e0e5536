"""The figure catalogue: every artifact of the paper's evaluation, once.

:data:`FIGURES` holds one :class:`Figure` per table, figure, quoted number
or claim of the paper (Section V, and the claims of Sections I, III and VI),
plus our three ablations and the design-space study.  An entry names the
experiment that produces the rows, the table that renders them (a
:func:`repro.bench.report.table` whose columns are declared here, next to
the entry's checks), the paper's claim, the sentence that sets the measured
shape against it, and the shape assertions.  A measured row is an
:class:`~repro.bench.experiments.Run`: ``run.params`` holds what a column
reports about the configuration, ``run.result`` what it measured.
``repro figure``, ``benchmarks/run_all.py`` (EXPERIMENTS.md) and CI's
``figures-smoke`` job loop over the table, and tier-1 tests hold the figure
maps of README.md and docs/experiments.md to its names; adding an artifact
means adding an entry.

Absolute numbers come from the simulated substrate, so a check asserts the
*shape* the paper reports — direction, ratios, crossovers — never a value.

``repro`` and ``repro.bench`` do not import this module: only its consumers
pay for loading the experiment and report code.
"""

from __future__ import annotations

import math
import pathlib
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..config import DEFAULT_REPO_DIR
from . import experiments as exp
from . import report, results, sweep
from .experiments import BenchScale, Run

#: The committed sweep spec behind the ``design_space`` entry; relative, so
#: the figure is regenerated from the repository root (as CI does).
DESIGN_SPACE_SPEC = pathlib.Path("examples/sweeps/design_space.json")


class ShapeError(Exception):
    """A measured result does not have the shape the paper reports."""


def _expect(condition: object, message: str) -> None:
    """Raise :class:`ShapeError` with ``message`` unless ``condition`` holds."""
    if not condition:
        raise ShapeError(message)


@dataclass(frozen=True)
class Figure:
    """One reproducible artifact of the evaluation."""

    name: str
    #: Section title in EXPERIMENTS.md.
    title: str
    #: The paper's claim, opening the section's commentary; empty where the
    #: artifact is regenerated as-is (Table I) or is ours (two ablations, the
    #: design-space study) and ``measured`` says everything there is to say.
    paper: str
    #: ``run(scale) -> rows``: the experiment.
    run: Callable[[BenchScale], Any]
    #: ``render(rows) -> str``: the table ``repro figure`` prints
    #: (a :func:`repro.bench.report.table`, or a function composing one).
    render: Callable[[Any], str]
    #: ``measured(rows, scale) -> str``: the measured shape, in one sentence.
    measured: Callable[[Any, BenchScale], str]
    #: ``check(rows, scale)``: raises :class:`ShapeError` when the shape is off.
    check: Optional[Callable[[Any, BenchScale], None]] = None

    def failure(self, rows: Any, scale: BenchScale) -> Optional[str]:
        """One line on what :attr:`check` found wrong; ``None`` when it holds."""
        if self.check is not None:
            try:
                self.check(rows, scale)
            except ShapeError as exc:
                return f"figure {self.name}: shape check failed: {exc}"
        return None


# ----------------------------------------------------------------------
# Figure 1: throughput vs latency, PaRiS vs BPR
# ----------------------------------------------------------------------
def _run_fig1(mix: str, scale: BenchScale) -> Tuple[list, exp.Figure1Summary]:
    points = exp.figure_1(mix, scale)
    return points, exp.summarize_figure_1(mix, points)


_FIG1_COLUMNS = (
    ("protocol", lambda run: run.params["protocol"]),
    ("threads", lambda run: run.params["threads"]),
    ("tx/s", lambda run: f"{run.result.throughput:.0f}"),
    ("avg lat (ms)", lambda run: f"{run.result.latency_mean_ms:.2f}"),
    ("p99 lat (ms)", lambda run: f"{run.result.latency_p99 * 1000:.2f}"),
    ("block (ms)", lambda run: f"{run.result.blocking_mean * 1000:.2f}"),
)


def _render_fig1(rows: Tuple[List[Run], exp.Figure1Summary]) -> str:
    """The curve points per protocol, then the headline ratios the paper quotes."""
    points, summary = rows
    paris, bpr = summary.paris_peak.result, summary.bpr_peak.result
    curve = report.table(f"Figure 1 ({summary.mix} r:w) — throughput vs latency", *_FIG1_COLUMNS)
    return (
        f"{curve(points)}\n"
        f"mix {summary.mix}: PaRiS peak {paris.throughput:.0f} tx/s @ "
        f"{paris.latency_mean_ms:.2f} ms; "
        f"BPR peak {bpr.throughput:.0f} tx/s @ {bpr.latency_mean_ms:.2f} ms; "
        f"throughput gain {summary.throughput_gain:.2f}x, latency ratio "
        f"{summary.latency_ratio:.2f}x, BPR blocking {summary.bpr_blocking_at_peak * 1000:.1f} ms"
    )


def _measured_fig1a(rows: Tuple[list, exp.Figure1Summary], scale: BenchScale) -> str:
    summary = rows[1]
    return (
        f"**Measured shape:** throughput gain {summary.throughput_gain:.2f}x, "
        f"latency ratio {summary.latency_ratio:.2f}x — PaRiS dominates at "
        "every load point, as in the paper."
    )


def _measured_fig1b(rows: Tuple[list, exp.Figure1Summary], scale: BenchScale) -> str:
    summary = rows[1]
    return (
        f"**Measured shape:** gain {summary.throughput_gain:.2f}x, "
        f"latency ratio {summary.latency_ratio:.2f}x."
    )


def _check_fig1a(rows: Tuple[list, exp.Figure1Summary], scale: BenchScale) -> None:
    """PaRiS dominates BPR: higher peak throughput, lower latency at every
    matched load point.
    """
    points, summary = rows
    _expect(summary.throughput_gain > 1.0, "PaRiS must out-throughput BPR")
    _expect(summary.latency_ratio > 2.0, "PaRiS must be several times faster")
    paris = {p.params["threads"]: p for p in points if p.params["protocol"] == "paris"}
    for point in points:
        twin = paris.get(point.params["threads"])
        if point.params["protocol"] == "bpr" and twin is not None:
            _expect(
                twin.result.latency_mean < point.result.latency_mean,
                f"PaRiS is slower than BPR at {point.params['threads']} threads",
            )


def _check_fig1b(rows: Tuple[list, exp.Figure1Summary], scale: BenchScale) -> None:
    """Same dominance on the write-heavy mix, where BPR's reads wait behind
    a longer commit pipeline (29 ms vs 41 ms of blocking in the paper).
    """
    summary = rows[1]
    _expect(summary.throughput_gain > 1.0, "PaRiS must out-throughput BPR")
    _expect(summary.latency_ratio > 2.0, "PaRiS must be several times faster")
    _expect(
        summary.bpr_blocking_at_peak > 0.005,
        "BPR must block for milliseconds at its peak",
    )


# ----------------------------------------------------------------------
# Section V-B quote: BPR's read blocking time
# ----------------------------------------------------------------------
_render_blocking = report.table(
    "BPR read blocking time at high load (Section V-B)",
    ("mix", lambda run: run.params["mix"]),
    ("threads", lambda run: run.params["threads"]),
    ("tx/s", lambda run: f"{run.result.throughput:.0f}"),
    ("avg block (ms)", lambda run: f"{run.result.blocking_mean * 1000:.1f}"),
    ("blocked frac", lambda run: f"{run.result.blocked_fraction:.2f}"),
)


def _measured_blocking(rows: List[Run], scale: BenchScale) -> str:
    return (
        "**Measured:** "
        + ", ".join(
            f"{row.result.blocking_mean * 1000:.1f} ms ({row.params['mix']})" for row in rows
        )
        + " — set by the one-way latency to the peer replica plus the apply "
        "period, the same mechanism the paper identifies."
    )


def _check_blocking(rows: List[Run], scale: BenchScale) -> None:
    """Blocking is tens of milliseconds, nearly every read blocks, and the
    write-heavy mix blocks at least as long as the read-heavy one.
    """
    by_mix = {row.params["mix"]: row.result for row in rows}
    for row in rows:
        _expect(0.005 < row.result.blocking_mean < 0.5, "blocking should be tens of ms")
        _expect(row.result.blocked_fraction > 0.5, "fresh snapshots park almost every read")
    _expect(
        by_mix["50:50"].blocking_mean >= by_mix["95:5"].blocking_mean * 0.8,
        "the write-heavy mix must block about as long as the read-heavy one",
    )


# ----------------------------------------------------------------------
# Figure 2: scalability
# ----------------------------------------------------------------------
_FIG2_COLUMNS = (
    ("DCs", lambda run: run.params["dcs"]),
    ("machines/DC", lambda run: run.params["machines"]),
    ("threads@peak", lambda run: run.params["threads"]),
    ("tx/s", lambda run: f"{run.result.throughput:.0f}"),
    ("cpu util", lambda run: f"{run.result.mean_cpu_utilization:.2f}"),
)
_render_fig2a = report.table("Figure 2a — PaRiS scalability", *_FIG2_COLUMNS)
_render_fig2b = report.table("Figure 2b — PaRiS scalability", *_FIG2_COLUMNS)


def _measured_scaling(points: List[Run], sizes: Sequence[int], by: str, unit: str) -> str:
    factors = exp.scaling_factor(points, by=by)
    return (
        "**Measured:** "
        + ", ".join(f"{f:.2f}x @ {key} {unit}" for key, f in sorted(factors.items()))
        + f" against an ideal of {max(sizes) / min(sizes):.2f}x."
    )


def _check_scaling(points: List[Run], sizes: Sequence[int], by: str, unit: str) -> None:
    """Scaling the deployment by k multiplies saturated throughput by nearly k."""
    ideal = max(sizes) / min(sizes)
    for key, factor in exp.scaling_factor(points, by=by).items():
        _expect(
            factor > ideal * 0.6,
            f"{key} {unit}: got {factor:.2f}x scaling, ideal {ideal:.2f}x",
        )


# ----------------------------------------------------------------------
# Figure 3: locality sweep
# ----------------------------------------------------------------------
def _locality_label(locality: float) -> str:
    """``local:multi`` percentages, e.g. ``95:5`` for a locality of 0.95."""
    return f"{round(locality * 100)}:{round((1 - locality) * 100)}"


_render_fig3 = report.table(
    "Figure 3 — locality sweep (PaRiS)",
    ("local:multi", lambda run: _locality_label(run.params["locality"])),
    ("threads@peak", lambda run: run.params["threads"]),
    ("tx/s", lambda run: f"{run.result.throughput:.0f}"),
    ("avg lat (ms)", lambda run: f"{run.result.latency_mean_ms:.2f}"),
)


def _measured_fig3(points: List[Run], scale: BenchScale) -> str:
    fully, half = points[0].result, points[-1].result
    return (
        f"**Measured:** throughput ratio {half.throughput / fully.throughput:.2f}x, "
        f"latency ratio {half.latency_mean / fully.latency_mean:.1f}x, threads "
        f"{points[0].params['threads']} -> {points[-1].params['threads']}."
    )


def _check_fig3(points: List[Run], scale: BenchScale) -> None:
    """3a: the 50:50 point keeps most of the 100:0 throughput, at more
    threads (saturation is CPU-bound).  3b: latency grows monotonically and
    several-fold as transactions start crossing the WAN.
    """
    by_locality = {p.params["locality"]: p for p in points}
    fully_local = by_locality[1.0].result.throughput
    half_local = by_locality[0.5].result.throughput
    _expect(
        half_local > fully_local * 0.5,
        f"throughput collapsed: {fully_local:.0f} -> {half_local:.0f} tx/s",
    )
    _expect(
        by_locality[0.5].params["threads"] >= by_locality[1.0].params["threads"],
        "lower locality must need at least as many threads to saturate",
    )
    latencies = [p.result.latency_mean for p in points]  # descending locality
    _expect(latencies == sorted(latencies), "latency must grow as locality drops")
    _expect(
        latencies[-1] > latencies[0] * 3,
        "50:50 latency should be several times the 100:0 latency",
    )


# ----------------------------------------------------------------------
# Figure 4: update visibility latency
# ----------------------------------------------------------------------
def _wan_diameter(scale: BenchScale) -> float:
    return exp.scale_config(scale)[0].latency_model().max_one_way()


def _curve_percentile(curve: List[Tuple[float, float]], fraction: float) -> Optional[float]:
    """The first value whose CDF reaches ``fraction`` (the last one past the end)."""
    for value, cdf in curve:
        if cdf >= fraction:
            return value
    return curve[-1][0] if curve else None


def _visibility_ms(run: Run, fraction: float) -> str:
    value = _curve_percentile(run.result.visibility_cdf, fraction)
    return f"{value * 1000:.1f}" if value is not None else "-"


_render_fig4 = report.table(
    "Figure 4 — update visibility latency CDF",
    ("protocol", lambda run: run.params["protocol"]),
    ("p10 (ms)", lambda run: _visibility_ms(run, 0.10)),
    ("p50 (ms)", lambda run: _visibility_ms(run, 0.50)),
    ("p90 (ms)", lambda run: _visibility_ms(run, 0.90)),
    ("p99 (ms)", lambda run: _visibility_ms(run, 0.99)),
    ("mean (ms)", lambda run: f"{run.result.visibility_mean * 1000:.1f}"),
)


def _measured_fig4(rows: List[Run], scale: BenchScale) -> str:
    by_protocol = {r.params["protocol"]: r.result for r in rows}
    gap = by_protocol["paris"].visibility_p99 - by_protocol["bpr"].visibility_p99
    return (
        f"**Measured:** p99 gap {gap * 1000:.0f} ms with a WAN diameter of "
        f"{_wan_diameter(scale) * 1000:.0f} ms one-way — same mechanism (UST "
        "lags by the WAN diameter plus gossip rounds)."
    )


def _check_fig4(rows: List[Run], scale: BenchScale) -> None:
    """BPR's CDF lies left of PaRiS's; PaRiS's is bounded by the WAN diameter
    plus a few stabilization rounds, which is also the size of the gap.
    """
    by_protocol = {r.params["protocol"]: r.result for r in rows}
    paris, bpr = by_protocol["paris"], by_protocol["bpr"]
    _expect(
        paris.visibility_cdf and bpr.visibility_cdf,
        "both protocols must yield a visibility CDF",
    )
    _expect(bpr.visibility_mean < paris.visibility_mean, "BPR must be fresher on average")
    _expect(bpr.visibility_p99 < paris.visibility_p99, "BPR must be fresher at the tail")
    diameter = _wan_diameter(scale)
    _expect(
        paris.visibility_p99 < diameter * 4 + 0.2,
        "PaRiS visibility must stay within WAN diameter + gossip rounds + apply lag",
    )
    _expect(
        paris.visibility_p99 - bpr.visibility_p99 > diameter * 0.5,
        "the worst-case gap should be on the order of the WAN diameter",
    )


# ----------------------------------------------------------------------
# Table I
# ----------------------------------------------------------------------
def _yes_no(flag: bool) -> str:
    return "yes" if flag else "no"


_render_table1 = report.table(
    "Table I — taxonomy of CC systems",
    ("System", lambda entry: entry.name),
    ("Txs", lambda entry: entry.transactions),
    ("Nonbl. reads", lambda entry: _yes_no(entry.nonblocking_reads)),
    ("Partial rep.", lambda entry: _yes_no(entry.partial_replication)),
    ("Meta-data", lambda entry: entry.metadata),
)


def _measured_table1(entries: Sequence[report.SystemEntry], scale: BenchScale) -> str:
    return (
        "Regenerated from the systems knowledge base; PaRiS remains the "
        "only entry with generic transactions + non-blocking reads + "
        "partial replication + single-timestamp metadata: "
        + ", ".join(report.unique_full_support(entries))
        + "."
    )


def _check_table1(entries: Sequence[report.SystemEntry], scale: BenchScale) -> None:
    """PaRiS is the only full-support system; spot-check rows against the paper."""
    _expect(
        report.unique_full_support(entries) == ["PaRiS (this work)"],
        "Table I must single out PaRiS",
    )
    by_name = {entry.name: entry for entry in entries}
    cure, wren, saturn = by_name["Cure"], by_name["Wren"], by_name["Saturn"]
    _expect(
        cure.transactions == "Generic" and not cure.nonblocking_reads,
        "Cure: generic transactions, blocking reads",
    )
    _expect(
        wren.nonblocking_reads and not wren.partial_replication,
        "Wren: non-blocking reads, full replication",
    )
    _expect(
        saturn.partial_replication and saturn.metadata == "1 ts",
        "Saturn: partial replication, one timestamp",
    )
    _expect(by_name["PaRiS (this work)"].metadata == "1 ts", "PaRiS: one timestamp")


# ----------------------------------------------------------------------
# Sections I/VI claims: storage capacity and propagation cost
# ----------------------------------------------------------------------
_render_capacity = report.table(
    "Storage capacity: partial vs full replication",
    ("strategy", lambda row: row.label),
    ("RF", lambda row: row.replication_factor),
    ("dataset frac/DC", lambda row: f"{row.storage_fraction_per_dc:.2f}"),
    ("capacity vs full", lambda row: f"{row.capacity_multiplier:.2f}x"),
    ("versions/DC", lambda row: f"{row.measured_versions_per_dc:.0f}"),
)


def _measured_capacity(rows: list, scale: BenchScale) -> str:
    return (
        f"**Measured:** each DC stores {rows[0].storage_fraction_per_dc:.2f} of "
        f"the dataset vs 1.0 under full replication "
        f"({rows[0].capacity_multiplier:.2f}x capacity)."
    )


def _check_capacity(rows: list, scale: BenchScale) -> None:
    """With M DCs and replication factor R a DC stores R/M of the data, on
    live clusters as in the model.
    """
    partial_row, full = rows
    _expect(
        math.isclose(
            partial_row.capacity_multiplier,
            scale.n_dcs / scale.replication_factor,
            rel_tol=1e-6,
        ),
        "capacity must improve by M/R",
    )
    _expect(full.capacity_multiplier == 1.0, "full replication is the 1.0x baseline")
    measured_ratio = partial_row.measured_versions_per_dc / full.measured_versions_per_dc
    _expect(
        math.isclose(measured_ratio, scale.replication_factor / scale.n_dcs, rel_tol=0.05),
        f"measured per-DC storage ratio {measured_ratio:.3f} is off the R/M model",
    )


_render_propagation = report.table(
    "Update propagation cost: partial vs full replication",
    ("RF", lambda row: row.replication_factor),
    ("inter-DC replicate msgs", lambda row: row.inter_dc_replication_messages),
    ("commits", lambda row: row.transactions_committed),
    ("msgs/commit", lambda row: f"{row.messages_per_commit:.2f}"),
)


def _propagation_rows(rows: list, scale: BenchScale) -> tuple:
    by_rf = {row.replication_factor: row for row in rows}
    return by_rf[scale.replication_factor], by_rf[scale.n_dcs]


def _measured_propagation(rows: list, scale: BenchScale) -> str:
    partial_row, full = _propagation_rows(rows, scale)
    return (
        f"**Measured:** {partial_row.messages_per_commit:.2f} inter-DC replication "
        f"messages per commit at RF {partial_row.replication_factor} vs "
        f"{full.messages_per_commit:.2f} under full replication "
        f"(RF {full.replication_factor})."
    )


def _check_propagation(rows: list, scale: BenchScale) -> None:
    """Per-commit WAN replication grows with RF: roughly (RF-1)-proportional,
    sub-linear with batching, so check the direction and a clear gap.
    """
    partial_row, full = _propagation_rows(rows, scale)
    _expect(
        partial_row.transactions_committed > 0 and full.transactions_committed > 0,
        "both replication factors must commit transactions",
    )
    _expect(
        full.messages_per_commit > partial_row.messages_per_commit * 1.3,
        "full replication should ship clearly more: "
        f"{partial_row.messages_per_commit:.2f} vs {full.messages_per_commit:.2f}",
    )


# ----------------------------------------------------------------------
# Ablations (ours)
# ----------------------------------------------------------------------
_render_stabilization = report.table(
    "Ablation — stabilization period vs staleness",
    ("period (ms)", lambda run: f"{run.params['stabilization_interval'] * 1000:.0f}"),
    ("UST staleness (ms)", lambda run: f"{run.result.ust_staleness * 1000:.1f}"),
    ("visibility mean (ms)", lambda run: f"{run.result.visibility_mean * 1000:.1f}"),
    ("tx/s", lambda run: f"{run.result.throughput:.0f}"),
    ("messages", lambda run: run.result.messages_total),
)


def _measured_stabilization(rows: List[Run], scale: BenchScale) -> str:
    return (
        "The paper fixes Delta_G = Delta_U = 5 ms; the sweep shows staleness "
        "degrading as the period grows while throughput stays flat — the "
        "5 ms choice buys freshness essentially for free."
    )


def _check_stabilization(rows: List[Run], scale: BenchScale) -> None:
    """Staleness grows with the period; throughput does not move, because
    gossip is off the critical path.
    """
    _expect(len(rows) >= 3, "the sweep needs at least three periods")
    _expect(
        rows[0].result.ust_staleness < rows[-1].result.ust_staleness,
        "staleness must grow with the stabilization period",
    )
    throughputs = [row.result.throughput for row in rows]
    _expect(
        max(throughputs) < min(throughputs) * 1.5,
        "throughput must stay within a modest band",
    )


_render_cache = report.table(
    "Ablation — client write cache (UST alone is not causal)",
    ("variant", lambda row: row.protocol_variant),
    ("commits", lambda row: row.commits),
    ("violations", lambda row: row.violations),
    ("kinds", lambda row: ",".join(row.violation_kinds) or "-"),
)


def _measured_cache(rows: list, scale: BenchScale) -> str:
    return (
        "Disabling the cache produces read-your-writes violations "
        f"({rows[1].violations} caught by the checker over "
        f"{rows[1].commits} commits) — empirical confirmation of "
        "Section III-B's 'UST alone cannot enforce causality'."
    )


def _check_cache(rows: list, scale: BenchScale) -> None:
    """Without the write cache a client loses read-your-writes, and the
    checker catches it; intact PaRiS under identical settings is clean.
    """
    healthy, broken = rows
    _expect(healthy.protocol_variant == "paris", "the first row is intact PaRiS")
    _expect(healthy.violations == 0, "intact PaRiS must be clean")
    _expect(broken.violations > 0, "dropping the cache must surface violations")
    _expect(
        "read-your-writes" in broken.violation_kinds,
        "the violations must be read-your-writes",
    )


_render_clocks = report.table(
    "Ablation — HLC vs logical clocks (UST freshness)",
    ("clock mode", lambda run: run.params["clock_mode"]),
    ("visibility mean (ms)", lambda run: f"{run.result.visibility_mean * 1000:.1f}"),
    ("visibility p99 (ms)", lambda run: f"{run.result.visibility_p99 * 1000:.1f}"),
    ("tx/s", lambda run: f"{run.result.throughput:.0f}"),
)


def _clock_rows(rows: List[Run]) -> tuple:
    by_mode = {row.params["clock_mode"]: row.result for row in rows}
    return by_mode["hlc"], by_mode["logical"]


def _measured_clocks(rows: List[Run], scale: BenchScale) -> str:
    hlc, logical = _clock_rows(rows)
    return (
        f"**Measured:** mean visibility latency {hlc.visibility_mean * 1000:.1f} ms "
        f"with HLCs vs {logical.visibility_mean * 1000:.1f} ms with logical "
        "clocks, which advance only on events and so hold the UST back."
    )


def _check_clocks(rows: List[Run], scale: BenchScale) -> None:
    """HLCs keep update visibility fresher; both modes stay live."""
    hlc, logical = _clock_rows(rows)
    _expect(
        logical.visibility_mean > hlc.visibility_mean,
        "logical clocks must yield staler snapshots than HLCs",
    )
    _expect(logical.throughput > 0 and hlc.throughput > 0, "both modes must stay live")


# ----------------------------------------------------------------------
# Section III-C claim: availability under an inter-DC partition
# ----------------------------------------------------------------------
_PARTITION_COLUMNS = (
    ("protocol", lambda row: row.protocol),
    ("tx before", lambda row: row.committed_before),
    ("tx during", lambda row: row.committed_during),
    ("tx after", lambda row: row.committed_after),
    ("parked @ heal", lambda row: row.parked_at_heal),
    ("blocked slices", lambda row: row.blocked_slices),
    ("max block (s)", lambda row: f"{row.blocking_max:.2f}"),
    ("staleness @ heal (s)", lambda row: f"{row.ust_staleness_at_heal:.2f}"),
    ("violations", lambda row: row.violations),
)


def _render_partition(rows: List[exp.PartitionStallResult]) -> str:
    """The episode table, then the contrast in one sentence when BPR stalled."""
    heading = f"Availability under an inter-DC partition (plan: {rows[0].plan_name})"
    text = report.table(heading, *_PARTITION_COLUMNS)(rows)
    by_protocol = {row.protocol: row for row in rows}
    paris, bpr = by_protocol.get("paris"), by_protocol.get("bpr")
    if paris is not None and bpr is not None and bpr.committed_during < paris.committed_during:
        text += (
            f"\n\nPaRiS committed {paris.committed_during} transactions during the partition "
            f"with {paris.blocked_slices} blocked reads; BPR committed "
            f"{bpr.committed_during} with {bpr.parked_at_heal} reads still parked at heal."
        )
    return text


def _measured_partition(rows: list, scale: BenchScale) -> str:
    by_protocol = {row.protocol: row for row in rows}
    return (
        "**Measured:** PaRiS committed "
        f"{by_protocol['paris'].committed_during} transactions during "
        "the partition with zero blocked reads, while BPR committed "
        f"{by_protocol['bpr'].committed_during} with reads parked "
        "until the heal; the consistency checker found no violation in "
        "either history."
    )


def _check_partition(rows: list, scale: BenchScale) -> None:
    """PaRiS keeps committing with no blocked read, BPR grinds to a near-halt
    with reads parked, and neither history has a violation.
    """
    by_protocol = {row.protocol: row for row in rows}
    paris, bpr = by_protocol["paris"], by_protocol["bpr"]
    _expect(paris.committed_during > 0, "PaRiS must stay available")
    _expect(paris.blocked_slices == 0, "PaRiS reads never block")
    _expect(
        bpr.committed_during < paris.committed_during * 0.1,
        "BPR must grind to a near-halt during the partition",
    )
    _expect(bpr.parked_at_heal > 0, "BPR reads park until the heal")
    for row in rows:
        _expect(row.violations == 0, f"{row.protocol}: {row.violations} violations")


# ----------------------------------------------------------------------
# Design-space study (ours): a committed sweep spec instead of a function
# ----------------------------------------------------------------------
def design_space_groups(scale: BenchScale) -> List[dict]:
    """Execute (or resume) the committed design-space sweep; its summary's groups.

    One group per (protocol, workload) cell, as :func:`repro.bench.results.aggregate`
    writes it (``params`` and per-metric ``metrics`` statistics).  The spec
    fixes its own deployment, so ``scale`` is ignored; the runs live in the
    default run repository (``results/``), which makes re-rendering free
    once they exist.
    """
    # Imported here so that loading the catalogue does not load repro.serve.
    from ..serve.repository import RunRepository

    repository = RunRepository(DEFAULT_REPO_DIR)
    report = sweep.execute_sweep(sweep.SweepSpec.load(DESIGN_SPACE_SPEC), repository)
    return results.write_sweep_summary(report, repository.root)[0]["groups"]


def _mean(group: dict, metric: str) -> float:
    """A group's mean of ``metric``; zero when no run reported it."""
    stats = group["metrics"].get(metric)
    return stats["mean"] if stats else 0.0


def _metadata_per_tx(group: dict) -> float:
    """Causal-metadata wire bytes amortised per measured transaction."""
    return _mean(group, "metadata_bytes_total") / max(_mean(group, "transactions_measured"), 1.0)


# Throughput and latency, update-visibility freshness, metadata bytes per
# transaction and stale-read retry rounds: the axes along which the
# registered variants trade against each other (docs/design_space.md).
_render_design_space = report.table(
    "Design space — protocol x workload trade-offs",
    ("protocol", lambda group: group["params"].get("protocol", "?")),
    ("workload", lambda group: group["params"].get("workload") or "default"),
    ("tx/s", lambda group: f"{_mean(group, 'throughput'):,.0f}"),
    ("lat (ms)", lambda group: f"{_mean(group, 'latency_mean') * 1000:.2f}"),
    ("p99 (ms)", lambda group: f"{_mean(group, 'latency_p99') * 1000:.2f}"),
    ("vis (ms)", lambda group: f"{_mean(group, 'visibility_mean') * 1000:.1f}"),
    ("meta B/tx", lambda group: f"{_metadata_per_tx(group):,.0f}"),
    ("retries", lambda group: f"{_mean(group, 'read_retries_total'):,.0f}"),
)


def _measured_design_space(groups: List[dict], scale: BenchScale) -> str:
    return (
        "Ours, not the paper's: every registered protocol on three workload "
        f"shapes, run from the committed sweep spec `{DESIGN_SPACE_SPEC}` at the "
        "spec's own deployment; docs/design_space.md discusses the trade-offs."
    )


#: Every artifact, in document order.
FIGURES: Dict[str, Figure] = {
    entry.name: entry
    for entry in (
        Figure(
            name="fig1a",
            title="Figure 1a — throughput vs latency, 95:5 r:w",
            paper="**Paper:** PaRiS up to 1.47x higher throughput, up to 5.91x "
            "lower latency than BPR.",
            run=partial(_run_fig1, "95:5"),
            render=_render_fig1,
            measured=_measured_fig1a,
            check=_check_fig1a,
        ),
        Figure(
            name="fig1b",
            title="Figure 1b — throughput vs latency, 50:50 r:w",
            paper="**Paper:** up to 1.46x higher throughput, up to 20.56x lower "
            "latency.",
            run=partial(_run_fig1, "50:50"),
            render=_render_fig1,
            measured=_measured_fig1b,
            check=_check_fig1b,
        ),
        Figure(
            name="blocking",
            title="Section V-B — BPR read blocking time",
            paper="**Paper:** 29 ms (95:5) and 41 ms (50:50) average blocking at "
            "top throughput.",
            run=exp.blocking_time,
            render=_render_blocking,
            measured=_measured_blocking,
            check=_check_blocking,
        ),
        Figure(
            name="fig2a",
            title="Figure 2a — scalability in machines per DC",
            paper="**Paper:** ideal 3x from 6 to 18 machines/DC.",
            run=exp.figure_2a,
            render=_render_fig2a,
            measured=lambda rows, scale: _measured_scaling(
                rows, scale.fig2a_machines, "dcs", "DCs"
            ),
            check=lambda rows, scale: _check_scaling(
                rows, scale.fig2a_machines, "dcs", "DCs"
            ),
        ),
        Figure(
            name="fig2b",
            title="Figure 2b — scalability in DCs",
            paper="**Paper:** ideal 3.33x from 3 to 10 DCs.",
            run=exp.figure_2b,
            render=_render_fig2b,
            measured=lambda rows, scale: _measured_scaling(
                rows, scale.fig2b_dcs, "machines", "machines/DC"
            ),
            check=lambda rows, scale: _check_scaling(
                rows, scale.fig2b_dcs, "machines", "machines/DC"
            ),
        ),
        Figure(
            name="fig3",
            title="Figures 3a/3b — locality sweep",
            paper="**Paper:** 100:0 -> 50:50 drops throughput ~16% (350 -> 300 "
            "KTx/s) while latency explodes 8 -> 150 ms, with the saturating "
            "thread count growing 32 -> 512.",
            run=exp.figure_3,
            render=_render_fig3,
            measured=_measured_fig3,
            check=_check_fig3,
        ),
        Figure(
            name="fig4",
            title="Figure 4 — update visibility latency CDF",
            paper="**Paper:** BPR strictly fresher; ~200 ms worst-case difference "
            "at 5 DCs.",
            run=exp.figure_4,
            render=_render_fig4,
            measured=_measured_fig4,
            check=_check_fig4,
        ),
        Figure(
            name="table1",
            title="Table I — taxonomy",
            paper="",
            run=lambda scale: report.TAXONOMY,
            render=_render_table1,
            measured=_measured_table1,
            check=_check_table1,
        ),
        Figure(
            name="capacity",
            title="Storage capacity — partial vs full replication",
            paper="**Paper claim (Sections I, V):** handles larger datasets than "
            "full-replication systems.",
            run=exp.capacity_comparison,
            render=_render_capacity,
            measured=_measured_capacity,
            check=_check_capacity,
        ),
        Figure(
            name="propagation",
            title="Update propagation cost — partial vs full replication",
            paper="**Paper claim (Section I):** updates performed in one DC are "
            "propagated to fewer replicas.",
            run=exp.propagation_cost,
            render=_render_propagation,
            measured=_measured_propagation,
            check=_check_propagation,
        ),
        Figure(
            name="ablation_stabilization",
            title="Ablation — stabilization period",
            paper="",
            run=exp.ablation_stabilization,
            render=_render_stabilization,
            measured=_measured_stabilization,
            check=_check_stabilization,
        ),
        Figure(
            name="ablation_cache",
            title="Ablation — client write cache",
            paper="",
            run=exp.ablation_client_cache,
            render=_render_cache,
            measured=_measured_cache,
            check=_check_cache,
        ),
        Figure(
            name="ablation_clocks",
            title="Ablation — HLC vs logical clocks",
            paper="**Paper (Section III-B):** HLCs improve the freshness of the "
            "snapshot determined by UST over logical clocks.",
            run=exp.ablation_clocks,
            render=_render_clocks,
            measured=_measured_clocks,
            check=_check_clocks,
        ),
        Figure(
            name="partition",
            title="Fault scenario — availability under an inter-DC partition",
            paper="**Paper (Section III-C):** a partitioned DC freezes the UST "
            "everywhere, but reads never block.",
            run=exp.partition_stall,
            render=_render_partition,
            measured=_measured_partition,
            check=_check_partition,
        ),
        Figure(
            name="design_space",
            title="Design space — protocol x workload trade-offs",
            paper="",
            run=design_space_groups,
            render=_render_design_space,
            measured=_measured_design_space,
        ),
    )
}


def section(task: Tuple[str, BenchScale]) -> Tuple[str, Optional[str]]:
    """Run one entry: its EXPERIMENTS.md section and its shape failure, if any.

    Takes one ``(name, scale)`` argument and lives at module level so
    :func:`repro.workers.pool_map` can ship it to worker processes.
    """
    name, scale = task
    entry = FIGURES[name]
    rows = entry.run(scale)
    commentary = "  ".join(
        part for part in (entry.paper, entry.measured(rows, scale)) if part
    )
    text = f"## {entry.title}\n\n```\n{entry.render(rows)}\n```\n\n{commentary}\n"
    return text, entry.failure(rows, scale)
