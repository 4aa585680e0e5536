"""The figure catalogue: every artifact of the paper's evaluation, once.

:data:`FIGURES` holds one :class:`Figure` per table, figure, quoted number
or claim of the paper (Section V, and the claims of Sections I, III and VI),
plus our three ablations and the design-space study.  An entry names the
experiment that produces the rows, the renderer, the paper's claim, the
sentence that sets the measured shape against it, and the shape assertions.
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
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from . import experiments as exp
from . import report, results, sweep
from .experiments import BenchScale

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
    #: ``render(rows) -> str``: the table ``repro figure`` prints.
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


def _render_fig1(rows: Tuple[list, exp.Figure1Summary]) -> str:
    points, summary = rows
    return (
        report.render_figure_1(summary.mix, points)
        + "\n"
        + report.render_figure_1_summary(summary)
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
    paris = {p.threads: p for p in points if p.protocol == "paris"}
    for point in points:
        twin = paris.get(point.threads)
        if point.protocol == "bpr" and twin is not None:
            _expect(
                twin.result.latency_mean < point.result.latency_mean,
                f"PaRiS is slower than BPR at {point.threads} threads",
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
def _measured_blocking(rows: list, scale: BenchScale) -> str:
    return (
        "**Measured:** "
        + ", ".join(f"{row.blocking_mean * 1000:.1f} ms ({row.mix})" for row in rows)
        + " — set by the one-way latency to the peer replica plus the apply "
        "period, the same mechanism the paper identifies."
    )


def _check_blocking(rows: list, scale: BenchScale) -> None:
    """Blocking is tens of milliseconds, nearly every read blocks, and the
    write-heavy mix blocks at least as long as the read-heavy one.
    """
    by_mix = {row.mix: row for row in rows}
    for row in rows:
        _expect(0.005 < row.blocking_mean < 0.5, "blocking should be tens of ms")
        _expect(row.blocked_fraction > 0.5, "fresh snapshots park almost every read")
    _expect(
        by_mix["50:50"].blocking_mean >= by_mix["95:5"].blocking_mean * 0.8,
        "the write-heavy mix must block about as long as the read-heavy one",
    )


# ----------------------------------------------------------------------
# Figure 2: scalability
# ----------------------------------------------------------------------
def _measured_scaling(points: list, sizes: Sequence[int], by: str, unit: str) -> str:
    factors = exp.scaling_factor(points, by=by)
    return (
        "**Measured:** "
        + ", ".join(f"{f:.2f}x @ {key} {unit}" for key, f in sorted(factors.items()))
        + f" against an ideal of {max(sizes) / min(sizes):.2f}x."
    )


def _check_scaling(points: list, sizes: Sequence[int], by: str, unit: str) -> None:
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
def _measured_fig3(points: list, scale: BenchScale) -> str:
    fully, half = points[0].result, points[-1].result
    return (
        f"**Measured:** throughput ratio {half.throughput / fully.throughput:.2f}x, "
        f"latency ratio {half.latency_mean / fully.latency_mean:.1f}x, threads "
        f"{points[0].threads_at_peak} -> {points[-1].threads_at_peak}."
    )


def _check_fig3(points: list, scale: BenchScale) -> None:
    """3a: the 50:50 point keeps most of the 100:0 throughput, at more
    threads (saturation is CPU-bound).  3b: latency grows monotonically and
    several-fold as transactions start crossing the WAN.
    """
    by_locality = {p.locality: p for p in points}
    fully_local = by_locality[1.0].result.throughput
    half_local = by_locality[0.5].result.throughput
    _expect(
        half_local > fully_local * 0.5,
        f"throughput collapsed: {fully_local:.0f} -> {half_local:.0f} tx/s",
    )
    _expect(
        by_locality[0.5].threads_at_peak >= by_locality[1.0].threads_at_peak,
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


def _measured_fig4(rows: list, scale: BenchScale) -> str:
    by_protocol = {r.protocol: r.result for r in rows}
    gap = by_protocol["paris"].visibility_p99 - by_protocol["bpr"].visibility_p99
    return (
        f"**Measured:** p99 gap {gap * 1000:.0f} ms with a WAN diameter of "
        f"{_wan_diameter(scale) * 1000:.0f} ms one-way — same mechanism (UST "
        "lags by the WAN diameter plus gossip rounds)."
    )


def _check_fig4(rows: list, scale: BenchScale) -> None:
    """BPR's CDF lies left of PaRiS's; PaRiS's is bounded by the WAN diameter
    plus a few stabilization rounds, which is also the size of the gap.
    """
    by_protocol = {r.protocol: r.result for r in rows}
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
def _measured_stabilization(rows: list, scale: BenchScale) -> str:
    return (
        "The paper fixes Delta_G = Delta_U = 5 ms; the sweep shows staleness "
        "degrading as the period grows while throughput stays flat — the "
        "5 ms choice buys freshness essentially for free."
    )


def _check_stabilization(rows: list, scale: BenchScale) -> None:
    """Staleness grows with the period; throughput does not move, because
    gossip is off the critical path.
    """
    _expect(len(rows) >= 3, "the sweep needs at least three periods")
    _expect(
        rows[0].ust_staleness < rows[-1].ust_staleness,
        "staleness must grow with the stabilization period",
    )
    throughputs = [row.throughput for row in rows]
    _expect(
        max(throughputs) < min(throughputs) * 1.5,
        "throughput must stay within a modest band",
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


def _clock_rows(rows: list) -> tuple:
    by_mode = {row.mode: row for row in rows}
    return by_mode["hlc"], by_mode["logical"]


def _measured_clocks(rows: list, scale: BenchScale) -> str:
    hlc, logical = _clock_rows(rows)
    return (
        f"**Measured:** mean visibility latency {hlc.visibility_mean * 1000:.1f} ms "
        f"with HLCs vs {logical.visibility_mean * 1000:.1f} ms with logical "
        "clocks, which advance only on events and so hold the UST back."
    )


def _check_clocks(rows: list, scale: BenchScale) -> None:
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
def design_space_summary(scale: BenchScale) -> dict:
    """Execute (or resume) the committed design-space sweep and aggregate it.

    The spec fixes its own deployment, so ``scale`` is ignored; the sweep
    engine's content-addressed cache (``sweep_results/``) makes re-rendering
    free once the runs exist.
    """
    spec = sweep.SweepSpec.load(DESIGN_SPACE_SPEC)
    return results.aggregate(
        sweep.execute_sweep(spec, "sweep_results").records, spec=spec
    )


def _measured_design_space(summary: dict, scale: BenchScale) -> str:
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
            render=report.render_blocking,
            measured=_measured_blocking,
            check=_check_blocking,
        ),
        Figure(
            name="fig2a",
            title="Figure 2a — scalability in machines per DC",
            paper="**Paper:** ideal 3x from 6 to 18 machines/DC.",
            run=exp.figure_2a,
            render=partial(report.render_figure_2, which="2a"),
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
            render=partial(report.render_figure_2, which="2b"),
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
            render=report.render_figure_3,
            measured=_measured_fig3,
            check=_check_fig3,
        ),
        Figure(
            name="fig4",
            title="Figure 4 — update visibility latency CDF",
            paper="**Paper:** BPR strictly fresher; ~200 ms worst-case difference "
            "at 5 DCs.",
            run=exp.figure_4,
            render=report.render_figure_4,
            measured=_measured_fig4,
            check=_check_fig4,
        ),
        Figure(
            name="table1",
            title="Table I — taxonomy",
            paper="",
            run=lambda scale: report.TAXONOMY,
            render=report.render_table_1,
            measured=_measured_table1,
            check=_check_table1,
        ),
        Figure(
            name="capacity",
            title="Storage capacity — partial vs full replication",
            paper="**Paper claim (Sections I, V):** handles larger datasets than "
            "full-replication systems.",
            run=exp.capacity_comparison,
            render=report.render_capacity,
            measured=_measured_capacity,
            check=_check_capacity,
        ),
        Figure(
            name="propagation",
            title="Update propagation cost — partial vs full replication",
            paper="**Paper claim (Section I):** updates performed in one DC are "
            "propagated to fewer replicas.",
            run=exp.propagation_cost,
            render=report.render_propagation,
            measured=_measured_propagation,
            check=_check_propagation,
        ),
        Figure(
            name="ablation_stabilization",
            title="Ablation — stabilization period",
            paper="",
            run=exp.ablation_stabilization,
            render=report.render_stabilization,
            measured=_measured_stabilization,
            check=_check_stabilization,
        ),
        Figure(
            name="ablation_cache",
            title="Ablation — client write cache",
            paper="",
            run=exp.ablation_client_cache,
            render=report.render_cache_ablation,
            measured=_measured_cache,
            check=_check_cache,
        ),
        Figure(
            name="ablation_clocks",
            title="Ablation — HLC vs logical clocks",
            paper="**Paper (Section III-B):** HLCs improve the freshness of the "
            "snapshot determined by UST over logical clocks.",
            run=exp.ablation_clocks,
            render=report.render_clock_ablation,
            measured=_measured_clocks,
            check=_check_clocks,
        ),
        Figure(
            name="partition",
            title="Fault scenario — availability under an inter-DC partition",
            paper="**Paper (Section III-C):** a partitioned DC freezes the UST "
            "everywhere, but reads never block.",
            run=exp.partition_stall,
            render=report.render_partition_stall,
            measured=_measured_partition,
            check=_check_partition,
        ),
        Figure(
            name="design_space",
            title="Design space — protocol x workload trade-offs",
            paper="",
            run=design_space_summary,
            render=report.render_design_space,
            measured=_measured_design_space,
        ),
    )
}


def section(task: Tuple[str, BenchScale]) -> Tuple[str, Optional[str]]:
    """Run one entry: its EXPERIMENTS.md section and its shape failure, if any.

    Takes one ``(name, scale)`` argument and lives at module level so
    :func:`repro.bench.sweep.parallel_map` can ship it to worker processes.
    """
    name, scale = task
    entry = FIGURES[name]
    rows = entry.run(scale)
    commentary = "  ".join(
        part for part in (entry.paper, entry.measured(rows, scale)) if part
    )
    text = f"## {entry.title}\n\n```\n{entry.render(rows)}\n```\n\n{commentary}\n"
    return text, entry.failure(rows, scale)
