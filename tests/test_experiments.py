"""Tests for the per-figure experiment drivers and report rendering."""

from __future__ import annotations

import dataclasses

import pytest

from repro.bench import experiments as exp
from repro.bench import report
from repro.bench.sweep import config_from_params
from repro.config import mix_workload
from repro.protocols import protocol_names


@pytest.fixture(scope="module")
def micro_scale():
    """A very small rendition so experiment tests stay fast."""
    return dataclasses.replace(
        exp.SCALES["small"],
        name="micro",
        thread_ladder=(1, 4),
        saturating_threads=8,
        warmup=0.5,
        duration=0.6,
        keys_per_partition=30,
        fig2a_machines=(2, 4),
        fig2a_dcs=(3,),
        fig2b_dcs=(3, 5),
        fig2b_machines=(2,),
    )


class TestScales:
    def test_known_scales(self):
        assert set(exp.SCALES) == {"small", "medium", "paper"}
        paper = exp.SCALES["paper"]
        assert (paper.n_dcs, paper.machines_per_dc) == (5, 18)

    def test_mix_workloads(self):
        assert mix_workload("95:5").reads_per_tx == 19
        assert mix_workload("50:50").writes_per_tx == 10
        with pytest.raises(ValueError):
            mix_workload("80:20")

    def test_base_config_applies_scale(self, micro_scale):
        config, _ = config_from_params(exp.scale_params(micro_scale, threads=3))
        assert config.cluster.n_dcs == micro_scale.n_dcs
        assert config.workload.threads_per_client == 3
        assert config.workload.keys_per_partition == micro_scale.keys_per_partition


class TestFigure1:
    @pytest.fixture(scope="class")
    def points(self, request):
        scale = dataclasses.replace(
            exp.SCALES["small"],
            thread_ladder=(2, 8),
            warmup=0.5,
            duration=0.6,
            keys_per_partition=30,
        )
        return exp.figure_1("95:5", scale=scale)

    def test_curve_shape(self, points):
        by_protocol = {}
        for point in points:
            by_protocol.setdefault(point.protocol, []).append(point)
        assert set(by_protocol) == {"paris", "bpr"}
        assert len(by_protocol["paris"]) >= 2
        # BPR's ladder is extended past PaRiS's so its curve can saturate.
        assert len(by_protocol["bpr"]) >= len(by_protocol["paris"])
        assert max(p.threads for p in by_protocol["bpr"]) >= max(
            p.threads for p in by_protocol["paris"]
        )

    def test_paris_dominates_bpr(self, points):
        summary = exp.summarize_figure_1("95:5", points)
        assert summary.throughput_gain > 1.0
        assert summary.latency_ratio > 1.0
        assert summary.bpr_blocking_at_peak > 0

    def test_peak_selection(self, points):
        peak = exp.peak_throughput(points, "paris")
        assert all(
            peak.result.throughput >= p.result.throughput
            for p in points
            if p.protocol == "paris"
        )
        with pytest.raises(ValueError):
            exp.peak_throughput(points, "nope")

    def test_rendering(self, points):
        text = report.render_figure_1("95:5", points)
        assert "Figure 1" in text
        assert "paris" in text and "bpr" in text
        summary_text = report.render_figure_1_summary(
            exp.summarize_figure_1("95:5", points)
        )
        assert "throughput gain" in summary_text


class TestFigure2:
    def test_scaling_in_machines(self, micro_scale):
        points = exp.figure_2a(micro_scale)
        assert len(points) == 2
        factors = exp.scaling_factor(points, by="dcs")
        # Doubling machines/DC should give clearly more throughput.
        assert factors[3] > 1.5
        assert "Figure 2a" in report.render_figure_2(points, "2a")

    def test_scaling_in_dcs(self, micro_scale):
        points = exp.figure_2b(micro_scale)
        factors = exp.scaling_factor(points, by="machines")
        # 3 -> 5 DCs: close to the 5/3 ideal.
        assert factors[2] > 1.2


class TestFigure3:
    def test_locality_sweep_shape(self, micro_scale):
        points = exp.figure_3(micro_scale, localities=(1.0, 0.5), thread_ladder=(4, 16))
        assert [p.locality for p in points] == [1.0, 0.5]
        fully, half = points
        assert fully.result.latency_mean < half.result.latency_mean
        assert "Figure 3" in report.render_figure_3(points)


class TestFigure4:
    def test_visibility_comparison(self, micro_scale):
        results = exp.figure_4(micro_scale, threads=1, sample_rate=1.0)
        by_protocol = {r.protocol: r.result for r in results}
        assert set(by_protocol) == {"paris", "bpr"}
        # Figure 4's shape: BPR exposes updates sooner than PaRiS.
        assert (
            by_protocol["bpr"].visibility_mean < by_protocol["paris"].visibility_mean
        )
        text = report.render_figure_4(results)
        assert "visibility" in text


class TestBlockingAndCapacity:
    def test_blocking_rows(self, micro_scale):
        rows = exp.blocking_time(micro_scale, mixes=("95:5",))
        assert rows[0].blocking_mean > 0.005  # tens of ms of WAN lag
        assert rows[0].blocked_fraction > 0.5
        assert "blocking" in report.render_blocking(rows)

    def test_capacity_rows(self, micro_scale):
        rows = exp.capacity_comparison(micro_scale)
        partial, full = rows
        assert partial.capacity_multiplier > 1.0
        assert full.capacity_multiplier == 1.0
        assert partial.measured_versions_per_dc < full.measured_versions_per_dc
        assert "capacity" in report.render_capacity(rows).lower()


class TestAblations:
    def test_stabilization_sweep(self, micro_scale):
        rows = exp.ablation_stabilization(micro_scale, intervals=(0.002, 0.05))
        fast, slow = rows
        assert fast.ust_staleness < slow.ust_staleness
        assert fast.visibility_mean < slow.visibility_mean
        assert "stabilization" in report.render_stabilization(rows).lower()

    def test_cache_ablation_flags_only_broken_variant(self, micro_scale):
        registered = protocol_names()
        rows = exp.ablation_client_cache(micro_scale)
        assert protocol_names() == registered  # the throwaway spec is gone again
        healthy, broken = rows
        assert healthy.violations == 0
        assert broken.violations > 0
        assert "read-your-writes" in broken.violation_kinds
        assert "cache" in report.render_cache_ablation(rows).lower()


class TestTable1:
    def test_taxonomy_matches_paper(self):
        names = {entry.name for entry in report.TAXONOMY}
        assert "COPS" in names and "Cure" in names and "Wren" in names
        assert len(report.TAXONOMY) == 20

    def test_paris_is_unique(self):
        assert report.unique_full_support() == ["PaRiS (this work)"]

    def test_render(self):
        text = report.render_table_1()
        assert "Table I" in text
        assert "PaRiS (this work)" in text

    def test_format_table_alignment(self):
        text = report.format_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        assert len(lines) == 4
        # Every cell is padded to its column's widest entry, so rows line up.
        assert lines == ["a    bb", "---  --", "1    2 ", "333  4 "]
