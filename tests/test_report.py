"""Unit tests for report rendering edge cases."""

from __future__ import annotations


from repro.bench import report
from repro.bench.experiments import (
    BlockingResult,
    CapacityRow,
    ClockAblationPoint,
    StabilizationPoint,
    VisibilityResult,
)
from repro.bench.harness import ExperimentResult


def make_result(**overrides) -> ExperimentResult:
    defaults = dict(
        protocol="paris",
        threads_per_client=1,
        sessions=6,
        throughput=1000.0,
        latency_mean=0.005,
        latency_p50=0.004,
        latency_p95=0.010,
        latency_p99=0.020,
        transactions_measured=1000,
        multi_dc_fraction=0.05,
        blocking_mean=0.0,
        blocking_p99=0.0,
        blocked_fraction=0.0,
        read_phase_blocking=0.0,
    )
    defaults.update(overrides)
    return ExperimentResult(**defaults)


class TestFormatTable:
    def test_pads_to_widest_cell(self):
        text = report.format_table(["h", "header2"], [["longvalue", "x"]])
        lines = text.splitlines()
        assert lines[0].startswith("h        ")  # padded to len("longvalue")
        assert lines[2].startswith("longvalue")

    def test_empty_rows(self):
        text = report.format_table(["a", "b"], [])
        assert len(text.splitlines()) == 2

    def test_non_string_cells(self):
        text = report.format_table(["n"], [[42], [3.5]])
        assert "42" in text and "3.5" in text


class TestCurvePercentile:
    def test_picks_first_at_or_above(self):
        curve = [(1.0, 0.0), (2.0, 0.5), (3.0, 1.0)]
        assert report._curve_percentile(curve, 0.5) == 2.0
        assert report._curve_percentile(curve, 0.6) == 3.0

    def test_empty_curve(self):
        assert report._curve_percentile([], 0.5) is None

    def test_beyond_last(self):
        curve = [(1.0, 0.0), (2.0, 0.9)]
        assert report._curve_percentile(curve, 0.99) == 2.0


class TestRenderers:
    def test_render_figure_4_with_missing_curve(self):
        results = [
            VisibilityResult(protocol="paris", result=make_result(visibility_cdf=[])),
        ]
        text = report.render_figure_4(results)
        assert "-" in text  # placeholder for missing percentiles

    def test_render_blocking(self):
        rows = [
            BlockingResult(
                mix="95:5", threads=32, blocking_mean=0.03,
                blocked_fraction=0.9, throughput=5000.0,
            )
        ]
        text = report.render_blocking(rows)
        assert "30.0" in text and "0.90" in text

    def test_render_capacity(self):
        rows = [
            CapacityRow(
                label="partial", replication_factor=2,
                storage_fraction_per_dc=0.4, capacity_multiplier=2.5,
                measured_versions_per_dc=200.0,
            )
        ]
        text = report.render_capacity(rows)
        assert "2.50x" in text

    def test_render_stabilization(self):
        rows = [
            StabilizationPoint(
                interval=0.005, ust_staleness=0.150,
                visibility_mean=0.160, throughput=4000.0,
                stabilization_messages=123456,
            )
        ]
        text = report.render_stabilization(rows)
        assert "5" in text and "150.0" in text

    def test_render_clock_ablation(self):
        rows = [
            ClockAblationPoint(
                mode="hlc", visibility_mean=0.16, visibility_p99=0.21, throughput=3500.0
            ),
            ClockAblationPoint(
                mode="logical", visibility_mean=0.50, visibility_p99=0.90, throughput=3400.0
            ),
        ]
        text = report.render_clock_ablation(rows)
        assert "hlc" in text and "logical" in text

    def test_taxonomy_metadata_kinds(self):
        kinds = {entry.metadata for entry in report.TAXONOMY}
        assert "1 ts" in kinds and "O(|deps|)" in kinds and "M" in kinds


class TestPropagationRendering:
    def test_render_propagation(self):
        from repro.bench.experiments import PropagationRow

        rows = [
            PropagationRow(
                replication_factor=2,
                inter_dc_replication_messages=1000,
                transactions_committed=500,
                messages_per_commit=2.0,
            ),
            PropagationRow(
                replication_factor=5,
                inter_dc_replication_messages=4000,
                transactions_committed=500,
                messages_per_commit=8.0,
            ),
        ]
        text = report.render_propagation(rows)
        assert "msgs/commit" in text
        assert "8.00" in text


class TestDesignSpaceRendering:
    def test_two_groups_one_without_visibility(self):
        def stats(mean):
            return {"mean": mean}

        summary = {
            "groups": [
                {
                    "params": {"protocol": "paris", "workload": "ycsb_a"},
                    "metrics": {
                        "throughput": stats(12345.6),
                        "latency_mean": stats(0.00512),
                        "latency_p99": stats(0.0203),
                        "visibility_mean": stats(0.1612),
                        "transactions_measured": stats(2000.0),
                        "metadata_bytes_total": stats(3_000_000.0),
                        "read_retries_total": stats(0.0),
                    },
                },
                {
                    # No profile (the mix alone) and no visibility samples.
                    "params": {"protocol": "occult", "workload": None},
                    "metrics": {
                        "throughput": stats(900.0),
                        "latency_mean": stats(0.05),
                        "latency_p99": stats(0.25),
                        "transactions_measured": stats(100.0),
                        "metadata_bytes_total": stats(52_000.0),
                        "read_retries_total": stats(1234.0),
                    },
                },
            ]
        }
        lines = report.render_design_space(summary).splitlines()
        assert lines[0] == "Design space — protocol x workload trade-offs"
        assert lines[1].split() == [
            "protocol", "workload", "tx/s", "lat", "(ms)", "p99", "(ms)",
            "vis", "(ms)", "meta", "B/tx", "retries",
        ]
        assert lines[3].split() == [
            "paris", "ycsb_a", "12,346", "5.12", "20.30", "161.2", "1,500", "0",
        ]
        # A missing metric renders as zero rather than failing the table.
        assert lines[4].split() == [
            "occult", "default", "900", "50.00", "250.00", "0.0", "520", "1,234",
        ]
        assert len(lines) == 5
