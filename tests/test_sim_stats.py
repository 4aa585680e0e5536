"""Unit + property tests for the percentile and CDF reductions."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.stats import cdf_points, mean_cdf, percentile

finite_floats = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)


class TestPercentile:
    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)

    def test_out_of_range_fraction(self):
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)

    def test_single_sample(self):
        assert percentile([42.0], 0.99) == 42.0

    def test_median_of_odd(self):
        assert percentile([3.0, 1.0, 2.0], 0.5) == 2.0

    def test_interpolation(self):
        assert percentile([0.0, 10.0], 0.25) == pytest.approx(2.5)

    def test_extremes(self):
        values = [5.0, 1.0, 9.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 1.0) == 9.0

    @given(st.lists(finite_floats, min_size=1, max_size=100), st.floats(0, 1))
    def test_within_range_and_monotone(self, values, fraction):
        p = percentile(values, fraction)
        assert min(values) <= p <= max(values)
        assert percentile(values, 0.0) <= p <= percentile(values, 1.0)


class TestCdf:
    def test_empty(self):
        assert cdf_points([]) == []

    def test_endpoints(self):
        points = cdf_points([1.0, 2.0, 3.0], n_points=5)
        assert points[0] == (1.0, 0.0)
        assert points[-1] == (3.0, 1.0)

    def test_monotone_values(self):
        points = cdf_points([5.0, 1.0, 4.0, 2.0], n_points=10)
        values = [v for v, _ in points]
        assert values == sorted(values)

    def test_requires_two_points(self):
        with pytest.raises(ValueError):
            cdf_points([1.0], n_points=1)

    def test_mean_cdf_averages_sources(self):
        curve = mean_cdf([[0.0, 0.0], [2.0, 2.0]], n_points=3)
        assert [v for v, _ in curve] == pytest.approx([1.0, 1.0, 1.0])

    def test_mean_cdf_skips_empty_sources(self):
        curve = mean_cdf([[], [1.0, 3.0]], n_points=3)
        assert [v for v, _ in curve] == pytest.approx([1.0, 2.0, 3.0])

    def test_mean_cdf_averages_exactly(self):
        curve = mean_cdf([[1e16, 1e16], [1.0, 1.0], [-1e16, -1e16]], n_points=3)
        assert [v for v, _ in curve] == [1.0 / 3] * 3

    def test_mean_cdf_all_empty(self):
        assert mean_cdf([[], []]) == []
