"""Sample reductions for ``summarize_measures``: percentiles and CDFs."""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence, Tuple


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile of ``samples``; ``fraction`` in [0, 1]."""
    if not samples:
        raise ValueError("percentile of empty sample set")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1]: {fraction}")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    rank = fraction * (len(ordered) - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return ordered[low]
    weight = rank - low
    value = ordered[low] * (1.0 - weight) + ordered[high] * weight
    # Clamp: float interpolation of near-equal neighbours can overshoot.
    return min(max(value, ordered[low]), ordered[high])


def cdf_points(samples: Sequence[float], n_points: int = 100) -> List[Tuple[float, float]]:
    """Empirical CDF of ``samples`` as ``n_points`` (value, fraction) pairs."""
    if not samples:
        return []
    if n_points < 2:
        raise ValueError("n_points must be >= 2")
    ordered = sorted(samples)
    points = []
    for i in range(n_points):
        fraction = i / (n_points - 1)
        points.append((percentile(ordered, fraction), fraction))
    return points


def mean_cdf(per_source_samples: Iterable[Sequence[float]], n_points: int = 100) -> List[Tuple[float, float]]:
    """Average CDFs across sources, the way the paper builds Figure 4.

    "we first obtain the CDF on every partition and then we compute the mean
    for each percentile" — each source contributes its own percentile curve
    and curves are averaged pointwise.
    """
    curves = [cdf_points(samples, n_points) for samples in per_source_samples if samples]
    if not curves:
        return []
    averaged = []
    for i in range(n_points):
        fraction = curves[0][i][1]
        value = math.fsum(curve[i][0] for curve in curves) / len(curves)
        averaged.append((value, fraction))
    return averaged
