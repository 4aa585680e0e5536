#!/usr/bin/env python3
"""Capacity planning: what partial replication buys, and what it costs.

Two sides of the paper's trade-off:

1. **Storage capacity** (Section I): with M DCs and replication factor R,
   each DC holds only R/M of the dataset, so the same hardware fits M/R
   times more data than full replication.  We compare modelled and measured
   footprints.
2. **Locality sensitivity** (Figure 3): the price of partial replication is
   that multi-DC transactions pay WAN latency.  A quick sweep shows latency
   growing sharply as locality drops while throughput degrades mildly.

Run:  python examples/capacity_planning.py
"""

import dataclasses

from repro.bench import experiments as exp
from repro.bench.figures import FIGURES


def main() -> None:
    scale = dataclasses.replace(
        exp.SCALES["small"], warmup=0.8, duration=1.0, saturating_threads=16
    )

    print("== Storage footprint: partial (RF=2) vs full replication ==\n")
    rows = exp.capacity_comparison(scale)
    print(FIGURES["capacity"].render(rows))
    partial, full = rows
    print(
        f"\nA {scale.n_dcs}-DC deployment with RF={partial.replication_factor} "
        f"stores {partial.capacity_multiplier:.1f}x the dataset of full "
        f"replication on the same per-DC hardware."
    )

    print("\n== The cost: locality sweep (Figure 3 in miniature) ==\n")
    # Low-locality points need far more threads to saturate (the paper went
    # from 32 to 512); the ladder's top rung is what makes 50:50 comparable.
    points = exp.figure_3(scale, localities=(1.0, 0.9, 0.5), thread_ladder=(8, 32, 128))
    print(FIGURES["fig3"].render(points))
    fully_local = points[0].result
    half_local = points[-1].result
    print(
        f"\n100:0 -> 50:50 locality: throughput {fully_local.throughput:.0f} -> "
        f"{half_local.throughput:.0f} tx/s "
        f"({half_local.throughput / fully_local.throughput:.2f}x), latency "
        f"{fully_local.latency_mean_ms:.1f} -> {half_local.latency_mean_ms:.1f} ms "
        f"({half_local.latency_mean / fully_local.latency_mean:.1f}x)."
    )
    print(
        "\nAs the paper argues (Section V-D), partial replication targets\n"
        "workloads with high access locality; the latency cliff at low\n"
        "locality is the price of the capacity gain above."
    )


if __name__ == "__main__":
    main()
