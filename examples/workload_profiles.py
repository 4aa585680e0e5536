"""Tour of the workload-profile catalogue.

Runs a handful of registered profiles — the paper's read-heavy mix, the
YCSB-A and YCSB-F analogues, and the shifting-hotspot scenario — on one
small PaRiS deployment and prints them side by side.  Every profile is a
name; `repro.bench.sweep.config_from_params` resolves it into the operation
mix, key distribution, value sizes, and arrival schedule it bundles.

    PYTHONPATH=src python examples/workload_profiles.py

See docs/workloads.md for the full catalogue and how to add a profile.
"""

from __future__ import annotations

from repro.bench import report
from repro.bench.harness import run_experiment
from repro.bench.sweep import config_from_params
from repro.workload.profiles import get_profile

PROFILES = ("read_heavy", "ycsb_a", "ycsb_f", "hotspot_shift", "bursty")


def main() -> None:
    rows = []
    for name in PROFILES:
        profile = get_profile(name)
        config, protocol = config_from_params(
            {
                "workload": name,
                "dcs": 3,
                "machines": 2,
                "threads": 1,
                "keys": 50,
                "warmup": 0.4,
                "duration": 0.8,
                "seed": 7,
            }
        )
        result = run_experiment(config, protocol=protocol)
        rows.append(
            (
                name,
                profile.mix,
                profile.key_dist + ("+rmw" if profile.rmw else ""),
                profile.arrival.kind,
                f"{result.throughput:,.0f}",
                f"{result.latency_mean_ms:.2f}",
            )
        )
        print(f"ran {name:14s} ({profile.description})")
    print()
    print(
        report.format_table(
            ["profile", "mix", "keys", "arrival", "tx/s", "avg lat (ms)"], rows
        )
    )
    print("\nThe same names work everywhere: 'repro run --workload NAME',")
    print('\'repro run --big --workload NAME\', and a sweep axis "workload": [...].')


if __name__ == "__main__":
    main()
