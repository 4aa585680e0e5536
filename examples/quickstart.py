#!/usr/bin/env python3
"""Quickstart: build a small PaRiS deployment and run transactions.

Builds a 3-DC cluster (Virginia, Oregon, Ireland) with partial replication
(RF = 2), then walks through the client API of Algorithm 1:

* start an interactive transaction;
* read keys in parallel (possibly served by remote DCs);
* buffer writes and commit atomically via 2PC;
* observe read-your-writes through the client cache while the UST is still
  catching up, then watch the stable snapshot overtake the write.

Run:  python examples/quickstart.py
"""

from repro import (
    StreamingChecker,
    StreamingOracle,
    build_cluster,
    small_test_config,
)
from repro.clocks.hlc import timestamp_to_seconds


def main() -> None:
    config = small_test_config(n_dcs=3, machines_per_dc=2)
    # Every read and commit the clients report is judged as it happens.
    checker = StreamingChecker()
    oracle = StreamingOracle(checker=checker)
    cluster = build_cluster(config, protocol="paris", oracle=oracle)
    sim = cluster.sim

    # Let the stabilization plane converge before the session starts.
    sim.run(until=1.0)
    print(f"[t={sim.now:.3f}s] cluster up: {cluster.spec.n_dcs} DCs, "
          f"{cluster.spec.n_partitions} partitions, RF={cluster.spec.replication_factor}")
    print(f"  UST staleness right now: {cluster.ust_staleness() * 1000:.1f} ms")

    client = cluster.new_client(dc_id=0, coordinator_partition=0)

    def session():
        # --- Transaction 1: read two keys, update one ------------------
        handle = yield client.start_tx()
        print(f"[t={sim.now:.3f}s] tx1 started, snapshot covers physical time "
              f"{timestamp_to_seconds(handle.snapshot):.3f}s")
        values = yield client.read(["p0:k000000", "p1:k000000"])
        for key, result in sorted(values.items()):
            print(f"  read {key} = {result.value!r} (from {result.source})")
        client.write({"p0:k000000": "hello from tx1"})
        commit_ts = yield client.commit()
        print(f"[t={sim.now:.3f}s] tx1 committed at ts={commit_ts}")

        # --- Transaction 2: immediately read our own write -------------
        yield client.start_tx()
        values = yield client.read(["p0:k000000"])
        result = values["p0:k000000"]
        print(f"[t={sim.now:.3f}s] tx2 reads {result.value!r} from "
              f"{result.source!r} (cache bridges the stale snapshot)")
        client.finish()

        # --- Wait for the UST to cover the write, read again -----------
        yield 1.0
        yield client.start_tx()
        values = yield client.read(["p0:k000000"])
        result = values["p0:k000000"]
        print(f"[t={sim.now:.3f}s] tx3 reads {result.value!r} from "
              f"{result.source!r} (stable snapshot caught up; cache size="
              f"{len(client.cache)})")
        client.finish()

    process = sim.spawn(session())
    sim.run(until=5.0)
    if not process.done:
        raise RuntimeError("session did not finish; increase the run horizon")

    print(f"consistency check: {checker.commits_checked} commits, "
          f"{len(checker.violations)} violations")


if __name__ == "__main__":
    main()
