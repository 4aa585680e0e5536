#!/usr/bin/env python3
"""Social network on PaRiS: causal consistency under slow replication.

The motivating anomaly for causal consistency: Alice posts, Bob reads the
post and replies, and a third user must never see Bob's reply without
Alice's post.  This example makes the race *likely* by cutting replication of
the post's partition between two DCs for a while — under eventual consistency
Carol would observe the fractured state; PaRiS's UST snapshot provably can't
show it.

Three sessions in three different DCs:

* Alice (DC 0) writes ``wall:alice``;
* Bob (DC 1) reads Alice's post, then writes ``replies:alice`` (a causal
  dependency across partitions);
* Carol (DC 2) polls both keys in one transaction and asserts she never
  sees the reply without the post.

Run:  python examples/social_network.py
"""

from repro import (
    StreamingChecker,
    StreamingOracle,
    build_cluster,
    small_test_config,
)

POST_KEY = "p0:wall:alice"
REPLY_KEY = "p1:replies:alice"


def main() -> None:
    config = small_test_config(n_dcs=3, machines_per_dc=2, keys_per_partition=10)
    checker = StreamingChecker()
    oracle = StreamingOracle(checker=checker)
    cluster = build_cluster(config, protocol="paris", oracle=oracle)
    sim = cluster.sim

    # The wall and the replies live on different partitions (0 and 1) with
    # different replica sets — the hard case of Section III-A.
    for partition, key in ((0, POST_KEY), (1, REPLY_KEY)):
        for dc in cluster.spec.replica_dcs(partition):
            cluster.server(dc, partition).preload(key, "")

    sim.run(until=1.0)  # stabilization warmup

    alice = cluster.new_client(dc_id=0, coordinator_partition=0)
    bob = cluster.new_client(dc_id=1, coordinator_partition=1)
    carol = cluster.new_client(dc_id=2, coordinator_partition=2)
    observations = []

    def alice_session():
        yield alice.start_tx()
        alice.write({POST_KEY: "alice: off to the alps!"})
        yield alice.commit()
        print(f"[t={sim.now:.3f}s] alice posted")

    def bob_session():
        # Poll until Alice's post is visible, then reply.
        while True:
            yield bob.start_tx()
            values = yield bob.read([POST_KEY])
            post = values[POST_KEY].value
            if post:
                bob.write({REPLY_KEY: "bob: bring snowshoes! (re: alps)"})
                yield bob.commit()
                print(f"[t={sim.now:.3f}s] bob saw the post and replied")
                return
            bob.finish()
            yield 0.05

    def carol_session():
        # Keep reading both keys in one transaction; record what she sees.
        for _ in range(80):
            yield carol.start_tx()
            values = yield carol.read([POST_KEY, REPLY_KEY])
            post = values[POST_KEY].value
            reply = values[REPLY_KEY].value
            observations.append((sim.now, bool(post), bool(reply)))
            carol.finish()
            if post and reply:
                print(f"[t={sim.now:.3f}s] carol sees post AND reply")
                return
            yield 0.05

    sim.spawn(alice_session())
    sim.spawn(bob_session())
    carol_process = sim.spawn(carol_session())

    # Slow down replication of the post's partition towards Carol's DC for a
    # while: an eventually-consistent read would now show the reply without
    # the post, because the reply's partition replicates fine.
    sim.run(until=1.2)
    print(f"[t={sim.now:.3f}s] -- partitioning DC0 <-> DC2 (post replication stalls)")
    cluster.network.partition_dcs(0, 2)
    sim.run(until=2.2)
    print(f"[t={sim.now:.3f}s] -- healing the partition")
    cluster.network.heal(0, 2)
    sim.run(until=8.0)

    if not carol_process.done:
        raise RuntimeError("carol never converged; extend the run horizon")

    fractured = [obs for obs in observations if obs[2] and not obs[1]]
    print(f"carol made {len(observations)} observations; "
          f"fractured (reply without post): {len(fractured)}")
    assert not fractured, "causal violation observed!"

    print(f"checker: {checker.reads_checked} reads verified, "
          f"{len(checker.violations)} violations")


if __name__ == "__main__":
    main()
