"""Unit + statistical tests for the workload substrate."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.cluster.topology import ClusterSpec
from repro.config import WorkloadConfig
from repro.workload.generator import WorkloadGenerator, dataset_keys, key_name
from repro.workload.zipfian import (
    LatestBiasedGenerator,
    ShiftingHotspotGenerator,
    UniformGenerator,
    ZipfianGenerator,
)


def zipf_pmf(n: int, theta: float) -> list:
    """The ideal zipfian probability of each rank."""
    weights = [1.0 / ((rank + 1) ** theta) for rank in range(n)]
    total = sum(weights)
    return [w / total for w in weights]


#: Geometric rank bins for the chi-square tests (head resolved finely).
BINS = [(0, 1), (1, 2), (2, 4), (4, 8), (8, 16), (16, 32), (32, 64), (64, 100)]


def chi_square(counts: Counter, probs: list, total: int, bins=BINS) -> float:
    """Pearson's chi-square statistic of binned observed vs expected counts."""
    stat = 0.0
    for lo, hi in bins:
        observed = sum(counts.get(rank, 0) for rank in range(lo, hi))
        expected = sum(probs[lo:hi]) * total
        stat += (observed - expected) ** 2 / expected
    return stat


class TestZipfian:
    def test_ranks_in_range(self):
        gen = ZipfianGenerator(100, theta=0.99)
        rng = random.Random(1)
        for _ in range(5000):
            assert 0 <= gen.sample(rng) < 100

    def test_skew_favours_low_ranks(self):
        gen = ZipfianGenerator(100, theta=0.99)
        rng = random.Random(2)
        counts = Counter(gen.sample(rng) for _ in range(20000))
        assert counts[0] > counts.get(50, 0) * 5
        # Top 10 ranks take well over half the mass at theta=0.99.
        top = sum(counts[i] for i in range(10))
        assert top / 20000 > 0.5

    def test_relative_frequencies_follow_power_law(self):
        gen = ZipfianGenerator(1000, theta=0.99)
        rng = random.Random(3)
        counts = Counter(gen.sample(rng) for _ in range(50000))
        # P(0)/P(9) should be about (10/1)^0.99 ~ 9.8; allow slack.
        ratio = counts[0] / max(counts[9], 1)
        assert 4.0 < ratio < 25.0

    def test_single_item(self):
        gen = ZipfianGenerator(1)
        rng = random.Random(4)
        assert gen.sample(rng) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            ZipfianGenerator(0)
        with pytest.raises(ValueError):
            ZipfianGenerator(10, theta=1.0)

    def test_deterministic_for_seed(self):
        gen = ZipfianGenerator(50)
        a = [gen.sample(random.Random(7)) for _ in range(5)]
        b = [gen.sample(random.Random(7)) for _ in range(5)]
        assert a == b


class TestDistributionCorrectness:
    """Seeded chi-square / rank-frequency checks of the key distributions.

    Gray's algorithm approximates the ideal zipfian pmf (YCSB's generator
    has the same systematic deviation), so the zipfian thresholds carry
    margin over the observed ~70-120 statistic — while staying an order of
    magnitude below what a *wrong* distribution scores (theta=0.8 samples
    score ~2800 against the theta=0.99 pmf, uniform samples ~60000).
    """

    N_ITEMS = 100
    SAMPLES = 40_000

    def _counts(self, gen, seed: int) -> Counter:
        rng = random.Random(seed)
        return Counter(gen.sample(rng) for _ in range(self.SAMPLES))

    def test_zipfian_chi_square_matches_intended_pmf(self):
        probs = zipf_pmf(self.N_ITEMS, 0.99)
        for seed in (1, 2, 3):
            counts = self._counts(ZipfianGenerator(self.N_ITEMS, 0.99), seed)
            assert chi_square(counts, probs, self.SAMPLES) < 400.0

    def test_zipfian_rejects_wrong_theta(self):
        """The same statistic blows up for a mis-skewed generator."""
        probs = zipf_pmf(self.N_ITEMS, 0.99)
        counts = self._counts(ZipfianGenerator(self.N_ITEMS, 0.8), seed=5)
        assert chi_square(counts, probs, self.SAMPLES) > 1500.0

    def test_zipfian_rank_frequency_power_law(self):
        """P(rank)/P(10*rank) tracks 10^theta across the head of the curve."""
        counts = self._counts(ZipfianGenerator(1000, 0.99), seed=3)
        for rank in (0, 1, 4):
            ratio = counts[rank] / max(counts[(rank + 1) * 10 - 1], 1)
            ideal = (((rank + 1) * 10) / (rank + 1)) ** 0.99  # ~9.77
            assert 0.4 * ideal < ratio < 2.5 * ideal

    def test_uniform_chi_square(self):
        probs = [1.0 / self.N_ITEMS] * self.N_ITEMS
        for seed in (1, 2, 3):
            counts = self._counts(UniformGenerator(self.N_ITEMS), seed)
            # df = 7 bins - 1; the 99.9% quantile of chi2(7) is 24.32.
            assert chi_square(counts, probs, self.SAMPLES) < 24.32

    def test_hotspot_is_shifted_zipfian(self):
        """The hotspot stream IS the zipfian stream rotated by the shift."""
        for epoch in (0, 1, 3, 7):
            gen = ShiftingHotspotGenerator(
                self.N_ITEMS, 0.99, 0.25, 13, lambda e=epoch: e * 0.25
            )
            base = ZipfianGenerator(self.N_ITEMS, 0.99)
            rng_a, rng_b = random.Random(9), random.Random(9)
            shift = (epoch * 13) % self.N_ITEMS
            assert gen.current_shift() == shift
            for _ in range(2000):
                assert gen.sample(rng_a) == (base.sample(rng_b) + shift) % self.N_ITEMS

    def test_hotspot_chi_square_after_unshifting(self):
        """At any epoch the unshifted distribution matches the zipf pmf."""
        probs = zipf_pmf(self.N_ITEMS, 0.99)
        clock_value = [0.0]
        gen = ShiftingHotspotGenerator(
            self.N_ITEMS, 0.99, 0.25, 13, lambda: clock_value[0]
        )
        for epoch in (0, 5):
            clock_value[0] = epoch * 0.25
            shift = gen.current_shift()
            counts = self._counts(gen, seed=4)
            unshifted = Counter({(r - shift) % self.N_ITEMS: c for r, c in counts.items()})
            assert chi_square(unshifted, probs, self.SAMPLES) < 400.0

    def test_hotspot_moves_the_hot_key(self):
        """The observed hottest rank follows the deterministic rotation."""
        clock_value = [0.0]
        gen = ShiftingHotspotGenerator(
            self.N_ITEMS, 0.99, 0.25, 13, lambda: clock_value[0]
        )
        for epoch in (0, 2, 6):
            clock_value[0] = epoch * 0.25
            counts = self._counts(gen, seed=8)
            assert counts.most_common(1)[0][0] == (epoch * 13) % self.N_ITEMS

    def test_latest_biased_tracks_insert_pointer(self):
        gen = LatestBiasedGenerator(self.N_ITEMS, 0.99)
        for _ in range(37):
            gen.next_insert()
        assert gen.latest == 37
        counts = self._counts(gen, seed=6)
        assert counts.most_common(1)[0][0] == 37
        # Distance-from-latest is exactly the zipfian rank distribution.
        probs = zipf_pmf(self.N_ITEMS, 0.99)
        distances = Counter({(37 - r) % self.N_ITEMS: c for r, c in counts.items()})
        assert chi_square(distances, probs, self.SAMPLES) < 400.0


class TestUniform:
    def test_covers_range_roughly_evenly(self):
        gen = UniformGenerator(10)
        rng = random.Random(5)
        counts = Counter(gen.sample(rng) for _ in range(10000))
        assert set(counts) == set(range(10))
        assert max(counts.values()) < 2 * min(counts.values())

    def test_validation(self):
        with pytest.raises(ValueError):
            UniformGenerator(0)


def make_generator(locality=0.95, reads=4, writes=2, partitions_per_tx=2, seed=1):
    spec = ClusterSpec.from_machines(3, 2, 2)  # 3 partitions
    workload = WorkloadConfig(
        reads_per_tx=reads,
        writes_per_tx=writes,
        partitions_per_tx=partitions_per_tx,
        locality=locality,
        keys_per_partition=50,
    )
    return spec, WorkloadGenerator(spec, workload, dc_id=0, rng=random.Random(seed))


class TestWorkloadGenerator:
    def test_operation_counts(self):
        _, gen = make_generator(reads=5, writes=3)
        tx = gen.next_transaction()
        assert len(tx.reads) == 5
        assert 1 <= len(tx.writes) <= 3  # dict-deduplication may merge keys

    def test_keys_route_to_chosen_partitions(self):
        spec, gen = make_generator()
        for _ in range(100):
            tx = gen.next_transaction()
            for key in tx.reads:
                assert spec.key_to_partition(key) in tx.partitions
            for key, _ in tx.writes:
                assert spec.key_to_partition(key) in tx.partitions

    def test_local_transactions_use_local_partitions(self):
        spec, gen = make_generator(locality=1.0)
        local = set(spec.dc_partitions(0))
        for _ in range(200):
            tx = gen.next_transaction()
            assert tx.is_local
            assert set(tx.partitions) <= local

    def test_zero_locality_eventually_remote(self):
        spec, gen = make_generator(locality=0.0)
        local = set(spec.dc_partitions(0))
        saw_remote = False
        for _ in range(200):
            tx = gen.next_transaction()
            assert not tx.is_local
            if not set(tx.partitions) <= local:
                saw_remote = True
        assert saw_remote

    def test_locality_ratio_roughly_respected(self):
        _, gen = make_generator(locality=0.8)
        locals_ = sum(gen.next_transaction().is_local for _ in range(2000))
        assert 0.75 < locals_ / 2000 < 0.85

    def test_partitions_are_distinct(self):
        _, gen = make_generator(partitions_per_tx=2)
        for _ in range(100):
            tx = gen.next_transaction()
            assert len(set(tx.partitions)) == len(tx.partitions)

    def test_partitions_per_tx_capped_by_pool(self):
        spec, gen = make_generator(locality=1.0, partitions_per_tx=10)
        tx = gen.next_transaction()
        assert len(tx.partitions) == len(spec.dc_partitions(0))

    def test_write_values_carry_payload(self):
        _, gen = make_generator()
        tx = gen.next_transaction()
        for _, value in tx.writes:
            assert value.startswith("v" * 8)

    def test_deterministic_for_seed(self):
        _, gen_a = make_generator(seed=42)
        _, gen_b = make_generator(seed=42)
        for _ in range(20):
            assert gen_a.next_transaction() == gen_b.next_transaction()

    def test_different_seeds_differ(self):
        _, gen_a = make_generator(seed=1)
        _, gen_b = make_generator(seed=2)
        txs_a = [gen_a.next_transaction() for _ in range(10)]
        txs_b = [gen_b.next_transaction() for _ in range(10)]
        assert txs_a != txs_b


class TestKeyNaming:
    def test_key_name_layout(self):
        assert key_name(3, 7) == "p3:k000007"
        assert key_name(12, 1234567) == "p12:k1234567"

    def test_key_names_are_memoized_objects(self):
        """A transaction names the very strings the stores were preloaded with."""
        assert key_name(5, 9) is key_name(5, 9)
        spec, gen = make_generator()
        preloaded = {
            id(key): key
            for p in range(spec.n_partitions)
            for key in dataset_keys(spec, gen.workload, p)
        }
        for vectorized in (True, False):
            gen.vectorized = vectorized
            for _ in range(50):
                tx = gen.next_transaction()
                for key in [*tx.reads, *(key for key, _ in tx.writes)]:
                    assert preloaded.get(id(key)) is key

    def test_dataset_keys_cover_partition(self):
        spec = ClusterSpec.from_machines(3, 2, 2)
        workload = WorkloadConfig(keys_per_partition=5)
        keys = dataset_keys(spec, workload, 1)
        assert len(keys) == 5
        assert all(spec.key_to_partition(k) == 1 for k in keys)

    def test_generated_keys_are_preloaded_keys(self):
        """Every key a generator can draw exists in the preloaded dataset."""
        spec, gen = make_generator()
        workload = gen.workload
        preloaded = {
            key
            for p in range(spec.n_partitions)
            for key in dataset_keys(spec, workload, p)
        }
        for _ in range(300):
            tx = gen.next_transaction()
            for key in tx.reads:
                assert key in preloaded
            for key, _ in tx.writes:
                assert key in preloaded


class TestBatchedSampling:
    """The array-batched draw path is byte-identical to the scalar path.

    ``sample_batch`` powers the vectorized generator of the big-run tier
    (docs/scaling.md); these tests pin its two contracts: same seed ->
    byte-identical rank/key sequences, and the same distribution as the
    scalar path (chi-square against the ideal pmf, mirroring
    TestDistributionCorrectness).
    """

    N_ITEMS = 100
    SAMPLES = 40_000

    def _batched_counts(self, gen, seed: int, batch: int = 64) -> Counter:
        rng = random.Random(seed)
        counts: Counter = Counter()
        drawn = 0
        while drawn < self.SAMPLES:
            n = min(batch, self.SAMPLES - drawn)
            counts.update(gen.sample_batch(rng, n))
            drawn += n
        return counts

    @pytest.mark.parametrize(
        "make",
        [
            lambda: ZipfianGenerator(100, 0.99),
            lambda: LatestBiasedGenerator(100, 0.99),
            lambda: UniformGenerator(100),
            lambda: ShiftingHotspotGenerator(100, 0.99, 1.0, 13, lambda: 4.2),
        ],
        ids=["zipfian", "latest", "uniform", "hotspot"],
    )
    def test_batch_matches_scalar_stream(self, make):
        """Same seed, same draws: batched == n scalar calls, any batch size."""
        for batch in (1, 3, 64, 1000):
            scalar_gen, batch_gen = make(), make()
            rng_a, rng_b = random.Random(77), random.Random(77)
            scalar = [scalar_gen.sample(rng_a) for _ in range(batch)]
            batched = batch_gen.sample_batch(rng_b, batch)
            assert batched == scalar
            # Both rngs end in the same state: the streams stay aligned.
            assert rng_a.getstate() == rng_b.getstate()

    def test_batched_zipfian_chi_square(self):
        probs = zipf_pmf(self.N_ITEMS, 0.99)
        for seed in (1, 2, 3):
            counts = self._batched_counts(ZipfianGenerator(self.N_ITEMS, 0.99), seed)
            assert chi_square(counts, probs, self.SAMPLES) < 400.0

    def test_batched_uniform_chi_square(self):
        probs = [1.0 / self.N_ITEMS] * self.N_ITEMS
        for seed in (1, 2, 3):
            counts = self._batched_counts(UniformGenerator(self.N_ITEMS), seed)
            # df = 7 bins - 1; the 99.9% quantile of chi2(7) is 24.32.
            assert chi_square(counts, probs, self.SAMPLES) < 24.32


class TestVectorizedGenerator:
    """WorkloadGenerator(vectorized=True) emits the scalar key stream."""

    @pytest.mark.parametrize(
        "profile",
        [
            "default", "read_heavy", "write_heavy", "ycsb_a", "ycsb_b",
            "ycsb_c", "ycsb_d", "ycsb_f", "hotspot_shift", "uniform_scan",
            "bursty", "ramp", "bimodal_values",
        ],
    )
    def test_vectorized_stream_byte_identical(self, profile):
        """Every registered profile: 300 transactions, identical streams."""
        spec = ClusterSpec.from_machines(3, 2, 2)
        workload = WorkloadConfig(
            profile=profile,
            reads_per_tx=4,
            writes_per_tx=2,
            partitions_per_tx=2,
            keys_per_partition=200,
        )
        scalar = WorkloadGenerator(
            spec, workload, dc_id=0, rng=random.Random(42), vectorized=False
        )
        vector = WorkloadGenerator(
            spec, workload, dc_id=0, rng=random.Random(42), vectorized=True
        )
        for _ in range(300):
            assert scalar.next_transaction() == vector.next_transaction()

    def test_vectorized_seed_stability(self):
        """Two vectorized generators with one seed agree; seeds differ."""
        _, gen_a = make_generator(seed=9)
        _, gen_b = make_generator(seed=9)
        assert gen_a.vectorized and gen_b.vectorized
        for _ in range(50):
            assert gen_a.next_transaction() == gen_b.next_transaction()
        _, gen_c = make_generator(seed=10)
        assert [gen_a.next_transaction() for _ in range(10)] != [
            gen_c.next_transaction() for _ in range(10)
        ]
