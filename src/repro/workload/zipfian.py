"""YCSB's zipfian generator (Gray's algorithm) and its derived distributions.

The paper draws keys "within a partition according to a zipfian distribution,
with parameter 0.99, which is the default in YCSB" (Section V-A).  This is a
faithful port of YCSB's ``ZipfianGenerator``: item ranks 0..n-1 are drawn
with probability proportional to ``1 / (rank+1)^theta``.

On top of it sit the profile-driven variants (see
:mod:`repro.workload.profiles`): :class:`LatestBiasedGenerator`, YCSB-D's
"latest" distribution over a fixed keyspace, and
:class:`ShiftingHotspotGenerator`, whose hot set rotates deterministically
with simulated time.

Every generator offers two sampling entry points over the *same* random
stream: scalar :meth:`sample` and array-batched :meth:`sample_batch`.  The
batched path hoists attribute lookups and method dispatch out of the inner
loop (the per-operation cost the big-run tier cannot afford; see
docs/scaling.md) but consumes exactly one underlying draw per rank in the
same order, so for a given seed the two paths emit byte-identical rank
sequences — property-tested in ``tests/test_workload.py``.
"""

from __future__ import annotations

import math
import random
from typing import Callable, List


class ZipfianGenerator:
    """Draws zipf-distributed ranks in ``[0, n_items)``."""

    def __init__(self, n_items: int, theta: float = 0.99) -> None:
        if n_items < 1:
            raise ValueError("n_items must be >= 1")
        if not 0.0 <= theta < 1.0:
            raise ValueError("theta must be in [0, 1)")
        self.n_items = n_items
        self.theta = theta
        self._alpha = 1.0 / (1.0 - theta)
        self._zetan = self._zeta(n_items, theta)
        self._zeta2 = self._zeta(2, theta)
        self._eta = (1.0 - (2.0 / n_items) ** (1.0 - theta)) / (
            1.0 - self._zeta2 / self._zetan
        )

    @staticmethod
    def _zeta(n: int, theta: float) -> float:
        return math.fsum(1.0 / (i ** theta) for i in range(1, n + 1))

    def sample(self, rng: random.Random) -> int:
        """One rank draw; rank 0 is the hottest item."""
        u = rng.random()
        uz = u * self._zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5 ** self.theta:
            return 1
        return int(self.n_items * (self._eta * u - self._eta + 1.0) ** self._alpha)

    def sample_batch(self, rng: random.Random, n: int) -> List[int]:
        """``n`` rank draws, byte-identical to ``n`` :meth:`sample` calls.

        One uniform draw per rank in the same order; constants are hoisted
        into locals so the transform loop carries no attribute lookups.
        """
        random_ = rng.random
        zetan = self._zetan
        second = 1.0 + 0.5 ** self.theta
        eta = self._eta
        alpha = self._alpha
        n_items = self.n_items
        ranks: List[int] = []
        append = ranks.append
        for u in [random_() for _ in range(n)]:
            uz = u * zetan
            if uz < 1.0:
                append(0)
            elif uz < second:
                append(1)
            else:
                append(int(n_items * (eta * u - eta + 1.0) ** alpha))
        return ranks


class LatestBiasedGenerator:
    """YCSB-D's "latest" distribution over a fixed keyspace.

    Reads are zipf-skewed towards the most recently *inserted* item: a rank
    draw is ``(latest - zipf_offset) mod n``, so the newest key is the
    hottest and interest decays zipfian with age.  The keyspace is fixed
    here (every key is preloaded), so an "insert" rotates the latest pointer
    forward one rank — :meth:`next_insert` is what a write calls.
    """

    __slots__ = ("n_items", "_zipf", "_latest")

    def __init__(self, n_items: int, theta: float = 0.99) -> None:
        self.n_items = n_items
        self._zipf = ZipfianGenerator(n_items, theta)
        self._latest = 0

    @property
    def latest(self) -> int:
        """The rank currently considered newest."""
        return self._latest

    def next_insert(self) -> int:
        """Advance the latest pointer (one 'insert') and return its rank."""
        self._latest = (self._latest + 1) % self.n_items
        return self._latest

    def sample(self, rng: random.Random) -> int:
        """One rank draw, biased towards the most recent inserts."""
        return (self._latest - self._zipf.sample(rng)) % self.n_items

    def sample_batch(self, rng: random.Random, n: int) -> List[int]:
        """``n`` draws against the current latest pointer (no inserts between)."""
        latest = self._latest
        n_items = self.n_items
        return [(latest - z) % n_items for z in self._zipf.sample_batch(rng, n)]


class ShiftingHotspotGenerator:
    """A zipfian distribution whose hot set rotates with simulated time.

    Every ``interval`` simulated seconds the whole rank space rotates by
    ``step`` ranks, so yesterday's hottest key cools off and a new region of
    the keyspace heats up — the "dynamic hotspot" scenario.  The rotation is
    a pure function of the simulated clock, so runs stay deterministic.
    """

    __slots__ = ("n_items", "interval", "step", "_zipf", "_clock")

    def __init__(
        self,
        n_items: int,
        theta: float,
        interval: float,
        step: int,
        clock: Callable[[], float],
    ) -> None:
        if interval <= 0.0:
            raise ValueError("interval must be positive")
        if step < 1:
            raise ValueError("step must be >= 1")
        self.n_items = n_items
        self.interval = interval
        self.step = step
        self._zipf = ZipfianGenerator(n_items, theta)
        self._clock = clock

    def current_shift(self) -> int:
        """The rank offset of the hot set at the current simulated time."""
        return (int(self._clock() / self.interval) * self.step) % self.n_items

    def sample(self, rng: random.Random) -> int:
        """One rank draw from the currently-hot region."""
        return (self._zipf.sample(rng) + self.current_shift()) % self.n_items

    def sample_batch(self, rng: random.Random, n: int) -> List[int]:
        """``n`` draws at the current epoch (the clock is read once).

        Batches are generated synchronously at one simulated instant, so a
        single shift covers the whole batch — identical to per-draw shifts.
        """
        shift = self.current_shift()
        n_items = self.n_items
        return [(z + shift) % n_items for z in self._zipf.sample_batch(rng, n)]


class UniformGenerator:
    """Uniform ranks in ``[0, n_items)`` (used by ablations)."""

    def __init__(self, n_items: int) -> None:
        if n_items < 1:
            raise ValueError("n_items must be >= 1")
        self.n_items = n_items

    def sample(self, rng: random.Random) -> int:
        """One uniform rank draw."""
        return rng.randrange(self.n_items)

    def sample_batch(self, rng: random.Random, n: int) -> List[int]:
        """``n`` uniform draws, byte-identical to ``n`` :meth:`sample` calls."""
        randrange = rng.randrange
        n_items = self.n_items
        return [randrange(n_items) for _ in range(n)]
