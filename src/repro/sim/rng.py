"""Deterministic random-number helpers.

Every stochastic component takes an explicit seeded generator so whole
experiments replay bit-identically.  The wrapper adds the distribution the
workload models need beyond the standard library: bounded Zipf sampling.
"""

from __future__ import annotations

import random
from typing import List, Sequence, TypeVar

T = TypeVar("T")


class DeterministicRng:
    """A seeded ``random.Random`` plus workload-oriented distributions."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._random = random.Random(seed)

    def fork(self, salt: int) -> "DeterministicRng":
        """Derive an independent stream; same (seed, salt) → same stream."""
        return DeterministicRng(hash((self.seed, salt)) & 0x7FFFFFFF)

    @property
    def stream(self) -> random.Random:
        """The underlying ``random.Random``, for a hot loop to bind its
        methods once.  Binding them on the instance instead would break
        ``copy.deepcopy``: a copied bound builtin method still draws from
        the original's stream.
        """
        return self._random

    # -- passthroughs ---------------------------------------------------
    def random(self) -> float:
        return self._random.random()

    def uniform(self, lo: float, hi: float) -> float:
        return self._random.uniform(lo, hi)

    def randint(self, lo: int, hi: int) -> int:
        return self._random.randint(lo, hi)

    def choice(self, seq: Sequence[T]) -> T:
        return self._random.choice(seq)

    def shuffle(self, seq: List[T]) -> None:
        self._random.shuffle(seq)

    def expovariate(self, rate: float) -> float:
        return self._random.expovariate(rate)

    def gauss(self, mu: float, sigma: float) -> float:
        return self._random.gauss(mu, sigma)

    # -- workload distributions -----------------------------------------
    def zipf(self, n: int, alpha: float = 1.0) -> int:
        """Sample a rank in ``[0, n)`` with Zipf(alpha) popularity.

        Uses inverse-CDF over the truncated harmonic sum; O(log n) per draw
        after an O(n) table built lazily per (n, alpha).
        """
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        table = self._zipf_table(n, alpha)
        u = self._random.random() * table[-1]
        lo, hi = 0, n - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if table[mid] < u:
                lo = mid + 1
            else:
                hi = mid
        return lo

    _zipf_cache: dict = {}

    def _zipf_table(self, n: int, alpha: float) -> List[float]:
        key = (n, alpha)
        table = DeterministicRng._zipf_cache.get(key)
        if table is None:
            table = []
            total = 0.0
            for rank in range(1, n + 1):
                total += 1.0 / (rank ** alpha)
                table.append(total)
            DeterministicRng._zipf_cache[key] = table
        return table
