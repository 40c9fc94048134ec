"""The benchmark's own seeded input generator.

Everything a workload feeds the program -- file sizes, file contents,
origins, Zipf popularity ranks, node capacities -- comes from here and
is a pure function of ``--seed``.  The program's own workload helpers
(``repro.workloads``) are deliberately not used, so a change to them
cannot move the benchmark.  File contents are regenerated from the seed
when results are verified, never kept from the insert.
"""

from __future__ import annotations

import bisect
import hashlib
import math
import random
from typing import List


def derive(seed: int, *parts: object) -> int:
    """A 64-bit sub-seed: stable across Python versions and processes."""
    text = "/".join([str(seed), *(str(part) for part in parts)])
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def stream(seed: int, *parts: object) -> random.Random:
    """An independent rng for one purpose (one client, one cycle...)."""
    return random.Random(derive(seed, *parts))


def content(seed: int, index: int, size: int) -> bytes:
    """The bytes of file *index*: regenerated, never stored, for checks."""
    return stream(seed, "content", index).randbytes(size)


class LognormalSizes:
    """Lognormal body sizes, as filesystem studies fit them."""

    def __init__(self, median: int, sigma: float, cap: int) -> None:
        self.mu = math.log(median)
        self.sigma = sigma
        self.cap = cap

    def sample(self, rng: random.Random) -> int:
        return min(int(rng.lognormvariate(self.mu, self.sigma)) + 1, self.cap)


class TraceSizes:
    """Web-proxy-trace-like sizes: a lognormal body of small objects and
    a Pareto tail of large ones, capped at the largest object."""

    def __init__(self, median: int, sigma: float, tail_fraction: float,
                 tail_minimum: int, tail_alpha: float, cap: int) -> None:
        self.body = LognormalSizes(median, sigma, cap)
        self.tail_fraction = tail_fraction
        self.tail_minimum = tail_minimum
        self.tail_alpha = tail_alpha
        self.cap = cap

    def sample(self, rng: random.Random) -> int:
        if rng.random() < self.tail_fraction:
            size = int(self.tail_minimum * rng.paretovariate(self.tail_alpha))
            return min(size, self.cap)
        return self.body.sample(rng)


def bounded_normal(mean: int, stddev_fraction: float = 0.4,
                   low: float = 0.25, high: float = 4.0):
    """Node capacities: normal, redrawn until within [low, high] x mean."""

    def draw(rng: random.Random) -> int:
        while True:
            value = rng.gauss(mean, mean * stddev_fraction)
            if mean * low <= value <= mean * high:
                return int(value)

    return draw


class Zipf:
    """Zipf ranks over a population that grows while it is sampled.

    ``rank(rng, n)`` returns a 0-based rank in ``[0, n)`` with
    P(rank i) proportional to 1/(i+1)^s; rank 0 is the first file
    acknowledged, so the oldest files are the most popular.
    """

    def __init__(self, exponent: float = 1.0) -> None:
        self.exponent = exponent
        self._cdf: List[float] = []

    def rank(self, rng: random.Random, n: int) -> int:
        cdf = self._cdf
        while len(cdf) < n:
            weight = 1.0 / (len(cdf) + 1) ** self.exponent
            cdf.append((cdf[-1] if cdf else 0.0) + weight)
        return min(bisect.bisect_left(cdf, rng.random() * cdf[n - 1], 0, n), n - 1)
