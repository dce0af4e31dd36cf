"""Prime sieving and prime reciprocal sums.

Scale conventions used throughout the package: a "scale" k refers to primes p
with log p <= e^k, i.e. p <= exp(e^k).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DomainError
from .parallel import map_blocks

# the largest power of two under a 4 GB budget: the sieve and `mertens_sum` peak
# near 16.5 B per prime, about 3.4 GB for the 203,280,221 primes below 2^32
MAX_SIEVE_LIMIT = 2 ** 32
SEGMENT_SIZE = 1 << 20


@dataclass(frozen=True)
class PrimeTable:
    """Sieved primes up to `limit`.

    Immutable after construction; safe to share across threads.
    """

    limit: int
    primes: np.ndarray          # int64, strictly increasing

    def __post_init__(self):
        self.primes.setflags(write=False)

    def slice_leq(self, lo: float, hi: float) -> np.ndarray:
        """Primes p with lo < p <= hi, as a read-only view."""
        i, j = np.searchsorted(self.primes, [math.floor(lo), math.floor(hi)], side="right")
        return self.primes[i:j]


def _simple_sieve(limit: int) -> np.ndarray:
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.flatnonzero(mask).astype(np.int64)


def _sieve_segment(odd_base: list[int], lo: int, hi: int) -> np.ndarray:
    """Primes in [lo, hi], for lo > 2, given every odd prime up to sqrt(hi)
    in `odd_base`.  The mask holds the odd numbers only: entry i is 2 i + lo_odd."""
    lo_odd = lo | 1
    mask = np.ones((hi - lo_odd) // 2 + 1, dtype=bool)
    for p in odd_base:
        start = max(((lo + p - 1) // p) * p, p * p)
        if start % 2 == 0:   # p is odd, so the next multiple is odd
            start += p
        if start <= hi:
            mask[(start - lo_odd) // 2 :: p] = False
    return 2 * np.flatnonzero(mask) + lo_odd


def sieve_primes(limit: int) -> PrimeTable:
    """Segmented sieve of all primes <= limit.
    The segments run as fixed items on the shared pool, in segment order."""
    if limit < 2 or limit > MAX_SIEVE_LIMIT:
        raise CapacityError(f"sieve limit {limit} outside [2, {MAX_SIEVE_LIMIT}]")
    base_limit = max(math.isqrt(limit), 2)
    base = _simple_sieve(base_limit)
    odd_base = base[1:].tolist()
    segments = map_blocks(
        lambda lo: _sieve_segment(odd_base, lo, min(lo + SEGMENT_SIZE - 1, limit)),
        range(base_limit + 1, limit + 1, SEGMENT_SIZE))
    primes = np.concatenate([base[base <= limit]] + segments)
    return PrimeTable(limit=int(limit), primes=primes)


def log_scale_bounds(j: float, k: float) -> tuple[float, float]:
    """Prime bounds (exp(e^j), exp(e^k)] for a log-log scale window (j, k]."""
    def _bound(v: float) -> float:
        ev = math.exp(v) if v < 700 else math.inf
        return math.exp(ev) if ev < 700 else math.inf
    return _bound(j), _bound(k)


def primes_in_log_range(table: PrimeTable, j: float, k: float) -> np.ndarray:
    """Primes p with e^j < log p <= e^k."""
    lo, hi = log_scale_bounds(j, k)
    if hi > table.limit:
        raise CapacityError(
            f"scale k={k} needs primes up to {hi:.6g} but sieve stops at {table.limit}"
        )
    if k <= j:
        return table.primes[:0]
    return table.slice_leq(lo, hi)


def mertens_sum(table: PrimeTable, a: float, b: float) -> float:
    """Sum of 1/p over a < p <= b.

    Each 1/p is rounded once; `math.fsum` sums every segment of 2^20 primes
    exactly and rounds it once, and sums those partials the same way.  All
    terms are positive, so the result is within 3 * 2^-53 of the exact sum,
    relative.  The segments run serially: `fsum` holds the GIL.
    """
    if b > table.limit:
        raise CapacityError(f"upper bound {b} beyond sieve limit {table.limit}")
    if a < 2 or a > b:
        if a == b:
            return 0.0
        raise DomainError(f"need 2 <= a <= b, got a={a}, b={b}")
    primes = table.slice_leq(a, b)
    return math.fsum(math.fsum(memoryview(1.0 / primes[lo:lo + SEGMENT_SIZE]))
                     for lo in range(0, len(primes), SEGMENT_SIZE))


def loglog(x: float) -> float:
    return math.log(math.log(x))


@functools.lru_cache(maxsize=1)
def cached_sieve(limit: int) -> PrimeTable:
    """`sieve_primes(limit)`, memoized for the last limit asked for.

    Consecutive suites that need the same table share one sieve; with a single
    slot, a new limit releases the previous table instead of keeping them all.
    """
    return sieve_primes(limit)
