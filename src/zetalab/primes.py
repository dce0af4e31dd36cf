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

MAX_SIEVE_LIMIT = 2 ** 34
SEGMENT_SIZE = 1 << 20


@dataclass(frozen=True)
class PrimeTable:
    """Sieved primes up to `limit` with prefix sums of 1/p.

    Immutable after construction; safe to share across threads.
    """

    limit: int
    primes: np.ndarray          # int64, strictly increasing
    cum_recip: np.ndarray       # float64, cum_recip[i] = sum_{j<=i} 1/primes[j]

    def __post_init__(self):
        self.primes.setflags(write=False)
        self.cum_recip.setflags(write=False)

    def __len__(self) -> int:
        return len(self.primes)

    def count_leq(self, x: float) -> int:
        """Number of primes <= x."""
        return int(np.searchsorted(self.primes, math.floor(x), side="right"))

    def slice_leq(self, lo: float, hi: float) -> np.ndarray:
        """Primes p with lo < p <= hi, as a read-only view."""
        i = int(np.searchsorted(self.primes, math.floor(lo), side="right"))
        j = self.count_leq(hi)
        return self.primes[i:j]


def _simple_sieve(limit: int) -> np.ndarray:
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.flatnonzero(mask).astype(np.int64)


def _sieve_segment(base: list[int], lo: int, hi: int) -> np.ndarray:
    """Primes in [lo, hi], given every prime up to sqrt(hi) in `base`."""
    mask = np.ones(hi - lo + 1, dtype=bool)
    for p in base:
        start = max(((lo + p - 1) // p) * p, p * p)
        if start <= hi:
            mask[start - lo :: p] = False
    return (np.flatnonzero(mask) + lo).astype(np.int64)


def sieve_primes(limit: int) -> PrimeTable:
    """Segmented sieve of all primes <= limit, with compensated 1/p prefix sums.
    The segments run as fixed items on the shared pool, in segment order."""
    if limit < 2 or limit > MAX_SIEVE_LIMIT:
        raise CapacityError(f"sieve limit {limit} outside [2, {MAX_SIEVE_LIMIT}]")
    base_limit = max(math.isqrt(limit), 2)
    base = _simple_sieve(base_limit)
    base_list = base.tolist()
    segments = map_blocks(
        lambda lo: _sieve_segment(base_list, lo, min(lo + SEGMENT_SIZE - 1, limit)),
        range(base_limit + 1, limit + 1, SEGMENT_SIZE))
    primes = np.concatenate([base[base <= limit]] + segments)
    # 1/p in extended precision, in fixed blocks on the pool, then one serial
    # cumsum: per-entry rounding stays at the ulp level (budget: 1e-12 * index)
    recip = np.empty(len(primes), dtype=np.longdouble)
    map_blocks(lambda lo: np.divide(1.0, primes[lo:lo + SEGMENT_SIZE], dtype=np.longdouble,
                                    out=recip[lo:lo + SEGMENT_SIZE]),
               range(0, len(primes), SEGMENT_SIZE))
    cum = np.cumsum(recip, out=recip).astype(np.float64)
    return PrimeTable(limit=int(limit), primes=primes, cum_recip=cum)


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
    """Sum of 1/p over a < p <= b, read off the reciprocal prefix sums."""
    if b > table.limit:
        raise CapacityError(f"upper bound {b} beyond sieve limit {table.limit}")
    if a < 2 or a > b:
        if a == b:
            return 0.0
        raise DomainError(f"need 2 <= a <= b, got a={a}, b={b}")
    i = table.count_leq(a)
    j = table.count_leq(b)
    if j == i:
        return 0.0
    hi = table.cum_recip[j - 1]
    lo = table.cum_recip[i - 1] if i > 0 else 0.0
    return float(hi - lo)


def loglog(x: float) -> float:
    return math.log(math.log(x))


@functools.lru_cache(maxsize=1)
def cached_sieve(limit: int) -> PrimeTable:
    """`sieve_primes(limit)`, memoized for the last limit asked for.

    Consecutive suites that need the same table share one sieve; with a single
    slot, a new limit releases the previous table instead of keeping them all.
    """
    return sieve_primes(limit)
