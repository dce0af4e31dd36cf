"""Prime sieving, prime reciprocal sums, and the multiscale time/scale ladder.

Scale conventions used throughout the package: a "scale" k refers to primes p
with log p <= e^k, i.e. p <= exp(e^k).  The ladder tracks times T_ell and
their log-log counterparts n_ell = loglog T_ell.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, DomainError

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


def sieve_primes(limit: int) -> PrimeTable:
    """Segmented sieve of all primes <= limit, with compensated 1/p prefix sums."""
    if limit < 2 or limit > MAX_SIEVE_LIMIT:
        raise CapacityError(f"sieve limit {limit} outside [2, {MAX_SIEVE_LIMIT}]")
    base_limit = max(math.isqrt(limit), 2)
    base = _simple_sieve(base_limit)
    chunks = [base[base <= limit]]
    lo = base_limit + 1
    while lo <= limit:
        hi = min(lo + SEGMENT_SIZE - 1, limit)
        mask = np.ones(hi - lo + 1, dtype=bool)
        for p in base:
            p = int(p)
            start = ((lo + p - 1) // p) * p
            if start < p * p:
                start = p * p
            if start <= hi:
                mask[start - lo :: p] = False
        chunks.append((np.flatnonzero(mask) + lo).astype(np.int64))
        lo = hi + 1
    primes = np.concatenate(chunks)
    # extended-precision cumsum keeps per-entry rounding at the ulp level,
    # far inside the 1e-12 * index budget
    cum = np.cumsum(1.0 / primes.astype(np.longdouble)).astype(np.float64)
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


@dataclass(frozen=True)
class LadderParams:
    """Constants of the scale ladder; defaults match the canonical choice."""

    base_cutoff: float = 1000.0   # n_{-1}
    exponent: float = 1e6         # multiplies the iterated log in n_ell


def _iterated_log(x: float, times: int) -> float:
    """log applied `times` times; NaN when it leaves the domain."""
    v = x
    for _ in range(times):
        if v <= 0:
            return math.nan
        v = math.log(v)
    return v


@dataclass(frozen=True)
class ScaleLadder:
    T: float
    n: float
    params: LadderParams
    n_levels: tuple[float, ...] = field(default=())   # n_{-1}, n_0, n_1, ...
    T_levels: tuple[float, ...] = field(default=())

    def level(self, ell: int) -> float:
        """n_ell with the convention that ell = -1 is the first entry."""
        return self.n_levels[ell + 1]

    @property
    def top_index(self) -> int:
        """Largest ell with n_ell defined."""
        return len(self.n_levels) - 2


def scale_ladder_from_loglog(n: float, params: LadderParams | None = None) -> ScaleLadder:
    """Ladder n_{-1}, n_0 = n/2, n_ell = n - exponent*log_ell(n) from n = loglog T;
    the time itself may overflow floats."""
    params = params or LadderParams()
    en = math.exp(n) if n < 700 else math.inf
    T = math.exp(en) if en < 700 else math.inf
    levels = [params.base_cutoff, n / 2.0]
    ell = 1
    while True:
        it = _iterated_log(n, ell)
        if math.isnan(it) or it <= 0:
            break
        n_ell = n - params.exponent * it
        if n_ell <= levels[-1] or n_ell >= n:
            break
        levels.append(n_ell)
        ell += 1
    T_levels = []
    for v in levels:
        ev = math.exp(v) if v < 700 else math.inf
        T_levels.append(math.exp(ev) if ev < 700 else math.inf)
    return ScaleLadder(T=float(T), n=n, params=params,
                       n_levels=tuple(levels), T_levels=tuple(T_levels))


@functools.lru_cache(maxsize=1)
def cached_sieve(limit: int) -> PrimeTable:
    """`sieve_primes(limit)`, memoized for the last limit asked for.

    Consecutive suites that need the same table share one sieve; with a single
    slot, a new limit releases the previous table instead of keeping them all.
    """
    return sieve_primes(limit)
