"""Multiscale prime sums S_k along the critical line.

The complex walk at scale k and shift h is

    W_k(h) = sum_{e^{k0} < log p <= e^k} ( p^{-(1/2+i(tau+h))} + p^{-2(1/2+i(tau+h))}/2 ),

whose real part drives all barrier logic.  The two summands are the first two
terms of -log(1 - p^{-s}); the alpha >= 3 tail is `higher_order_tail`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .primes import PrimeTable, primes_in_log_range

RENORM_EVERY = 1 << 10   # keeps unit-modulus drift of the rotation below 1e-12
PRIME_BLOCK = 1 << 16    # fixed reduction blocks make grid sums bit-stable
TWO_PI_LD = np.longdouble(2 * math.pi)   # the modulus of every phase reduction


@dataclass(frozen=True)
class WalkConfig:
    k_start: float
    scales: tuple[float, ...]
    tau: float
    grid: tuple[float, ...]

    def __post_init__(self):
        if any(b <= a for a, b in zip(self.scales, self.scales[1:])):
            raise DomainError("scales must be strictly increasing")
        if any(abs(h) > 2.0 for h in self.grid):
            raise DomainError("shifts must lie in [-2, 2]")
        if len(self.grid) > 1:
            steps = np.diff(self.grid)
            if not np.all(steps > 0):
                raise DomainError("grid must be strictly increasing")


@dataclass
class MultiscaleWalk:
    config: WalkConfig
    values: np.ndarray   # complex128, shape (n_scales, n_shifts)


def log_phase(n, t: float) -> tuple[np.ndarray, np.ndarray]:
    """(log n, t log n mod 2 pi), both from one extended-precision log of n.

    This is the package's one reduction of `t log n`.  Taking the log in
    extended precision keeps phases of products coherent: t*log(m) and
    sum_p t*log(p) agree to ~1e-12 rad even at t ~ 1e6, which the
    multiplicative identities rely on.
    """
    logs = np.log(np.asarray(n).astype(np.longdouble))
    return logs.astype(float), np.mod(np.longdouble(t) * logs, TWO_PI_LD).astype(float)


def unit_phases(values: np.ndarray, scale: float) -> np.ndarray:
    """exp(-i scale * log(values)) with the phase from `log_phase`."""
    return np.exp(-1j * log_phase(values, scale)[1])


def _pair_terms(primes: np.ndarray, scale: float) -> np.ndarray:
    """p^{-1/2} e^{-i scale log p} + p^{-1} e^{-2 i scale log p} / 2 per prime."""
    u = unit_phases(primes, scale)
    return u / np.sqrt(primes) + 0.5 * u * u / primes


def partial_sum(table: PrimeTable, k_start: float, k: float, tau: float, h: float) -> complex:
    """W over the scale window (k_start, k] at shift h."""
    primes = primes_in_log_range(table, k_start, k)
    if len(primes) == 0:
        return 0.0 + 0.0j
    blocks = [
        complex(np.sum(_pair_terms(primes[i : i + PRIME_BLOCK], tau + h)))
        for i in range(0, len(primes), PRIME_BLOCK)
    ]
    return complex(sum(blocks))


def evaluate_on_grid(table: PrimeTable, config: WalkConfig) -> MultiscaleWalk:
    """All W_k(h) on the shift grid with one rotation multiply per (prime, shift).

    Per prime, p^{-i tau} is formed once; moving along the grid multiplies by
    p^{-i delta} per step, renormalized every RENORM_EVERY steps.
    """
    scales = config.scales
    grid = np.asarray(config.grid, dtype=float)
    n_scales, n_shifts = len(scales), len(grid)
    values = np.zeros((n_scales, n_shifts), dtype=complex)
    edges = (config.k_start,) + scales
    uniform = n_shifts > 1 and np.allclose(np.diff(grid), grid[1] - grid[0], rtol=0, atol=1e-15)
    for si in range(n_scales):
        primes = primes_in_log_range(table, edges[si], edges[si + 1])
        if len(primes) == 0:
            continue
        for b in range(0, len(primes), PRIME_BLOCK):
            pb = primes[b : b + PRIME_BLOCK].astype(float)
            logs = np.log(pb)
            amp1 = 1.0 / np.sqrt(pb)
            amp2 = 0.5 / pb
            cur = unit_phases(pb, config.tau + grid[0])
            if uniform:
                rot = np.exp(-1j * (grid[1] - grid[0]) * logs)
            for g in range(n_shifts):
                values[si, g] += np.sum(amp1 * cur + amp2 * cur * cur)
                if g + 1 < n_shifts:
                    if uniform:
                        cur = cur * rot
                        if (g + 1) % RENORM_EVERY == 0:
                            cur /= np.abs(cur)
                    else:
                        cur = unit_phases(pb, config.tau + grid[g + 1])
    np.cumsum(values, axis=0, out=values)
    return MultiscaleWalk(config=config, values=values)


def increments(walk: MultiscaleWalk) -> np.ndarray:
    """Y_j(h) over consecutive scales; rows telescope back to the total change."""
    if walk.values.shape[0] < 2:
        raise DomainError("need at least two scales to form increments")
    return np.diff(walk.values, axis=0)


def _sum_ld(x: np.ndarray) -> float:
    return float(np.sum(x, dtype=np.longdouble))


def _alpha_tail(primes: np.ndarray, w: np.ndarray, threshold: float = 1e-18) -> float:
    """sum over alpha >= 3 of Re(w^alpha)/alpha, truncated at |w|^alpha < threshold."""
    log_cut = -math.log(threshold)
    total = 0.0
    alpha = 3
    while True:
        # only primes with p^{-alpha/2} >= threshold contribute
        m = int(np.searchsorted(primes, math.exp(2.0 * log_cut / alpha), side="right"))
        if m == 0:
            break
        total += _sum_ld((w[:m] ** alpha).real) / alpha
        alpha += 1
    return total


def _prime_powers(primes: np.ndarray, s: complex) -> np.ndarray:
    logs = np.log(primes.astype(float))
    return np.exp(-s.real * logs) * unit_phases(primes, s.imag)


def higher_order_tail(table: PrimeTable, j: float, k: float, s: complex) -> float:
    """R = sum over the window, alpha >= 3, of Re(p^{-alpha s}) / alpha."""
    primes = primes_in_log_range(table, j, k)
    if len(primes) == 0:
        return 0.0
    return _alpha_tail(primes, _prime_powers(primes, s))


def euler_product_check(table: PrimeTable, j: float, k: float, s: complex) -> float:
    """Residual | exp(-dS - R) - |prod (1 - p^{-s})| | over the window.

    The identity is algebraic in the per-prime values p^{-s}, so all three
    pieces are formed from one shared array of them.
    """
    primes = primes_in_log_range(table, j, k)
    if len(primes) == 0:
        return 0.0
    w = _prime_powers(primes, s)
    d_s = _sum_ld((w + 0.5 * w * w).real)
    r = _alpha_tail(primes, w)
    log_prod = _sum_ld(np.log(np.abs(1.0 - w)))
    return abs(math.exp(-d_s - r) - math.exp(log_prod))
