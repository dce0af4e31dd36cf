"""Multiscale prime sums S_k along the critical line.

The complex walk at scale k and shift h is

    W_k(h) = sum_{e^{k0} < log p <= e^k} ( p^{-(1/2+i(tau+h))} + p^{-2(1/2+i(tau+h))}/2 ).

The two summands are the first two terms of -log(1 - p^{-s}); the alpha >= 3
tail is `higher_order_tail`.

This module is the only one that knows how phases are held: `log_phase`
reduces `t log n` mod 2 pi, `powers` builds every n^{-s} of the package on it,
and `theta_mod_2pi` reduces the Riemann-Siegel theta.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from .primes import PrimeTable, primes_in_log_range

_TWO_PI_LD = np.longdouble(2 * math.pi)   # the modulus of every phase reduction


def _reduce(logs: np.ndarray, t: float) -> np.ndarray:
    """t log n mod 2 pi from extended-precision logs: the package's one
    reduction of `t log n`.  Taking the log in extended precision keeps phases
    of products coherent: t*log(m) and sum_p t*log(p) agree to ~1e-12 rad even
    at t ~ 1e6, which the multiplicative identities rely on."""
    return np.mod(np.longdouble(t) * logs, _TWO_PI_LD).astype(float)


# (extended-precision log n, its float64 cast) for n = 1..len, read-only
_log_table = (np.empty(0, dtype=np.longdouble), np.empty(0))
_log_table_lock = threading.Lock()


def _logs_upto(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The log table, first grown by doubling when it is shorter than n.  The
    grower builds both arrays before publishing them in one assignment, so a
    reader never sees a half-built table, and growth holds the lock, so two
    growers never replace a longer table with a shorter one."""
    global _log_table
    table = _log_table
    if len(table[0]) < n:
        with _log_table_lock:
            table = _log_table
            if len(table[0]) < n:
                size = max(n, 2 * len(table[0]), 1024)
                logs = np.log(np.arange(1, size + 1).astype(np.longdouble))
                table = (logs, logs.astype(float))
                for a in table:
                    a.flags.writeable = False
                _log_table = table
    return table


def log_phase(n, t: float) -> tuple[np.ndarray, np.ndarray]:
    """(log n, t log n mod 2 pi), both from one extended-precision log of n.

    An int n stands for 1..n and reads the log table; an array of integers is
    logged directly.  Both paths give the same values bit for bit."""
    if isinstance(n, (int, np.integer)):
        logs, logs_f = _logs_upto(n)
        return logs_f[:n], _reduce(logs[:n], t)
    logs = np.log(np.asarray(n).astype(np.longdouble))
    return logs.astype(float), _reduce(logs, t)


def powers(n, s: complex) -> np.ndarray:
    """n^{-s} for `log_phase`'s n: the package's one n^{-s} kernel."""
    logs, phase = log_phase(n, s.imag)
    return np.exp(-s.real * logs) * np.exp(-1j * phase)


def theta_mod_2pi(t: float) -> tuple[float, float]:
    """(main argument of the Riemann-Siegel theta mod 2pi in extended
    precision, Stirling correction)."""
    tl = np.longdouble(t)
    main = 0.5 * tl * np.log(tl / _TWO_PI_LD) - 0.5 * tl - np.longdouble(math.pi) / 8
    main = float(np.mod(main, _TWO_PI_LD))
    corr = 1.0 / (48 * t) + 7.0 / (5760 * t ** 3) + 31.0 / (80640 * t ** 5)
    return main, corr


def partial_sum(table: PrimeTable, k_start: float, k: float, tau: float) -> complex:
    """W over the scale window (k_start, k] at height tau (shift h: pass
    tau + h): per prime, p^{-1/2} e^{-i tau log p} + p^{-1} e^{-2 i tau log p} / 2."""
    primes = primes_in_log_range(table, k_start, k)
    u = powers(primes, 1j * tau)
    return complex(np.sum(u / np.sqrt(primes) + 0.5 * u * u / primes))


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


def higher_order_tail(table: PrimeTable, j: float, k: float, s: complex) -> float:
    """R = sum over the window, alpha >= 3, of Re(p^{-alpha s}) / alpha."""
    primes = primes_in_log_range(table, j, k)
    if len(primes) == 0:
        return 0.0
    return _alpha_tail(primes, powers(primes, s))


def euler_product_check(table: PrimeTable, j: float, k: float, s: complex) -> float:
    """Residual | exp(-dS - R) - |prod (1 - p^{-s})| | over the window.

    The identity is algebraic in the per-prime values p^{-s}, so all three
    pieces are formed from one shared array of them.
    """
    primes = primes_in_log_range(table, j, k)
    if len(primes) == 0:
        return 0.0
    w = powers(primes, s)
    d_s = _sum_ld((w + 0.5 * w * w).real)
    r = _alpha_tail(primes, w)
    log_prod = _sum_ld(np.log(np.abs(1.0 - w)))
    return abs(math.exp(-d_s - r) - math.exp(log_prod))
