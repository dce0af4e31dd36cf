"""Multiscale prime sums S_k along the critical line.

The complex walk at scale k and shift h is

    W_k(h) = sum_{e^{k0} < log p <= e^k} ( p^{-(1/2+i(tau+h))} + p^{-2(1/2+i(tau+h))}/2 ).

The two summands are the first two terms of -log(1 - p^{-s}); the alpha >= 3
tail is `higher_order_tail`.

This module is the only one that knows how phases are held: `log_phase`
reduces `t log n` mod 2 pi, `powers` builds every n^{-s} of the package on it,
`shifted_sums` takes the Dirichlet sums of nearby heights from one reduction,
and `theta_mod_2pi` reduces the Riemann-Siegel theta.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .primes import PrimeTable, primes_in_log_range

# pi to the last bit of the extended type, parsed from its decimal digits (the
# float64 pi is 1.2e-16 short); _TWO_PI_LD is the modulus of every reduction
_PI_LD = np.longdouble("3.141592653589793238462643383279502884")
_TWO_PI_LD = 2 * _PI_LD


def _reduce(logs: np.ndarray, t: float) -> np.ndarray:
    """t log n mod 2 pi from extended-precision logs: the package's one
    reduction of `t log n`.  Taking the log in extended precision keeps phases
    of products coherent: t*log(m) and sum_p t*log(p) agree to ~1e-12 rad even
    at t ~ 1e6, which the multiplicative identities rely on."""
    return np.mod(np.longdouble(t) * logs, _TWO_PI_LD).astype(float)


# The log and Bessel tables are held in chunks of _CHUNK rows (n = cC + 1 ..
# (c + 1)C in chunk c), read-only arrays each built on first use from c alone,
# so no bit depends on which sizes came first or on threads racing to build
# them.  Chunk 0 covers every main sum below t = 2 pi C^2 ~ 4.2e8.
_CHUNK = 8192


@functools.cache
def _log_chunk(c: int) -> tuple[np.ndarray, np.ndarray]:
    """(extended-precision log n, its float64 cast) for n in chunk c."""
    logs = np.log(np.arange(c * _CHUNK + 1, (c + 1) * _CHUNK + 1).astype(np.longdouble))
    logs_f = logs.astype(float)
    logs.flags.writeable = logs_f.flags.writeable = False
    return logs, logs_f


def log_phase(n, t: float) -> tuple[np.ndarray, np.ndarray]:
    """(log n, t log n mod 2 pi), both from one extended-precision log of n.

    An int n stands for 1..n and reads the log table; an array of integers is
    logged directly.  Both paths give the same values bit for bit."""
    if isinstance(n, (int, np.integer)):
        if n <= _CHUNK:
            logs, logs_f = _log_chunk(0)
            return logs_f[:n], _reduce(logs[:n], t)
        # above one chunk, reduce each chunk: only the float64 results are joined
        chunks = [_log_chunk(c) for c in range(-(-n // _CHUNK))]
        return (np.concatenate([logs_f for _, logs_f in chunks])[:n],
                np.concatenate([_reduce(logs, t) for logs, _ in chunks])[:n])
    logs = np.log(np.asarray(n).astype(np.longdouble))
    return logs.astype(float), _reduce(logs, t)


def powers(n, s: complex) -> np.ndarray:
    """n^{-s} for `log_phase`'s n: the package's one n^{-s} kernel."""
    logs, phase = log_phase(n, s.imag)
    return np.exp(-s.real * logs) * np.exp(-1j * phase)


# Jacobi-Anger: e^{-i d log n} = sum_k eps_k (-i)^k J_k(2 log n) T_k(d / 2), with
# eps_0 = 1 and eps_k = 2, for |d| <= 2.  64 terms reach J_64(2 log 4e5) ~ 1e-18,
# so they cover every main sum below 1e12.
_JA_TERMS = 64
_JA_PHASE = np.array([(1 if k == 0 else 2) * (-1j) ** k for k in range(_JA_TERMS)])
_MILLER_START = 128          # fixed, so a row never depends on which rows were built


@functools.cache
def _bessel_chunk(c: int) -> np.ndarray:
    """J_k(2 log n) for n in chunk c (rows) and k < 64 (columns), read-only;
    row n = 1 holds J_k(0) = [k == 0].  Built in place from the chunk's
    float64 logs by Miller's backward recurrence J_{k-1} = (2k/z) J_k - J_{k+1}
    from a fixed start, normalized by J_0 + 2 J_2 + 2 J_4 + ... = 1.  The seed
    2^-900 leaves room for the growth of the recurrence at the smallest z,
    2 log 2."""
    table = np.empty((_CHUNK, _JA_TERMS))
    skip = 1 if c == 0 else 0
    table[:skip] = np.arange(_JA_TERMS) == 0
    rows, z = table[skip:], 2.0 * _log_chunk(c)[1][skip:]
    nxt, cur = np.zeros_like(z), np.full_like(z, 2.0 ** -900)
    norm = np.zeros_like(z)
    for k in range(_MILLER_START, 0, -1):
        nxt, cur = cur, (2.0 * k / z) * cur - nxt      # cur is now J_{k-1}, unscaled
        if k - 1 < _JA_TERMS:
            rows[:, k - 1] = cur
        if k % 2 == 1 and k > 1:
            norm += 2.0 * cur
    norm += cur
    rows /= norm[:, None]
    table.flags.writeable = False
    return table


def shifted_sums(tau: float, ts: np.ndarray, n0: int, tops: np.ndarray) -> np.ndarray:
    """sum_{n <= tops[j]} n^{-1/2 - i ts[j]} for heights ts within 2 of tau,
    with every tops[j] >= n0.

    The terms n <= n0 come from one reduction at tau: with a_n = n^{-1/2-i tau}
    and d = ts[j] - tau (exact in float64), sum_n a_n e^{-i d log n} is the
    Chebyshev series sum_k c_k T_k(d / 2), c_k = eps_k (-i)^k sum_n a_n
    J_k(2 log n).  The few terms in (n0, tops[j]] are taken directly.  Every
    operation is elementwise over the heights or fixed by tau and n0, so each
    value depends only on (tau, ts[j], tops[j])."""
    a = powers(n0, 0.5 + 1j * tau).view(float).reshape(n0, 2)
    # one pass per Bessel chunk for the real and imaginary parts; einsum, not
    # a BLAS product, so the bits do not depend on the BLAS thread count
    re_im = np.einsum("nr,nk->rk", a[:_CHUNK], _bessel_chunk(0)[:n0])
    for c in range(1, -(-n0 // _CHUNK)):
        re_im += np.einsum("nr,nk->rk", a[c * _CHUNK:(c + 1) * _CHUNK],
                           _bessel_chunk(c)[:n0 - c * _CHUNK])
    coeffs = (re_im[0] + 1j * re_im[1]) * _JA_PHASE
    # Clenshaw's recurrence for sum_k c_k T_k(x), x = d / 2
    x = 0.5 * (ts - tau)
    b1 = b2 = np.zeros(len(ts), dtype=complex)
    for c in coeffs[:0:-1]:
        b1, b2 = c + 2.0 * x * b1 - b2, b1
    sums = coeffs[0] + x * b1 - b2
    for n in range(n0 + 1, int(tops.max()) + 1):
        c, i = divmod(n - 1, _CHUNK)
        term = n ** -0.5 * np.exp(-1j * _reduce(_log_chunk(c)[0][i], ts))
        sums = sums + np.where(tops >= n, term, 0)
    return sums


def theta_mod_2pi(t):
    """(main argument of the Riemann-Siegel theta mod 2pi in extended
    precision, Stirling correction), for a height or an array of them."""
    tl = np.asarray(t, dtype=np.longdouble)
    main = 0.5 * tl * np.log(tl / _TWO_PI_LD) - 0.5 * tl - _PI_LD / 8
    main = np.mod(main, _TWO_PI_LD).astype(float)
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
