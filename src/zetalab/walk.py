"""Multiscale prime sums S_k along the critical line.

The complex walk at scale k and shift h is

    W_k(h) = sum_{e^{k0} < log p <= e^k} ( p^{-(1/2+i(tau+h))} + p^{-2(1/2+i(tau+h))}/2 ).

The two summands are the first two terms of -log(1 - p^{-s}); the alpha >= 3
tail is `higher_order_tail`.

This module is the only one that knows how phases are held: `powers` builds
every n^{-s} of the package, `shifted_sums` takes the Dirichlet sums of nearby
heights from one set of them, and `theta_mod_2pi` reduces the Riemann-Siegel
theta.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .errors import CapacityError
from .primes import PrimeTable, _simple_sieve, primes_in_log_range

# pi to the last bit of the extended type, parsed from its decimal digits (the
# float64 pi is 1.2e-16 short); _TWO_PI_LD is the modulus of the extended reductions
_PI_LD = np.longdouble("3.141592653589793238462643383279502884")
_TWO_PI_LD = 2 * _PI_LD


# The tables are held in chunks of _CHUNK rows (n = cC + 1 .. (c + 1)C in chunk
# c), read-only arrays each a function of c alone, built on first use (with
# the chunks below it that it reads), so no bit depends on which sizes came
# first or on threads racing to build them.  Chunk 0 covers every main sum
# below t = 2 pi C^2 ~ 4.2e8.
_CHUNK = 8192

# the unit circle's table: e^{2 pi i r / _TURN} for r < _TURN
_TURN = 1024
# The tables' constants are built in fixed point, Python ints with _FIX
# fraction bits, from pi's first 50 digits, and rounded to double-doubles;
# one step of the circle in radians and Veltkamp's splitter 2^27 + 1 serve the
# float64 arithmetic of a call.
_FIX = 128
_PI_FIX = (314159265358979323846264338327950288419716939937510 << _FIX) // 10 ** 50
_STEPS_FIX = (_TURN << 2 * _FIX) // (2 * _PI_FIX)          # 2^_FIX _TURN / 2 pi
_STEP = 2.0 * math.pi / _TURN
_SPLIT = 134217729.0
# the int path's range: _TURN t log n / 2 pi below 2^53, so that its reduction
# is exact; |t| up to 4.3e12 at n = 398,942
_MAX_PHASE = 2.0 * math.pi * 2.0 ** 43


def _halves(x):
    """x = hi + lo with hi holding x's upper 26 bits, so that the product of
    two such halves is exact (Dekker 1971)."""
    c = _SPLIT * x
    hi = c - (c - x)
    return hi, x - hi


def _double_double(values, bits: int = _FIX) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-point ints x / 2^bits as (hi, lo) float64 arrays, hi the nearest
    float and lo the nearest to the rest."""
    hi = [x / (1 << bits) for x in values]
    lo = [(x - (num << bits) // den) / (1 << bits)
          for x, (num, den) in zip(values, (h.as_integer_ratio() for h in hi))]
    return np.array(hi), np.array(lo)


@functools.cache
def _circle() -> tuple[np.ndarray, np.ndarray]:
    """e^{2 pi i r / _TURN} for r < _TURN as a double-double (hi, lo) of complex
    arrays: the angle-addition recurrence in fixed point from the Taylor
    series of the first step."""
    step = 2 * _PI_FIX // _TURN
    c1 = s1 = 0
    term = 1 << _FIX
    for k in range(32):
        if k % 2 == 0:
            c1 += term if k % 4 == 0 else -term
        else:
            s1 += term if k % 4 == 1 else -term
        term = term * step // ((k + 1) << _FIX)
    rows = [(1 << _FIX, 0)]
    for _ in range(_TURN - 1):
        c, s = rows[-1]
        rows.append(((c * c1 - s * s1) >> _FIX, (s * c1 + c * s1) >> _FIX))
    (cos_hi, cos_lo), (sin_hi, sin_lo) = (_double_double(col) for col in zip(*rows))
    out = (cos_hi + 1j * sin_hi, cos_lo + 1j * sin_lo)
    for arr in out:
        arr.flags.writeable = False
    return out


def _log_fix(p: int, small: list[int], known: dict[int, int]) -> int:
    """2^_FIX log p for a prime p, as log(p - 1) + 2 atanh(1 / (2p - 1)): the
    logs of p - 1's prime factors (trial division by `small`, the primes up
    to sqrt(p), leaves at most one larger factor) from `known` or their
    chunks, then the series 2 sum_j x^{-j} / j over odd j, x = 2p - 1."""
    m, factors = p - 1, []
    for q in small:
        if q * q > m:
            break
        while m % q == 0:
            m //= q
            factors.append(q)
    if m > 1:
        factors.append(m)
    total = sum(known[q] if q in known else _chunk((q - 1) // _CHUNK).log_fix[q] for q in factors)
    x, j, power = 2 * p - 1, 1, 2 * p - 1
    while power <= 2 << _FIX:
        total += (2 << _FIX) // (j * power)
        j += 2
        power *= x * x
    return total


# composite levels: ceil(log2 Omega(n)) <= 5 for Omega(n) <= 18, every n below 2^19
_LEVELS = 5


class _Chunk(NamedTuple):
    logs: np.ndarray       # float64 log n, the cast of the extended-precision log
    primes: np.ndarray     # n - 1 for the primes n of the chunk, ascending
    amp: np.ndarray        # those primes as floats
    turns: np.ndarray      # rows hi, hi's two halves, lo: _TURN log p / 2 pi as a double-double
    levels: tuple          # per level l = 1.._LEVELS, rows n - 1, a - 1, b - 1 for n = a b
    counts: np.ndarray     # row j: primes, then composites per level, among the first j n
    log_fix: dict          # p -> 2^_FIX log p for the chunk's primes


@functools.cache
def _chunk(c: int) -> _Chunk:
    """Chunk c of the multiplicative table.  A composite n is split as n = a b,
    with a the product of n's floor(Omega(n) / 2) smallest prime factors, so
    its level ceil(log2 Omega(n)) is one above those of a and b.  The logs of
    its primes are built in fixed point from those of smaller primes, in this
    chunk or in the chunks below it."""
    lo = c * _CHUNK + 1
    n = np.arange(lo, lo + _CHUNK)
    logs = np.log(n.astype(np.longdouble)).astype(float)
    # Omega(n) by trial division with the primes up to sqrt(n), then a
    small = _simple_sieve(math.isqrt(lo + _CHUNK - 1)).tolist()
    omega, rest = np.zeros(_CHUNK, dtype=int), n.copy()
    for p in small:
        k = np.arange(-lo % p, _CHUNK, p)
        while k.size:
            omega[k] += 1
            rest[k] //= p
            k = k[rest[k] % p == 0]
    omega += rest > 1
    a, need, rest = np.ones(_CHUNK, dtype=int), omega // 2, n.copy()
    for p in small:
        k = np.arange(-lo % p, _CHUNK, p)
        k = k[need[k] > 0]
        while k.size:
            a[k] *= p
            need[k] -= 1
            rest[k] //= p
            k = k[(need[k] > 0) & (rest[k] % p == 0)]
    # 0 for a prime, the level for a composite, -1 for n = 1
    kind = np.searchsorted([1, 2, 4, 8, 16, 32], omega) - (omega == 0)
    primes = np.flatnonzero(kind == 0)
    log_fix: dict[int, int] = {}
    for p in n[primes].tolist():
        log_fix[p] = _log_fix(p, small, log_fix)
    hi, tail = _double_double([log_p * _STEPS_FIX for log_p in log_fix.values()], 2 * _FIX)
    levels = tuple(np.array([k + lo - 1, a[k] - 1, n[k] // a[k] - 1])
                   for k in (np.flatnonzero(kind == ell) for ell in range(1, _LEVELS + 1)))
    counts = np.zeros((_CHUNK + 1, _LEVELS + 1), dtype=np.int16)
    counts[1:] = np.cumsum(kind[:, None] == np.arange(_LEVELS + 1), axis=0)
    chunk = _Chunk(logs, primes + lo - 1, n[primes].astype(float),
                   np.array([hi, *_halves(hi), tail]), levels, counts, log_fix)
    for arr in (logs, chunk.primes, chunk.amp, chunk.turns, *levels, counts):
        arr.flags.writeable = False
    return chunk


# Taylor coefficients of (cos x - 1) / x^2 and (sin x - x) / x^3, in powers of x^2
_TAYLOR = np.array([[-1.0 / 720, 1.0 / 24, -0.5], [-1.0 / 5040, 1.0 / 120, -1.0 / 6]])


def _prime_powers(chunk: _Chunk, k: int, t, sigma) -> np.ndarray:
    """p^{-sigma - i t} for the chunk's first k primes (columns) at the heights
    t (rows), in float64 arithmetic.  -t log p / 2 pi is reduced mod 1 in
    double-double (t times the high word is exact as Dekker's two-product) to
    (r + y) / _TURN with |y| < 0.86: e^{2 pi i r / _TURN} comes from the table
    and e^{2 pi i y / _TURN} from its Taylor series, so each value is within
    about a unit in the last place while |t| log p / 2 pi < 2^43."""
    hi, hh, hl, lo = chunk.turns[:, :k]
    t = -t
    th, tl = _halves(t)
    prod = t * hi
    err = ((th * hh - prod) + th * hl + tl * hh) + tl * hl   # t hi = prod + err exactly
    q = np.rint(prod)
    x = _STEP * ((prod - q) + (err + t * lo))                # prod - q is exact
    sq = x * x
    coef = _TAYLOR.reshape(2, 3, *[1] * sq.ndim)
    series = coef[:, 0] * sq
    for j in (1, 2):
        series = (series + coef[:, j]) * sq
    rot = np.empty(x.shape, dtype=complex)
    rot.real = series[0]                                      # cos x - 1
    rot.imag = x + x * series[1]                              # sin x
    base_hi, base_lo = _circle()
    r = q.astype(np.intp) & (_TURN - 1)
    base = base_hi[r]
    return (base + (base_lo[r] + base * rot)) * np.power(chunk.amp[:k], -sigma)


def logs(n: int) -> np.ndarray:
    """float64 log k for k = 1..n, from the table."""
    return np.concatenate([_chunk(c).logs for c in range(max(1, -(-n // _CHUNK)))])[:n]


def powers(n, s, out: np.ndarray | None = None) -> np.ndarray:
    """n^{-s}: the package's one n^{-s} kernel.

    An int n stands for 1..n, and s may then be an array of exponents, one
    row of n values each, built in `out` if given.  Only the primes take a
    reduction, of t log p mod 2 pi in double-double; each composite n = a b is
    the product of two earlier entries, level by level.  Every operation is
    elementwise, so a row has the same bits whatever the other rows; |t| log n
    beyond _MAX_PHASE raises.  An array of integers takes its logs directly, in
    extended precision."""
    if isinstance(n, (int, np.integer)):
        s = np.asarray(s, dtype=complex)
        if out is None:
            out = np.empty(s.shape + (n,), dtype=complex)
        # a single exponent as plain floats and one flat row: numpy's fastest path
        if s.size == 1:
            rows, cols, z = out.reshape(n), (), s.item()
            t, sigma, peak = z.imag, z.real, abs(z.imag)
        else:
            rows, cols = out.reshape(-1, n), (slice(None),)
            t, sigma = s.imag.reshape(-1, 1), s.real.reshape(-1, 1)
            peak = np.max(np.abs(t))
        if peak * math.log(max(n, 1)) > _MAX_PHASE:
            raise CapacityError(f"|t| log n beyond {_MAX_PHASE:.3g} at n = {n}")
        rows[cols + (slice(None, 1),)] = 1.0
        reads = [(_chunk(c), _chunk(c).counts[min(n - c * _CHUNK, _CHUNK)].tolist())
                 for c in range(-(-n // _CHUNK))]
        for chunk, cut in reads:
            if cut[0]:
                rows[cols + (chunk.primes[:cut[0]],)] = _prime_powers(chunk, cut[0], t, sigma)
        for ell in range(1, _LEVELS + 1):
            for chunk, cut in reads:
                if cut[ell]:
                    idx, a, b = chunk.levels[ell - 1][:, :cut[ell]]
                    rows[cols + (idx,)] = rows[cols + (a,)] * rows[cols + (b,)]
        return out
    logs_ld = np.log(np.asarray(n).astype(np.longdouble))
    phase = np.mod(np.longdouble(s.imag) * logs_ld, _TWO_PI_LD).astype(float)
    return np.exp(-s.real * logs_ld.astype(float)) * np.exp(-1j * phase)


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
    rows, z = table[skip:], 2.0 * _chunk(c).logs[skip:]
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

    Every term comes from one reduction at tau: with a_n = n^{-1/2-i tau} and
    d = ts[j] - tau (exact in float64), sum_{n <= n0} a_n e^{-i d log n} is the
    Chebyshev series sum_k c_k T_k(d / 2), c_k = eps_k (-i)^k sum_n a_n
    J_k(2 log n), and the few terms in (n0, tops[j]] are a_n e^{-i d log n}
    taken directly.  Every operation is elementwise over the heights or fixed
    by tau and n0, so each value depends only on (tau, ts[j], tops[j])."""
    top = int(tops.max())
    terms = powers(top, 0.5 + 1j * tau)
    a = terms[:n0].view(float).reshape(n0, 2)
    # one pass per Bessel chunk for the real and imaginary parts; einsum, not
    # a BLAS product, so the bits do not depend on the BLAS thread count
    re_im = np.einsum("nr,nk->rk", a[:_CHUNK], _bessel_chunk(0)[:n0])
    for c in range(1, -(-n0 // _CHUNK)):
        re_im += np.einsum("nr,nk->rk", a[c * _CHUNK:(c + 1) * _CHUNK],
                           _bessel_chunk(c)[:n0 - c * _CHUNK])
    coeffs = (re_im[0] + 1j * re_im[1]) * _JA_PHASE
    # Clenshaw's recurrence for sum_k c_k T_k(x), x = d / 2
    d = ts - tau
    x = 0.5 * d
    b1 = b2 = np.zeros(len(ts), dtype=complex)
    for c in coeffs[:0:-1]:
        b1, b2 = c + 2.0 * x * b1 - b2, b1
    sums = coeffs[0] + x * b1 - b2
    for n in range(n0 + 1, top + 1):
        log_n = _chunk((n - 1) // _CHUNK).logs[(n - 1) % _CHUNK]
        sums = sums + np.where(tops >= n, terms[n - 1] * np.exp(-1j * d * log_n), 0)
    return sums


def theta_mod_2pi(t):
    """(main argument of the Riemann-Siegel theta mod 2pi in extended
    precision, Stirling correction), for a height or an array of them."""
    tl = np.asarray(t, dtype=np.longdouble)
    main = 0.5 * tl * np.log(tl / _TWO_PI_LD) - 0.5 * tl - _PI_LD / 8
    main = np.mod(main, _TWO_PI_LD).astype(float)
    inv = 1.0 / np.asarray(t, dtype=float)
    corr = inv * (1.0 / 48 + inv * inv * (7.0 / 5760 + inv * inv * (31.0 / 80640)))
    return main, corr


def partial_sum(table: PrimeTable, k_start: float, k: float, tau: float) -> complex:
    """W over the scale window (k_start, k] at height tau (shift h: pass
    tau + h): per prime, p^{-1/2} e^{-i tau log p} + p^{-1} e^{-2 i tau log p} / 2."""
    primes = primes_in_log_range(table, k_start, k)
    u = powers(primes, 1j * tau)
    return complex(np.sum(u / np.sqrt(primes) + 0.5 * u * u / primes))


def _sum_ld(x: np.ndarray) -> float:
    return float(np.sum(x, dtype=np.longdouble))


def _alpha_tail(primes: np.ndarray, w: np.ndarray) -> float:
    """sum over alpha >= 3 of Re(w^alpha)/alpha, truncated at |w|^alpha < 1e-18."""
    log_cut = -math.log(1e-18)
    total = 0.0
    alpha = 3
    while True:
        # only primes with p^{-alpha/2} >= 1e-18 contribute
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
