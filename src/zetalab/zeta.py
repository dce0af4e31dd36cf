"""Critical-line zeta evaluation and derived statistics.

Two independent evaluators back each other: Euler-Maclaurin summation (exact
up to a controlled remainder, cost O(t)) and the Riemann-Siegel expansion
(cost O(sqrt(t))) whose correction terms are generated from the entire
function F(z) = (e^{i pi (z^2/2 + 3/8)} - i sqrt(2) cos(pi z / 2)) / (2 cos(pi z))
via contour derivatives from a cached lattice in p, so the order adapts to the
target accuracy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, CapacityError
from .walk import powers, shifted_sums, theta_mod_2pi

TWO_PI = 2.0 * math.pi
RS_SWITCH = 50.0
MAX_T = 1e12

# B_{2k} for the Euler-Maclaurin tail
_BERNOULLI = [
    1.0 / 6, -1.0 / 30, 1.0 / 42, -1.0 / 30, 5.0 / 66, -691.0 / 2730,
    7.0 / 6, -3617.0 / 510, 43867.0 / 798, -174611.0 / 330,
    854513.0 / 138, -236364091.0 / 2730,
]


def zeta_euler_maclaurin(s: complex, cutoff: int | None = None) -> complex:
    """Euler-Maclaurin value of zeta(s) for s != 1."""
    s = complex(s)
    if s == 1:
        raise DomainError("pole at s = 1")
    n_cut = cutoff or max(32, int(0.5 * abs(s.imag)) + 16)
    terms = powers(n_cut, s)
    total = complex(np.sum(terms[:-1]))
    n_pow = complex(terms[-1])
    total += n_pow * n_cut / (s - 1.0)
    total += 0.5 * n_pow
    poch = s                       # rising product s (s+1) ... (s + 2k - 2)
    scale = n_pow / n_cut          # N^{-s - (2k - 1)}
    for k in range(1, len(_BERNOULLI) + 1):
        total += _BERNOULLI[k - 1] / math.factorial(2 * k) * poch * scale
        poch *= (s + 2 * k - 1) * (s + 2 * k)
        scale /= n_cut * n_cut
    return total


def _rs_f(z: np.ndarray) -> np.ndarray:
    num = np.exp(1j * math.pi * (0.5 * z * z + 0.375)) - 1j * math.sqrt(2.0) * np.cos(0.5 * math.pi * z)
    return num / (2.0 * np.cos(math.pi * z))


# Cauchy contour for F^(m): radius * e^{i theta} at half-step angles, which
# keep the nodes away from the real axis where cos(pi z) vanishes
_RS_RADIUS, _RS_NODES = 2.0, 512
_RS_CIRCLE = _RS_RADIUS * np.exp(1j * (TWO_PI * (np.arange(_RS_NODES) + 0.5) / _RS_NODES))
# for m = 0..170 (m! stays finite): the twiddle of the contour's half-step
# offset, m! and nodes * radius^m, which turn its FFT into F^(m)
_RS_M = np.arange(171)
_RS_TWIDDLE = np.exp(-1j * math.pi * _RS_M / _RS_NODES)
_RS_FACT = np.array([math.factorial(int(v)) for v in _RS_M], dtype=float)
_RS_NORM = _RS_NODES * _RS_RADIUS ** _RS_M


def _rs_derivatives(p: float, count: int) -> np.ndarray:
    """F^(m)(p) for m < count, by the Cauchy contour around p."""
    coeffs = np.fft.fft(_rs_f(p + _RS_CIRCLE))
    return coeffs[:count] * _RS_TWIDDLE[:count] * _RS_FACT[:count] / _RS_NORM[:count]


# the contour lattice: node k holds F^(m)(k / 256) for m < 171, built on first
# use from k alone, so its bits never depend on which heights came first; p
# lies in [-1, 1], so k runs over -256..256 (513 nodes, 1.4 MB in all)
_RS_LATTICE = 256


@functools.cache
def _rs_node(k: int) -> np.ndarray:
    return _rs_derivatives(k / _RS_LATTICE, len(_RS_M))


def _rs_d_table(levels: int) -> list[list[float]]:
    """Coefficients d[n][k] of the expansion at sigma = 1/2."""
    d: list[list[float]] = [[1.0]]
    for n in range(1, levels):
        width = 3 * n // 2 + 1
        row = [0.0] * width
        prev = d[n - 1]
        for k in range(width):
            m = 3 * n - 2 * k
            if m != 0:
                acc = -(m + 1) * (prev[k - 2] if 0 <= k - 2 < len(prev) else 0.0)
                acc += (prev[k] if k < len(prev) else 0.0) / (4.0 * m)
                row[k] = acc
            else:
                acc = 0.0
                for r in range(k):
                    acc -= ((-1) ** (k - r)) * math.factorial(2 * k - 2 * r) \
                        / math.factorial(k - r) * row[r]
                row[k] = acc
        d.append(row)
    return d


# the deepest correction: at 20 levels the series reads F^(m) for m < 58,
# plus the lattice shift's few orders above; deeper levels (which the envelope
# below picks just above t = 50) read orders near 100, whose contour values
# have lost their digits to rounding
_RS_MAX_LEVELS = 20
_RS_LEVELS = np.arange(2, _RS_MAX_LEVELS + 1)
_RS_ENVELOPE = np.array([2.03 * math.gamma(0.5 * level) for level in _RS_LEVELS.tolist()])


def _rs_depth(a: np.ndarray) -> np.ndarray:
    """Correction levels at each height, at most _RS_MAX_LEVELS: going up from
    level 2, the level of least term-size envelope 2.03 Gamma(l/2) (2a)^-l so
    far, at the first level whose envelope is below 1e-12 or above ten times
    that least."""
    bound = _RS_ENVELOPE * np.power(2.0 * a[:, None], -_RS_LEVELS)
    stop = (bound < 1e-12) | (bound > 10 * np.minimum.accumulate(bound, axis=1))
    stop[:, -1] = True
    bound[np.arange(len(_RS_LEVELS)) > stop.argmax(axis=1)[:, None]] = np.inf
    return bound.argmin(axis=1) + 2


@functools.cache
def _rs_table(levels: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The terms d[n][l] F^(3n-2l)(p) / (pi^{2n-l} (2i)^l) of a correction of
    `levels` levels, one row per level n, padded with zero terms to the
    longest: (order 3n - 2l, a coefficient c, a real divisor D per part) with
    c F / D the term.  The denominator is real for even l, and then c is
    d[n][l] and D the denominator; for odd l it is i b with b real, and then
    c = -i d[n][l] and D = b.  So each part of c F is divided by one real
    number, as CPython divides by a purely real or imaginary complex."""
    d = _rs_d_table(levels)
    shape = (levels, 3 * (levels - 1) // 2 + 1)
    order, coef, den = np.zeros(shape, dtype=int), np.zeros(shape, dtype=complex), np.ones(shape)
    for n in range(levels):
        for ell in range(3 * n // 2 + 1):
            z = math.pi ** (2 * n - ell) * (2j) ** ell
            order[n, ell] = 3 * n - 2 * ell
            coef[n, ell], den[n, ell] = (d[n][ell], z.real) if ell % 2 == 0 else (-1j * d[n][ell], z.imag)
    return order, coef, np.repeat(den, 2, axis=1)


def _loop_sum(x: np.ndarray, axis: int) -> np.ndarray:
    """The sum of x along `axis` in a Python loop's order, ((0 + x0) + x1) +
    ..., by np.add.accumulate: np.sum's pairwise order would move bits.  x is
    overwritten."""
    head = (slice(None),) * axis
    x[head + (0,)] += 0.0   # 0 + x0, which turns -0.0 into 0.0
    return np.add.accumulate(x, axis=axis)[head + (-1,)]


# Taylor weights the lattice shift may take beyond the first
_RS_SHIFT_CAP = 15
_RS_SHIFT_S = np.arange(1, _RS_SHIFT_CAP + 1)
# (count - 1 + s) / s / _RS_RADIUS for counts up to 3 * 19 + 1 and s = 1, 2, ...
_RS_SHIFT_GROWTH = (np.arange(3 * _RS_MAX_LEVELS)[:, None] - 1 + _RS_SHIFT_S) / _RS_SHIFT_S / _RS_RADIUS
# per count, the weights beyond the first that |delta| = 1/512 takes, which
# no smaller |delta| exceeds: 8 at 20 levels
_RS_SHIFT_WIDTH = (np.multiply.accumulate(_RS_SHIFT_GROWTH / 512.0, axis=1) >= 2.0 ** -53).sum(axis=1)


def _rs_shift(derivs: np.ndarray, delta: np.ndarray, count: int) -> np.ndarray:
    """F^(m)(p_j + delta_j) for m < count at each height j, from the rows
    derivs[j] = F^(m)(p_j) (count + _RS_SHIFT_CAP orders, contiguous): the
    Taylor shift sum_s F^(m+s)(p_j) delta_j^s / s!, which needs
    |delta_j| <= 1/512 (count |delta_j| < 1, so its s-th term is below 2^-s
    of the first), each height's weights stopping at 2^-53."""
    width = int(_RS_SHIFT_WIDTH[count])
    # the bound on term s, which falls with s; halving is exact, so this is
    # (count - 1 + s) / s * |delta| / _RS_RADIUS as one height's loop takes it
    bound = np.multiply.accumulate(_RS_SHIFT_GROWTH[count, :width] * np.abs(delta)[:, None], axis=1)
    weights = np.ones((len(delta), width + 1))   # 1, delta / 1, (delta / 1) (delta / 2), ...
    np.multiply.accumulate(delta[:, None] / _RS_SHIFT_S[:width], axis=1, out=weights[:, 1:])
    weights[:, 1:] *= bound >= 2.0 ** -53   # a height's weights stop at its own 2^-53
    # row s of a height's window is derivs[j, s:s + orders], without a copy;
    # a real weight times a complex derivative is exact in either part, as
    # in one height's weights @ rows
    step = derivs.strides[1]
    window = np.ndarray((len(delta), width + 1, count), derivs.dtype, derivs,
                        strides=(derivs.strides[0], step, step))
    return _loop_sum(weights[:, :, None] * window, axis=1)


def _rs_level(levels: int, a: np.ndarray, k: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """The correction series at heights of depth `levels`, from the lattice
    nodes k and offsets delta = p - k / _RS_LATTICE: each term and sum in the
    order of CPython's complex arithmetic at one height, part by part."""
    order, coef, den = _rs_table(levels)
    count = 3 * (levels - 1) + 1
    derivs = np.array([_rs_node(v)[:count + _RS_SHIFT_CAP] for v in k.tolist()])
    terms = coef * np.take(_rs_shift(derivs, delta, count), order, axis=1)
    terms.view(float)[...] /= den
    a_pow = np.empty((len(a), levels))   # 1, 1/a, (1/a)/a, ...
    a_pow[:, 0], a_pow[:, 1:] = 1.0, a[:, None]
    return _loop_sum(_loop_sum(terms, axis=2) * np.divide.accumulate(a_pow, axis=1), axis=1)


# heights per pass of the correction series: at 20 levels a pass's
# temporaries peak near 5 MiB
_RS_SLICE = 256


def _rs_remainder(a: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The correction series sum_n a^{-n} sum_l d[n][l] F^(3n-2l)(p) /
    (pi^{2n-l} (2i)^l) at each height, with a = sqrt(t / 2 pi) and
    p = 1 - 2 frac(a).  F's derivatives are shifted from the nearest lattice
    node: |delta| <= 1/512 meets _rs_shift's condition at every depth up to
    _RS_MAX_LEVELS.  The heights go in slices of _RS_SLICE, and within one by
    depth; a value's bits never depend on the other heights."""
    k = np.rint(p * _RS_LATTICE).astype(int)   # half to even, as Python's round
    delta = p - k / _RS_LATTICE
    rem = np.empty(len(a), dtype=complex)
    for i in range(0, len(a), _RS_SLICE):
        depth = _rs_depth(a[i:i + _RS_SLICE])
        for levels in sorted(set(depth.tolist())):
            rows = i + np.flatnonzero(depth == levels)
            rem[rows] = _rs_level(levels, a[rows], k[rows], delta[rows])
    return rem


def _cmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x y for complex arrays as CPython's complex product, part by part:
    numpy's own complex multiply may fuse a product and a sum."""
    out = np.empty(len(x), dtype=complex)
    out.real = x.real * y.real - x.imag * y.imag
    out.imag = x.real * y.imag + x.imag * y.real
    return out


def _rs_values(ts: np.ndarray, n_main, s1: np.ndarray) -> np.ndarray:
    """Riemann-Siegel values at heights ts from their main sums s1 and lengths
    n_main (one int, or one per height): theta, the remainder and the
    combination r + u^2 e conj(r) as whole-array passes, each complex product
    and quotient taken part by part in CPython's order, so a value has the
    bits of the same formula at its height alone."""
    a = np.sqrt(ts / TWO_PI)
    arg_main, arg_corr = theta_mod_2pi(ts)
    u = np.exp(-1j * arg_main)
    s3 = (n_main % 2 * 2.0 - 1.0) * u   # +-u, for odd and even N
    s3.view(float).reshape(-1, 2)[...] /= np.sqrt(a)[:, None]
    r = s1 + _cmul(s3, _rs_remainder(a, 1.0 - 2.0 * (a - n_main)))
    return r + _cmul(_cmul(_cmul(u, u), np.exp(-2j * arg_corr)), np.conj(r))


def _rs_block(n_main: int, ts: np.ndarray, buffer: np.ndarray | None = None) -> np.ndarray:
    """The main sums at heights ts that share the main-sum length n_main, with
    their terms built in `buffer` if given."""
    terms = None if buffer is None else buffer[:len(ts) * n_main].reshape(len(ts), n_main)
    return np.sum(powers(n_main, 0.5 + 1j * ts, terms), axis=-1)


def zeta_riemann_siegel(t: float) -> complex:
    """zeta(1/2 + i t) by the Riemann-Siegel expansion (t above ~ 20), for
    2 pi <= t <= MAX_T."""
    t = float(t)
    if not t >= TWO_PI:   # NaN fails this too
        raise DomainError(f"t={t} too small for the main sum (need t >= 2 pi)")
    if t > MAX_T:
        raise CapacityError(f"t={t} beyond supported range {MAX_T}")
    n_main = math.floor(math.sqrt(t / TWO_PI))
    ts = np.array([t])
    return complex(_rs_values(ts, n_main, _rs_block(n_main, ts))[0])


# main-sum terms per block of heights: 2^16 complex values, 1 MB, so a block's
# temporaries stay near 4 MB
_BLOCK_TERMS = 1 << 16


def _rs_heights(ts: np.ndarray) -> np.ndarray:
    """zeta_riemann_siegel at every height ts[j] (at least one): the main sums
    grouped by length in blocks of at most _BLOCK_TERMS terms, built in one
    buffer, then the rest over all heights in one pass; bit for bit as one
    call per height."""
    s1 = np.empty(len(ts), dtype=complex)
    n_main = np.floor(np.sqrt(ts / TWO_PI)).astype(int)
    order = np.argsort(n_main, kind="stable")
    buffer = np.empty(_BLOCK_TERMS, dtype=complex)
    for group in np.split(order, np.flatnonzero(np.diff(n_main[order])) + 1):
        n = int(n_main[group[0]])
        size = max(1, _BLOCK_TERMS // n)
        for i in range(0, len(group), size):
            block = group[i:i + size]
            s1[block] = _rs_block(n, ts[block], buffer if n <= _BLOCK_TERMS else None)
    del buffer
    return _rs_values(ts, n_main, s1)


def zeta_critical(t: float) -> complex:
    """zeta(1/2 + i t): Euler-Maclaurin below t=50, Riemann-Siegel above."""
    if not t > 0:   # NaN fails this too
        raise DomainError(f"need t > 0, got {t}")
    if t > MAX_T:
        raise CapacityError(f"t={t} beyond supported range {MAX_T}")
    if t < RS_SWITCH:
        return zeta_euler_maclaurin(0.5 + 1j * t)
    return zeta_riemann_siegel(t)


def relative_gap(a: complex, b: complex) -> float:
    """|a - b| / max(1, |a|, |b|); the guard keeps the gap meaningful at zeros."""
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _critical_values(ts: np.ndarray, rs_batch) -> np.ndarray:
    """zeta_critical at every height ts[j]: one call per height below
    RS_SWITCH or outside the supported range (where it raises), and one call
    of `rs_batch` on the rest, whose Riemann-Siegel values it returns."""
    values = np.empty(len(ts), dtype=complex)
    batched = (ts >= RS_SWITCH) & (ts <= MAX_T)
    for j in np.flatnonzero(~batched):
        values[j] = zeta_critical(ts[j])
    if batched.any():
        values[batched] = rs_batch(ts[batched])
    return values


def _rs_grid(tau: float, ts: np.ndarray) -> np.ndarray:
    """zeta_riemann_siegel at heights ts within 2 of tau, in one pass.

    The main sums come from `shifted_sums` about tau, over n <= N(tau - 2),
    and each correction from the lattice, as in zeta_riemann_siegel.  So each
    value depends on (tau, ts[j]) alone, never on the rest of the grid."""
    n_main = np.floor(np.sqrt(ts / TWO_PI)).astype(int)
    s1 = shifted_sums(tau, ts, math.floor(math.sqrt((tau - 2.0) / TWO_PI)), n_main)
    return _rs_values(ts, n_main, s1)


def zeta_on_grid(t: float, grid: np.ndarray) -> np.ndarray:
    """zeta(1/2 + i (t + h)) for the shifts h in the grid, |h| <= 2: as
    `zeta_critical` per point below RS_SWITCH, and in one Riemann-Siegel pass
    about t above it.  A point's value depends only on (t, h)."""
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise DomainError("empty grid")
    if not np.all(np.abs(grid) <= 2.0):   # NaN fails this too
        raise DomainError("shifts must be finite and lie in [-2, 2]")
    ts = t + grid
    if not np.all(ts > 0):   # NaN fails this too
        raise DomainError(f"need t + h > 0, got t = {t} and shifts down to {grid.min()}")
    if np.any(ts > MAX_T):
        raise CapacityError(f"t + h beyond supported range {MAX_T} at t = {t}")
    return _critical_values(ts, lambda heights: _rs_grid(float(t), heights))


def max_on_grid(t: float, grid: np.ndarray) -> tuple[float, float]:
    """(argmax shift, max |zeta|) over shifts h in the grid."""
    grid = np.asarray(grid, dtype=float)
    mags = np.abs(zeta_on_grid(t, grid))
    i = int(np.argmax(mags))
    return float(grid[i]), float(mags[i])


@dataclass
class MomentEstimate:
    mean: float
    ci_lo: float      # bootstrap 95% interval; NaN from a single sample
    ci_hi: float
    stderr: float     # sample standard deviation / sqrt(n); NaN from a single sample


def moment_estimate(big_t: float, power: int, n_samples: int,
                    rng: np.random.Generator) -> MomentEstimate:
    """Monte Carlo mean of |zeta(1/2 + i tau)|^power, tau ~ U[T, 2T]."""
    if power not in (2, 4):
        raise DomainError("power must be 2 or 4")
    if n_samples < 1:
        raise DomainError("need at least one sample")
    if not math.isfinite(big_t):
        raise DomainError(f"need a finite T, got {big_t}")
    taus = rng.uniform(big_t, 2 * big_t, size=n_samples)
    values = _critical_values(taus, _rs_heights)
    vals = np.array([abs(v) ** power for v in values.tolist()])
    mean = float(np.mean(vals))
    if n_samples < 2:
        return MomentEstimate(mean, math.nan, math.nan, math.nan)
    # one resample row at a time: the same stream as one (400, n) draw
    boots = [np.mean(vals[rng.integers(0, n_samples, size=n_samples)]) for _ in range(400)]
    lo, hi = np.percentile(boots, [2.5, 97.5])
    return MomentEstimate(mean, float(lo), float(hi), float(np.std(vals, ddof=1)) / math.sqrt(n_samples))

