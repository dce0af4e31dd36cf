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


@functools.cache
def _rs_terms(levels: int) -> list:
    """Per level n, the terms (d[n][l], 3n - 2l, pi^{2n-l} (2i)^l) of the
    correction d[n][l] F^(3n-2l)(p) / (pi^{2n-l} (2i)^l)."""
    d = _rs_d_table(levels)
    return [[(d[n][ell], 3 * n - 2 * ell, math.pi ** (2 * n - ell) * (2j) ** ell)
             for ell in range(3 * n // 2 + 1)]
            for n in range(levels)]


def _rs_shift(derivs: np.ndarray, delta: float, count: int) -> list[complex]:
    """F^(m)(p + delta) for m < count from F^(m)(p) in contiguous `derivs`: the
    Taylor shift sum_s F^(m+s)(p) delta^s / s!, which needs count |delta| <= 1
    (its s-th term is then below 2^-s of the first) and stops at 2^-53."""
    weights, bound = [1.0], 1.0
    while True:
        s = len(weights)
        bound *= (count - 1 + s) / s * abs(delta) / _RS_RADIUS
        if bound < 2.0 ** -53:
            break
        weights.append(weights[-1] * (delta / s))
    # row s of this view is derivs[s:s + count], without a copy
    rows = np.ndarray((len(weights), count), derivs.dtype, derivs, strides=(derivs.itemsize,) * 2)
    return (np.array(weights) @ rows).tolist()


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


def _rs_depth(a: float) -> int:
    """Correction levels, at most _RS_MAX_LEVELS: minimize the term-size envelope (to 1e-12)."""
    best_l, best = 2, math.inf
    for level in range(2, _RS_MAX_LEVELS + 1):
        bound = 2.03 * math.gamma(0.5 * level) * (2.0 * a) ** (-level)
        if bound < best:
            best_l, best = level, bound
        if bound < 1e-12 or bound > 10 * best:
            break
    return best_l


def _rs_remainder(a: float, p: float) -> complex:
    """The correction series sum_n a^{-n} sum_l d[n][l] F^(3n-2l)(p) /
    (pi^{2n-l} (2i)^l) at a = sqrt(t / 2 pi) and p = 1 - 2 frac(a), with F's
    derivatives shifted from the nearest lattice node: |delta| <= 1/512 meets
    _rs_shift's condition at every depth up to _RS_MAX_LEVELS."""
    levels = _rs_depth(a)
    k = round(p * _RS_LATTICE)
    fp = _rs_shift(_rs_node(k), p - k / _RS_LATTICE, 3 * (levels - 1) + 1)
    rssum = 0.0 + 0.0j
    a_pow = 1.0
    for terms in _rs_terms(levels):
        acc = 0.0 + 0.0j
        for coef, m, den in terms:
            acc += coef * fp[m] / den
        rssum += acc * a_pow
        a_pow /= a
    return rssum


def _rs_values(ts, n_main, s1) -> np.ndarray:
    """Riemann-Siegel values at heights ts (an array, or one height as a
    scalar) from their main sums s1 and lengths n_main (one int, or one per
    height): theta for all heights at once, then the remainder and the
    combination height by height in Python's complex arithmetic.  A scalar
    and an array take the same operations, so a value's bits never depend on
    the other heights."""
    a = np.sqrt(ts / TWO_PI)
    arg_main, arg_corr = theta_mod_2pi(ts)
    u = np.exp(-1j * arg_main)
    values = []
    for aj, nj, uj, ej, sj in zip(*(np.atleast_1d(x).tolist() for x in (
            a, np.broadcast_to(n_main, np.shape(ts)), u, np.exp(-2j * arg_corr), s1))):
        s3 = (1.0 if nj % 2 else -1.0) * uj / math.sqrt(aj)
        r_val = sj + s3 * _rs_remainder(aj, 1.0 - 2.0 * (aj - nj))
        values.append(r_val + uj * uj * ej * r_val.conjugate())
    return np.array(values)


def _rs_block(n_main: int, ts, buffer: np.ndarray | None = None) -> np.ndarray:
    """zeta_riemann_siegel at heights ts (or one height) that share the
    main-sum length n_main, with their main-sum terms built in `buffer` if
    given; a value has the same bits alone as in any block."""
    terms = None if buffer is None else buffer[:len(ts) * n_main].reshape(len(ts), n_main)
    return _rs_values(ts, n_main, np.sum(powers(n_main, 0.5 + 1j * ts, terms), axis=-1))


def zeta_riemann_siegel(t: float) -> complex:
    """zeta(1/2 + i t) by the Riemann-Siegel expansion (t above ~ 20), for
    2 pi <= t <= MAX_T."""
    t = float(t)
    if not t >= TWO_PI:   # NaN fails this too
        raise DomainError(f"t={t} too small for the main sum (need t >= 2 pi)")
    if t > MAX_T:
        raise CapacityError(f"t={t} beyond supported range {MAX_T}")
    n_main = math.floor(math.sqrt(t / TWO_PI))
    return complex(_rs_block(n_main, np.float64(t))[0])


# main-sum terms per block of heights: 2^16 complex values, 1 MB, so a block's
# temporaries stay near 4 MB
_BLOCK_TERMS = 1 << 16


def _rs_heights(ts: np.ndarray) -> np.ndarray:
    """zeta_riemann_siegel at every height ts[j] (at least one), grouped by
    main-sum length in blocks of at most _BLOCK_TERMS terms, built in one
    buffer; bit for bit as one call per height."""
    values = np.empty(len(ts), dtype=complex)
    n_main = np.floor(np.sqrt(ts / TWO_PI)).astype(int)
    order = np.argsort(n_main, kind="stable")
    buffer = np.empty(_BLOCK_TERMS, dtype=complex)
    for group in np.split(order, np.flatnonzero(np.diff(n_main[order])) + 1):
        n = int(n_main[group[0]])
        size = max(1, _BLOCK_TERMS // n)
        for i in range(0, len(group), size):
            block = group[i:i + size]
            values[block] = _rs_block(n, ts[block], buffer if n <= _BLOCK_TERMS else None)
    return values


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

