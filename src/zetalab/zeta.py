"""Critical-line zeta evaluation and derived statistics.

Two independent evaluators back each other: Euler-Maclaurin summation (exact
up to a controlled remainder, cost O(t)) and the Riemann-Siegel expansion
(cost O(sqrt(t))) whose correction terms are generated from the entire
function F(z) = (e^{i pi (z^2/2 + 3/8)} - i sqrt(2) cos(pi z / 2)) / (2 cos(pi z))
via contour derivatives, so the order adapts to the target accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, CapacityError
from .walk import TWO_PI_LD, log_phase

TWO_PI = 2.0 * math.pi

# B_{2k} for the Euler-Maclaurin tail
_BERNOULLI = [
    1.0 / 6, -1.0 / 30, 1.0 / 42, -1.0 / 30, 5.0 / 66, -691.0 / 2730,
    7.0 / 6, -3617.0 / 510, 43867.0 / 798, -174611.0 / 330,
    854513.0 / 138, -236364091.0 / 2730,
]


def _powers_negs(ns: np.ndarray, s: complex) -> np.ndarray:
    """n^{-s}, with log n and the phase t*log(n) from one `log_phase`."""
    logs, phase = log_phase(ns, s.imag)
    return np.exp(-s.real * logs) * np.exp(-1j * phase)


def zeta_euler_maclaurin(s: complex, cutoff: int | None = None, tail_terms: int = 12) -> complex:
    """Euler-Maclaurin value of zeta(s) for s != 1."""
    s = complex(s)
    if s == 1:
        raise DomainError("pole at s = 1")
    n_cut = cutoff or max(32, int(0.5 * abs(s.imag)) + 16)
    ns = np.arange(1, n_cut, dtype=np.int64)
    total = complex(np.sum(_powers_negs(ns, s)))
    n_pow = complex(_powers_negs(np.array([n_cut]), s)[0])
    total += n_pow * n_cut / (s - 1.0)
    total += 0.5 * n_pow
    poch = s                       # rising product s (s+1) ... (s + 2k - 2)
    scale = n_pow / n_cut          # N^{-s - (2k - 1)}
    for k in range(1, tail_terms + 1):
        total += _BERNOULLI[k - 1] / math.factorial(2 * k) * poch * scale
        poch *= (s + 2 * k - 1) * (s + 2 * k)
        scale /= n_cut * n_cut
    return total


def _theta_mod_2pi(t: float) -> tuple[float, float]:
    """(main argument mod 2pi in extended precision, Stirling correction)."""
    tl = np.longdouble(t)
    main = 0.5 * tl * np.log(tl / TWO_PI_LD) - 0.5 * tl - np.longdouble(math.pi) / 8
    main = float(np.mod(main, TWO_PI_LD))
    corr = 1.0 / (48 * t) + 7.0 / (5760 * t ** 3) + 31.0 / (80640 * t ** 5)
    return main, corr


def _rs_f(z: np.ndarray) -> np.ndarray:
    num = np.exp(1j * math.pi * (0.5 * z * z + 0.375)) - 1j * math.sqrt(2.0) * np.cos(0.5 * math.pi * z)
    return num / (2.0 * np.cos(math.pi * z))


def _rs_f_derivatives(p: float, m_max: int, radius: float = 2.0, nodes: int = 512) -> np.ndarray:
    """F^(m)(p) for m = 0..m_max by a Cauchy contour with half-step angle offset.

    The offset keeps nodes away from the real axis where cos(pi z) vanishes.
    """
    k = np.arange(nodes)
    angles = TWO_PI * (k + 0.5) / nodes
    vals = _rs_f(p + radius * np.exp(1j * angles))
    coeffs = np.fft.fft(vals)
    m = np.arange(m_max + 1)
    twiddle = np.exp(-1j * math.pi * m / nodes)     # from the half-step offset
    fact = np.array([math.factorial(int(v)) for v in m], dtype=float)
    return coeffs[: m_max + 1] * twiddle * fact / (nodes * radius ** m)


_D_TABLE_CACHE: dict[int, list[list[float]]] = {}


def _rs_d_table(levels: int) -> list[list[float]]:
    """Coefficients d[n][k] of the expansion at sigma = 1/2, cached by depth."""
    if levels in _D_TABLE_CACHE:
        return _D_TABLE_CACHE[levels]
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
    _D_TABLE_CACHE[levels] = d
    return d


def _rs_depth(a: float, target: float = 1e-12) -> int:
    """Number of correction levels: minimize the term-size envelope."""
    best_l, best = 2, math.inf
    bound = math.inf
    for level in range(2, 40):
        try:
            bound = 2.03 * math.gamma(0.5 * level) * (2.0 * a) ** (-level)
        except OverflowError:
            break
        if bound < best:
            best_l, best = level, bound
        if bound < target:
            break
        if bound > 10 * best:
            break
    return best_l


def zeta_riemann_siegel(t: float) -> complex:
    """zeta(1/2 + i t) by the Riemann-Siegel expansion (t above ~ 20)."""
    t = float(t)
    a = math.sqrt(t / TWO_PI)
    n_main = int(math.floor(a))
    if n_main < 1:
        raise DomainError(f"t={t} too small for the main sum")
    p = 1.0 - 2.0 * (a - n_main)
    levels = _rs_depth(a)
    d = _rs_d_table(levels)
    fp = _rs_f_derivatives(p, 3 * (levels - 1))
    rssum = 0.0 + 0.0j
    a_pow = 1.0
    for n in range(levels):
        acc = 0.0 + 0.0j
        for ell in range(3 * n // 2 + 1):
            acc += d[n][ell] * fp[3 * n - 2 * ell] / (math.pi ** (2 * n - ell) * (2j) ** ell)
        rssum += acc * a_pow
        a_pow /= a
    arg_main, arg_corr = _theta_mod_2pi(t)
    u = np.exp(-1j * arg_main)
    s3 = ((-1) ** (n_main - 1)) * u / math.sqrt(a)
    s1 = complex(np.sum(_powers_negs(np.arange(1, n_main + 1), 0.5 + 1j * t)))
    r_val = s1 + s3 * rssum
    chi = u * u * np.exp(-2j * arg_corr)
    return complex(r_val + chi * np.conj(r_val))


RS_SWITCH = 50.0
MAX_T = 1e12


def zeta_critical(t: float) -> complex:
    """zeta(1/2 + i t): Euler-Maclaurin below t=50, Riemann-Siegel above."""
    if t <= 0:
        raise DomainError(f"need t > 0, got {t}")
    if t > MAX_T:
        raise CapacityError(f"t={t} beyond supported range {MAX_T}")
    if t < RS_SWITCH:
        return zeta_euler_maclaurin(0.5 + 1j * t)
    return zeta_riemann_siegel(t)


def z_function(t: float) -> float:
    """Hardy Z(t) = e^{i theta(t)} zeta(1/2 + it); real up to rounding."""
    m, c = _theta_mod_2pi(t)
    return (np.exp(1j * (m + c)) * zeta_critical(t)).real


def relative_gap(a: complex, b: complex) -> float:
    """|a - b| / max(1, |a|, |b|); the guard keeps the gap meaningful at zeros."""
    return abs(a - b) / max(1.0, abs(a), abs(b))


def max_on_grid(t: float, grid: np.ndarray) -> tuple[float, float]:
    """(argmax shift, max |zeta|) over shifts h in the grid."""
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise DomainError("empty grid")
    if np.any(np.abs(grid) > 2.0):
        raise DomainError("shifts must lie in [-2, 2]")
    mags = np.array([abs(zeta_critical(t + h)) for h in grid])
    i = int(np.argmax(mags))
    return float(grid[i]), float(mags[i])


def high_point_threshold(y: float, big_t: float) -> float:
    n = math.log(math.log(big_t))
    return math.exp(y + n) / n ** 0.75


def high_points(t: float, grid: np.ndarray, y: float, big_t: float) -> np.ndarray:
    """Grid shifts where |zeta| exceeds e^y e^n / n^{3/4} with n = loglog(big_t)."""
    grid = np.asarray(grid, dtype=float)
    thresh = high_point_threshold(y, big_t)
    mags = np.array([abs(zeta_critical(t + h)) for h in grid])
    return grid[mags > thresh]


@dataclass
class MomentEstimate:
    power: int
    mean: float
    ci_lo: float
    ci_hi: float
    n_samples: int
    degenerate: bool


def moment_estimate(big_t: float, power: int, n_samples: int,
                    rng: np.random.Generator, bootstrap: int = 400) -> MomentEstimate:
    """Monte Carlo mean of |zeta(1/2 + i tau)|^power, tau ~ U[T, 2T]."""
    if power not in (2, 4):
        raise DomainError("power must be 2 or 4")
    if n_samples < 1:
        raise DomainError("need at least one sample")
    taus = rng.uniform(big_t, 2 * big_t, size=n_samples)
    vals = np.array([abs(zeta_critical(tau)) ** power for tau in taus])
    mean = float(np.mean(vals))
    if n_samples < 2:
        return MomentEstimate(power, mean, math.nan, math.nan, n_samples, True)
    idx = rng.integers(0, n_samples, size=(bootstrap, n_samples))
    boots = np.mean(vals[idx], axis=1)
    lo, hi = np.percentile(boots, [2.5, 97.5])
    return MomentEstimate(power, mean, float(lo), float(hi), n_samples,
                          n_samples < 100)

