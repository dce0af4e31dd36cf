"""Randomized Euler-product model, Gaussian surrogates, and the hierarchical
branching field used for extreme-value experiments.

The per-prime variable is X_p(h) = Re(Z p^{-1/2-ih} + Z^2 p^{-1-2ih}/2) with Z
uniform on the unit circle; sums over scale windows mirror the deterministic
walk with p^{-i tau} replaced by Z_p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, DomainError
from .primes import PrimeTable, primes_in_log_range
from .walk import WalkConfig

EXACT_PRIME_CUTOFF = 10_000   # primes above this are folded into one Gaussian
SAMPLE_CHUNK = 1 << 14
PRIME_BLOCK = 256


def x_p_values(primes: np.ndarray, theta: np.ndarray, h: float = 0.0) -> np.ndarray:
    """X_p(h) for matched arrays of primes and angles."""
    logs = np.log(primes.astype(float))
    c1 = np.cos(theta - h * logs)
    c2 = np.cos(2.0 * (theta - h * logs))
    return c1 / np.sqrt(primes.astype(float)) + 0.5 * c2 / primes.astype(float)


def sample_x_p(rng: np.random.Generator, p: int, h: float = 0.0) -> float:
    theta = rng.uniform(0.0, 2.0 * math.pi)
    return float(x_p_values(np.array([p]), np.array([theta]), h)[0])


def x_p_variance(primes: np.ndarray) -> np.ndarray:
    pf = primes.astype(float)
    return 1.0 / (2.0 * pf) + 1.0 / (8.0 * pf * pf)


def e_z_xp_quadrature(p: int, z: float, nodes: int = 2048) -> float:
    """E[exp(z X_p)] by periodic trapezoid quadrature over the angle."""
    theta = 2.0 * math.pi * np.arange(nodes) / nodes
    x = x_p_values(np.full(nodes, p), theta)
    return float(np.mean(np.exp(z * x)))


@dataclass
class RandomEulerPath:
    config: WalkConfig
    angles: np.ndarray     # one angle per prime in the configured range
    values: np.ndarray     # real, shape (n_scales, n_shifts)


def sample_euler_path(rng: np.random.Generator, table: PrimeTable,
                      config: WalkConfig, angles: np.ndarray | None = None) -> RandomEulerPath:
    """Randomized walk values S_k(h) with one shared angle per prime."""
    edges = (config.k_start,) + config.scales
    all_primes = primes_in_log_range(table, config.k_start, config.scales[-1])
    if angles is None:
        angles = rng.uniform(0.0, 2.0 * math.pi, size=len(all_primes))
    elif len(angles) != len(all_primes):
        raise DomainError("angle array does not match the prime range")
    grid = np.asarray(config.grid, dtype=float)
    values = np.zeros((len(config.scales), len(grid)))
    offset = 0
    for si in range(len(config.scales)):
        primes = primes_in_log_range(table, edges[si], edges[si + 1])
        th = angles[offset : offset + len(primes)]
        offset += len(primes)
        for g, h in enumerate(grid):
            values[si, g] = np.sum(x_p_values(primes, th, float(h))) if len(primes) else 0.0
    np.cumsum(values, axis=0, out=values)
    return RandomEulerPath(config=config, angles=angles, values=values)


@dataclass
class SplitSampleInfo:
    n_exact: int
    tail_variance: float
    total_variance: float
    tail_bias_bound: float   # Edgeworth skew bound for the Gaussianized block


def sample_window_sums(rng: np.random.Generator, table: PrimeTable, j: float, k: float,
                       n_samples: int, exact_below: float = EXACT_PRIME_CUTOFF,
                       ) -> tuple[np.ndarray, SplitSampleInfo]:
    """Monte Carlo draws of sum_{window} X_p at h = 0.

    Primes up to `exact_below` are simulated exactly; the remaining block is
    replaced by a single Gaussian with the exact variance.  The replacement
    bias (third-moment Edgeworth bound, reported) is orders of magnitude
    below any tolerance used in the experiments.
    """
    primes = primes_in_log_range(table, j, k)
    head = primes[primes <= exact_below]
    tail = primes[len(head):]
    tail_f = tail.astype(float)
    tail_var = float(np.sum(x_p_variance(tail))) if len(tail) else 0.0
    total_var = tail_var + (float(np.sum(x_p_variance(head))) if len(head) else 0.0)
    skew = float(np.sum(0.375 / (tail_f * tail_f))) if len(tail) else 0.0
    bias = skew / max(total_var, 1e-30) ** 1.5
    info = SplitSampleInfo(n_exact=len(head), tail_variance=tail_var,
                           total_variance=total_var, tail_bias_bound=bias)

    out = np.zeros(n_samples)
    if tail_var > 0:
        out += rng.normal(0.0, math.sqrt(tail_var), size=n_samples)
    head_f = head.astype(float)
    amp1 = 1.0 / np.sqrt(head_f)
    amp2 = 0.5 / head_f
    for lo in range(0, n_samples, SAMPLE_CHUNK):
        hi = min(n_samples, lo + SAMPLE_CHUNK)
        acc = np.zeros(hi - lo)
        for b in range(0, len(head), PRIME_BLOCK):
            be = min(len(head), b + PRIME_BLOCK)
            theta = rng.uniform(0.0, 2.0 * math.pi, size=(hi - lo, be - b))
            c = np.cos(theta)
            acc += c @ amp1[b:be] + (2.0 * c * c - 1.0) @ amp2[b:be]
        out[lo:hi] += acc
    return out, info


@dataclass
class LaplaceReport:
    lam: float
    estimate: float
    std_error: float
    bound: float
    passed: bool
    quadrature_residuals: dict[int, float] = field(default_factory=dict)


def laplace_check(rng: np.random.Generator, table: PrimeTable, j: float, k: float,
                  lam: float, n_samples: int, c_const: float = 4.0,
                  quad_primes: tuple[int, ...] = ()) -> LaplaceReport:
    """Monte Carlo E[exp(lam * (S_k - S_j))] against exp((k - j + C) lam^2 / 4)."""
    if abs(lam) > 10:
        raise DomainError("|lam| must be <= 10")
    samples, _ = sample_window_sums(rng, table, j, k, n_samples)
    vals = np.exp(lam * samples)
    est = float(np.mean(vals))
    se = float(np.std(vals) / math.sqrt(n_samples))
    bound = math.exp((k - j + c_const) * lam * lam / 4.0)
    quad = {}
    for p in quad_primes:
        z = lam
        quad[p] = abs(e_z_xp_quadrature(p, z) - (1.0 + z * z / (4.0 * p)))
    return LaplaceReport(lam=lam, estimate=est, std_error=se, bound=bound,
                         passed=est <= bound + 3 * se, quadrature_residuals=quad)


@dataclass
class GaussianComparison:
    sup_distance: float
    variance: float      # beta over the window, from exact prime sums
    n_samples: int


def _gauss_cdf(x: np.ndarray, var: float) -> np.ndarray:
    from scipy.special import erf
    return 0.5 * (1.0 + erf(x / math.sqrt(2.0 * var)))


def increment_gaussianity(rng: np.random.Generator, table: PrimeTable, k: float,
                          n_samples: int, width: float = 1.0,
                          n_intervals: int = 1000) -> GaussianComparison:
    """Sup over quantile-anchored intervals of |P(Y in A) - P(N(0, beta) in A)|.

    Y is the window sum over (k - width, k]; the interval family has endpoints
    at the empirical quantiles, and the sup over all intervals with those
    endpoints equals max(D) - min(D) for the signed CDF gaps D.
    """
    if n_samples < 10_000:
        raise DomainError("need at least 1e4 samples")
    j = k - width
    samples, _ = sample_window_sums(rng, table, j, k, n_samples)
    beta = float(np.sum(x_p_variance(primes_in_log_range(table, j, k))))
    qs = np.quantile(samples, np.linspace(0.001, 0.999, n_intervals))
    emp = np.searchsorted(np.sort(samples), qs, side="right") / n_samples
    gaps = emp - _gauss_cdf(qs, beta)
    return GaussianComparison(sup_distance=float(gaps.max() - gaps.min()),
                              variance=beta, n_samples=n_samples)


@dataclass
class DensityRow:
    v: float
    empirical: float
    asymptotic: float
    ratio: float


def density_check(rng: np.random.Generator, table: PrimeTable, r: float, delta: float,
                  n_samples: int, k_start: float = 0.0) -> list[DensityRow]:
    """Bin probabilities of S_r against delta^{-1} r^{-1/2} exp(-v^2/r)."""
    samples, _ = sample_window_sums(rng, table, k_start, r, n_samples)
    vmax = 2.0 * math.sqrt(r)
    vs = np.arange(-math.floor(vmax * delta), math.floor(vmax * delta) + 1) / delta
    sorted_samples = np.sort(samples)
    rows = []
    for v in vs:
        n_in = np.searchsorted(sorted_samples, v + 1.0 / delta, side="right") \
            - np.searchsorted(sorted_samples, v, side="left")
        emp = n_in / n_samples
        asym = (1.0 / delta) * r ** -0.5 * math.exp(-v * v / r)
        rows.append(DensityRow(v=float(v), empirical=float(emp), asymptotic=asym,
                               ratio=float(emp / asym)))
    return rows


def sample_gaussian_walk(rng: np.random.Generator, n_steps: int) -> np.ndarray:
    """Increments of the surrogate walk: independent N(0, 1/2), one per scale."""
    return rng.normal(0.0, math.sqrt(0.5), size=n_steps)


# --- hierarchical branching surrogate ---

def branching_pattern(depth: int, b: float = math.e) -> list[int]:
    """Integer child counts tracking cumulative log-branching i * log(b)."""
    lo, hi = int(math.floor(b)), int(math.ceil(b))
    pattern, cum = [], 0.0
    for i in range(1, depth + 1):
        take_hi = abs(cum + math.log(hi) - i * math.log(b)) <= \
            abs(cum + math.log(lo) - i * math.log(b))
        c = hi if take_hi else lo
        pattern.append(c)
        cum += math.log(c)
    return pattern


@dataclass(frozen=True)
class HierarchicalField:
    depth: int
    branching: float
    pattern: tuple[int, ...]

    @property
    def n_leaves(self) -> int:
        out = 1
        for c in self.pattern:
            out *= c
        return out


def make_hierarchical(depth: int, b: float = math.e) -> HierarchicalField:
    field_ = HierarchicalField(depth=depth, branching=b,
                               pattern=tuple(branching_pattern(depth, b)))
    if field_.n_leaves > 10 ** 7:
        raise CapacityError(f"{field_.n_leaves} leaves exceed the 1e7 budget")
    return field_


def centering(k: float, n: float) -> float:
    """Deterministic centering k (1 - 0.75 log(n)/n) of the running maximum."""
    if n <= 1:
        raise DomainError("need n > 1")
    return k * (1.0 - 0.75 * math.log(n) / n)


def sample_hierarchical_leaves(rng: np.random.Generator, field_: HierarchicalField,
                               runs: int) -> np.ndarray:
    """Leaf values of the branching walk, shape (runs, n_leaves)."""
    values = np.zeros((runs, 1))
    for c in field_.pattern:
        values = np.repeat(values, c, axis=1)
        values = values + rng.normal(0.0, math.sqrt(0.5), size=values.shape)
    return values


def sample_hierarchical_maxima(rng: np.random.Generator, depth: int, b: float,
                               runs: int, chunk: int = 8) -> np.ndarray:
    """Per-run maxima over leaves, centered by `centering(depth, depth)`."""
    field_ = make_hierarchical(depth, b)
    m_n = centering(depth, depth)
    out = np.empty(runs)
    for lo in range(0, runs, chunk):
        hi = min(runs, lo + chunk)
        leaves = sample_hierarchical_leaves(rng, field_, hi - lo)
        out[lo:hi] = leaves.max(axis=1) - m_n
    return out


def tail_slope(centered_max: np.ndarray, ys: np.ndarray) -> tuple[float, list[tuple[float, float]]]:
    """OLS slope of log P(max > y) on y, dropping empty tail bins."""
    pts = []
    n = len(centered_max)
    for y in ys:
        cnt = int(np.sum(centered_max > y))
        if cnt > 0:
            pts.append((float(y), math.log(cnt / n)))
    if len(pts) < 3:
        raise DomainError("not enough occupied tail points for a slope")
    xs = np.array([p[0] for p in pts])
    vals = np.array([p[1] for p in pts])
    slope = float(np.polyfit(xs, vals, 1)[0])
    return slope, pts
