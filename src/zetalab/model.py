"""Randomized Euler-product model, Gaussian surrogates, and the hierarchical
branching field used for extreme-value experiments.

The per-prime variable is X_p(h) = Re(Z p^{-1/2-ih} + Z^2 p^{-1-2ih}/2) with Z
uniform on the unit circle; sums over scale windows mirror the deterministic
walk with p^{-i tau} replaced by Z_p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from .errors import CapacityError, DomainError
from .parallel import map_blocks
from .primes import SEGMENT_SIZE, PrimeTable, primes_in_log_range

EXACT_PRIME_CUTOFF = 10_000   # primes above this are folded into one Gaussian
QUADRATURE_PRIME = 10_007     # the prime of laplace_check's quadrature residual
MAX_LEAVES = 10 ** 7          # leaves of one hierarchical surrogate run
MAX_SAMPLES = 10 ** 8         # window-sum draws of one request
SAMPLE_CHUNK = 1 << 14        # rows drawn per prime block before the next block
PRIME_BLOCK = 256
ROW_BLOCK = 1 << 11           # rows of one pool item; divides SAMPLE_CHUNK
JUMPABLE = ("Philox", "PCG64")   # bit generators whose doubles take one raw 64-bit draw each


def x_p_values(primes: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """X_p(0) for matched arrays of primes and angles."""
    c1 = np.cos(theta)
    c2 = np.cos(2.0 * theta)
    return c1 / np.sqrt(primes.astype(float)) + 0.5 * c2 / primes.astype(float)


def x_p_variance(primes: np.ndarray) -> np.ndarray:
    pf = primes.astype(float)
    return 1.0 / (2.0 * pf) + 1.0 / (8.0 * pf * pf)


def e_z_xp_quadrature(primes, z: float) -> np.ndarray:
    """E[exp(z X_p)] for each prime of `primes` (an int or an array), by
    periodic trapezoid quadrature over the angle."""
    nodes = 2048
    theta = 2.0 * math.pi * np.arange(nodes) / nodes
    x = x_p_values(np.asarray(primes)[..., None], theta)
    return np.mean(np.exp(z * x), axis=-1)


@dataclass(frozen=True)
class WindowSplit:
    head: np.ndarray          # primes <= the cutoff, simulated exactly
    tail_variance: float
    tail_bias_bound: float    # Edgeworth skew bound for the Gaussianized block

    @property
    def n_exact(self) -> int:
        return len(self.head)

    @property
    def variance(self) -> float:
        """beta, the window sum's variance: the head's exact terms plus the tail's."""
        return self.tail_variance + float(np.sum(x_p_variance(self.head)))


def window_split(table: PrimeTable, j: float, k: float) -> WindowSplit:
    """Split the primes of the window (j, k]: those up to `EXACT_PRIME_CUTOFF` are
    simulated exactly, the rest are replaced by one Gaussian of their exact
    variance.  The replacement bias (third-moment Edgeworth bound, reported)
    is orders of magnitude below any tolerance used in the experiments.  The
    tail sums run over every prime in the window (millions for k near 3), so
    a caller drawing many chunks computes the split once; they take `np.sum`
    per segment of 2^20 primes and `math.fsum` across, in bounded memory."""
    primes = primes_in_log_range(table, j, k)
    head, tail = np.split(primes, [np.searchsorted(primes, EXACT_PRIME_CUTOFF, side="right")])

    def tail_sum(term) -> float:
        return math.fsum(float(np.sum(term(tail[lo:lo + SEGMENT_SIZE])))
                         for lo in range(0, len(tail), SEGMENT_SIZE))

    tail_var = tail_sum(x_p_variance)
    total_var = tail_var + float(np.sum(x_p_variance(head)))
    bias = tail_sum(lambda p: 0.375 / np.square(p.astype(float))) / max(total_var, 1e-30) ** 1.5
    return WindowSplit(head=head, tail_variance=tail_var, tail_bias_bound=bias)


def _jumped(state: dict, n: int) -> np.random.BitGenerator:
    """A new `JUMPABLE` bit generator in `state`, moved on by `n` raw 64-bit
    draws in O(1), so that it continues exactly as the original would."""
    name = state["bit_generator"]
    bit_gen = getattr(np.random, name)(0)
    bit_gen.state = state
    if name == "Philox":
        # drain the 4-word buffer, skip whole counter blocks, then draw the
        # rest; `advance` empties the buffer, so it runs only once it is spent
        head = min(n, 4 - state["buffer_pos"])
        bit_gen.random_raw(head, output=False)
        if n > head:
            bit_gen.advance((n - head) // 4)
            bit_gen.random_raw((n - head) % 4, output=False)
    else:
        bit_gen.advance(n)
    # `advance` also drops a buffered 32-bit half, which raw draws keep
    bit_gen.state = {**bit_gen.state, "has_uint32": state["has_uint32"],
                     "uinteger": state["uinteger"]}
    return bit_gen


def draw_window_sums(rng: np.random.Generator, split: WindowSplit,
                     n_samples: int) -> np.ndarray:
    """Monte Carlo draws of the window sum of X_p at h = 0 over a split.

    The stream is read as by a serial sampler: the tail normals, then per
    `SAMPLE_CHUNK` of rows one uniform block per `PRIME_BLOCK` of primes.
    Fixed `ROW_BLOCK` items run on the shared pool, each from a copy of the
    stream jumped to its first draw, and `rng` ends where the serial sampler
    leaves it; the samples are the same for any pool size."""
    if n_samples > MAX_SAMPLES:
        raise CapacityError(f"{n_samples} samples exceed the budget of {MAX_SAMPLES}")
    name = type(rng.bit_generator).__name__
    if name not in JUMPABLE:   # another generator's raw draws need other jump arithmetic
        raise DomainError(f"window sums need a {' or '.join(JUMPABLE)} stream, not {name}")
    out = np.zeros(n_samples)
    if split.tail_variance > 0:
        out += rng.normal(0.0, math.sqrt(split.tail_variance), size=n_samples)
    head_f = split.head.astype(float)
    n_head = len(head_f)
    amp1 = 1.0 / np.sqrt(head_f)
    amp2 = 0.5 / head_f
    start = rng.bit_generator.state

    def block(r0: int) -> None:
        lo = r0 - r0 % SAMPLE_CHUNK
        hi = min(n_samples, lo + SAMPLE_CHUNK)
        r1 = min(hi, r0 + ROW_BLOCK)
        acc = np.zeros(r1 - r0)
        for b in range(0, n_head, PRIME_BLOCK):
            be = min(n_head, b + PRIME_BLOCK)
            gen = np.random.Generator(_jumped(
                start, lo * n_head + (hi - lo) * b + (r0 - lo) * (be - b)))
            c = np.cos(gen.uniform(0.0, 2.0 * math.pi, size=(r1 - r0, be - b)))
            # einsum, not a BLAS `@`: each row's sum then depends on that row
            # alone, not on the block shape or on any thread count
            acc += np.einsum("ij,j->i", c, amp1[b:be]) \
                + np.einsum("ij,j->i", 2.0 * c * c - 1.0, amp2[b:be])
        out[r0:r1] += acc

    map_blocks(block, range(0, n_samples, ROW_BLOCK))
    rng.bit_generator.state = _jumped(start, n_samples * n_head).state
    return out


def sample_window_sums(rng: np.random.Generator, table: PrimeTable, j: float, k: float,
                       n_samples: int) -> tuple[np.ndarray, WindowSplit]:
    """Draws of sum_{window} X_p at h = 0, and the `window_split` they used."""
    split = window_split(table, j, k)
    return draw_window_sums(rng, split, n_samples), split


@dataclass
class LaplaceReport:
    estimate: float
    bound: float
    quadrature_residual: float   # |E exp(lam X_p) - (1 + lam^2 / 4p)| at QUADRATURE_PRIME


def laplace_check(table: PrimeTable, j: float, k: float, lam: float) -> LaplaceReport:
    """E[exp(lam * (S_k - S_j))] under the law `draw_window_sums` samples,
    against exp((k - j + 4) lam^2 / 4).

    The value is exact up to quadrature: the head primes' factors
    E[exp(lam X_p)] by `e_z_xp_quadrature`, and exp(lam^2 sigma^2 / 2) for the
    Gaussian tail of variance sigma^2, multiplied as one `math.fsum` of logs."""
    if abs(lam) > 10:
        raise DomainError("|lam| must be <= 10")
    split = window_split(table, j, k)
    logs = np.log(e_z_xp_quadrature(split.head, lam)).tolist()
    est = math.exp(math.fsum(logs + [0.5 * lam * lam * split.tail_variance]))
    bound = math.exp((k - j + 4.0) * lam * lam / 4.0)
    p = QUADRATURE_PRIME
    quad = abs(float(e_z_xp_quadrature(p, lam)) - (1.0 + lam * lam / (4.0 * p)))
    return LaplaceReport(estimate=est, bound=bound, quadrature_residual=quad)


@dataclass
class GaussianComparison:
    sup_distance: float
    split: WindowSplit   # the split the samples were drawn from; beta is its variance


def _gauss_cdf(x: np.ndarray, var: float) -> np.ndarray:
    return 0.5 * (1.0 + erf(x / math.sqrt(2.0 * var)))


def increment_gaussianity(rng: np.random.Generator, table: PrimeTable, k: float,
                          n_samples: int) -> GaussianComparison:
    """Sup over quantile-anchored intervals of |P(Y in A) - P(N(0, beta) in A)|.

    Y is the window sum over the unit window (k - 1, k]; the interval family
    has endpoints at 1000 empirical quantiles, and the sup over all intervals
    with those endpoints equals max(D) - min(D) for the signed CDF gaps D.
    """
    if n_samples < 10_000:
        raise DomainError("need at least 1e4 samples")
    j = k - 1.0
    samples, split = sample_window_sums(rng, table, j, k, n_samples)
    qs = np.quantile(samples, np.linspace(0.001, 0.999, 1000))
    emp = np.searchsorted(np.sort(samples), qs, side="right") / n_samples
    gaps = emp - _gauss_cdf(qs, split.variance)
    return GaussianComparison(sup_distance=float(gaps.max() - gaps.min()), split=split)


@dataclass
class DensityRow:
    v: float
    empirical: float
    asymptotic: float
    ratio: float


def density_check(rng: np.random.Generator, table: PrimeTable, r: float, delta: float,
                  n_samples: int) -> tuple[list[DensityRow], WindowSplit]:
    """Bin probabilities of S_r over (0, r] against delta^{-1} r^{-1/2}
    exp(-v^2/r), and the `window_split` the samples were drawn from."""
    samples, split = sample_window_sums(rng, table, 0.0, r, n_samples)
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
    return rows, split


# --- hierarchical branching surrogate ---

def branching_pattern(depth: int, b: float) -> list[int]:
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


def centering(k: float, n: float) -> float:
    """Deterministic centering k (1 - 0.75 log(n)/n) of the running maximum."""
    if n <= 1:
        raise DomainError("need n > 1")
    return k * (1.0 - 0.75 * math.log(n) / n)


def _draw_leaves(rng: np.random.Generator, pattern: list[int], runs: int,
                 bufs: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Leaf values of `runs` runs of the branching walk with child counts
    `pattern` per level, shape (runs, prod(pattern)), drawn level by level in
    the flat buffers `bufs`: the leaves in the first, their parents in the
    second, and each level over the slots of its grandparents.  Each node is
    its parent plus sqrt(1/2) times a standard normal, the normals read from
    `rng` in node order."""
    parents, width = None, 1
    for level, c in enumerate(pattern):
        values = bufs[(len(pattern) - 1 - level) % 2][:runs * width * c]
        rng.standard_normal(out=values)
        values *= math.sqrt(0.5)
        if parents is not None:
            tree = values.reshape(runs, width, c)
            np.add(tree, parents[:, :, None], out=tree)
        width *= c
        parents = values.reshape(runs, width)
    return parents


def sample_hierarchical_maxima(rng: np.random.Generator, depth: int, b: float,
                               runs: int) -> np.ndarray:
    """Per-run maxima over leaves, centered by `centering(depth, depth)`."""
    pattern = branching_pattern(depth, b)
    n_leaves = math.prod(pattern)
    if n_leaves > MAX_LEAVES:
        raise CapacityError(f"{n_leaves} leaves exceed the budget of {MAX_LEAVES}")
    m_n = centering(depth, depth)
    group = min(runs, 8)   # 8 runs of leaves at a time bound the memory
    bufs = (np.empty(group * n_leaves), np.empty(group * math.prod(pattern[:-1])))
    out = np.empty(runs)
    for lo in range(0, runs, 8):
        hi = min(runs, lo + 8)
        out[lo:hi] = _draw_leaves(rng, pattern, hi - lo, bufs).max(axis=1) - m_n
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
