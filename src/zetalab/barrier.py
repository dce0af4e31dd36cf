"""Barriers, event flags, and the ballot-probability engine.

The walk model is Gaussian with variance-1/2 increments checked at integer
times; within each unit step the barrier is treated as constant at its
right-endpoint value and crossing is handled by the exact reflection kernel,
so constant-barrier survival matches the Brownian-bridge formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.signal import fftconvolve
from scipy.special import erf

from .errors import DomainError, InsufficientSampleError, StructuralError, ToleranceError
from .model import centering
from .primes import ScaleLadder
from .walk import MultiscaleWalk

STEP_VAR = 0.5


@dataclass(frozen=True)
class BarrierProfile:
    y: float
    n: float
    c_upper: float = 1e3
    c_lower: float = 20.0

    @property
    def r(self) -> int:
        return math.ceil(self.y / 4.0)

    def c_ell(self, ladder: ScaleLadder, ell: int) -> float:
        """prod_{i=0}^{ell} (1 + exp(-n_{i-1})) along the ladder."""
        out = 1.0
        for i in range(0, ell + 1):
            out *= 1.0 + math.exp(-min(ladder.level(i - 1), 700.0))
        return out


def upper_barrier(k: float, profile: BarrierProfile) -> float:
    """U_y(k): +inf below r, then y + c_upper * log(min(k, n-k))."""
    y, n = profile.y, profile.n
    if k < profile.r:
        return math.inf
    if k <= n / 2.0:
        return y + profile.c_upper * math.log(k)
    if k < n:
        return y + profile.c_upper * math.log(n - k)
    raise DomainError(f"barrier defined for k < n, got k={k}, n={n}")


def lower_barrier(k: float, profile: BarrierProfile) -> float:
    """L_y(k): -inf below r, then y - c_lower * min(k, n-k)."""
    y, n = profile.y, profile.n
    if k < profile.r:
        return -math.inf
    if k <= n / 2.0:
        return y - profile.c_lower * k
    if k < n:
        return y - profile.c_lower * (n - k)
    raise DomainError(f"barrier defined for k < n, got k={k}, n={n}")


centering_m = centering   # same centering drives barriers and surrogates


@dataclass
class EventFlags:
    """Per-level, per-shift membership bits; rows are cumulative over levels."""

    levels: list[int]
    in_a: np.ndarray
    in_b: np.ndarray
    in_c: np.ndarray
    in_d: np.ndarray
    in_h: np.ndarray      # shape (n_shifts,)

    @property
    def in_g(self) -> np.ndarray:
        return self.in_a & self.in_b & self.in_c & self.in_d


def event_flags(walk: MultiscaleWalk, profile: BarrierProfile, ladder: ScaleLadder,
                zeta_mags: np.ndarray | None = None,
                moll_prod_mags: dict[tuple[int, int], np.ndarray] | None = None,
                a_const: float = 1e3, d_exponent: float = 1e4,
                max_level: int | None = None) -> EventFlags:
    """Literal transcription of the four defining inequalities.

    `moll_prod_mags[(ell, si)]` must hold |zeta * mollifier product| on the
    shift grid for every walk scale index si inside level ell's window.
    The D flag needs `zeta_mags` and those products; omitting them raises.
    """
    scales = walk.config.scales
    grid = np.asarray(walk.config.grid)
    n_shifts = len(grid)
    top = max_level if max_level is not None else ladder.top_index
    values = walk.values
    s_real = values.real

    def window_indices(ell: int) -> list[int]:
        lo, hi = ladder.level(ell - 1), ladder.level(ell)
        return [i for i, k in enumerate(scales) if lo < k <= hi]

    a_rows, b_rows, c_rows, d_rows = [], [], [], []
    prev = [np.ones(n_shifts, dtype=bool) for _ in range(4)]
    for ell in range(0, top + 1):
        idx = window_indices(ell)
        a_cur, b_cur, c_cur, d_cur = (p.copy() for p in prev)
        lo = ladder.level(ell - 1)
        base_idx = [i for i, k in enumerate(scales) if k <= lo]
        base = values[base_idx[-1]] if base_idx else np.zeros(n_shifts, dtype=complex)
        width = ladder.level(ell) - lo
        for i in idx:
            k = scales[i]
            a_cur &= np.abs(values[i] - base) <= a_const * width
            b_cur &= s_real[i] <= centering(k, profile.n) + upper_barrier(k, profile)
            c_cur &= s_real[i] > centering(k, profile.n) + lower_barrier(k, profile)
            if zeta_mags is None or moll_prod_mags is None:
                raise StructuralError(
                    f"D flag at level {ell}, scale index {i} needs zeta and "
                    f"mollifier-product magnitudes"
                )
            if (ell, i) not in moll_prod_mags:
                raise StructuralError(f"missing mollifier product for (ell={ell}, k={k})")
            c_l = profile.c_ell(ladder, ell)
            slack = math.exp(-min(d_exponent * (profile.n - lo), 700.0))
            d_cur &= zeta_mags * np.exp(-s_real[i]) <= \
                c_l * moll_prod_mags[(ell, i)] + slack
        a_rows.append(a_cur)
        b_rows.append(b_cur)
        c_rows.append(c_cur)
        d_rows.append(d_cur)
        prev = [a_cur, b_cur, c_cur, d_cur]
    thresh = math.exp(profile.y + profile.n) / profile.n ** 0.75
    in_h = (zeta_mags > thresh) if zeta_mags is not None else np.zeros(n_shifts, dtype=bool)
    return EventFlags(levels=list(range(0, top + 1)),
                      in_a=np.array(a_rows), in_b=np.array(b_rows),
                      in_c=np.array(c_rows), in_d=np.array(d_rows), in_h=in_h)


@dataclass(frozen=True)
class BarrierFunction:
    """f(x) = g(x) + alpha x + y with concave g sampled on 0..k."""

    k: int
    g: np.ndarray
    alpha: float
    y: float
    theta: float = 0.0
    c1: float = 1.0

    def __post_init__(self):
        if abs(self.g[0]) > 1e-12 or abs(self.g[-1]) > 1e-12:
            raise DomainError("g must vanish at both endpoints")

    def values(self) -> np.ndarray:
        xs = np.arange(self.k + 1, dtype=float)
        return self.g + self.alpha * xs + self.y

    def envelope_report(self) -> dict[str, float]:
        """Finite-difference check of the slope/curvature envelopes (step 1)."""
        xs = np.arange(self.k + 1, dtype=float)
        scale = np.minimum(xs + 1.0, self.k - xs + 1.0)
        d1 = np.diff(self.g)
        mid_scale = scale[:-1]
        slope_ratio = float(np.max(np.abs(d1) * self.c1 * mid_scale ** (1.0 - self.theta)))
        d2 = np.diff(self.g, 2)
        curv_low = float(np.min(d2 * scale[1:-1] ** (2.0 - self.theta) / self.c1)) if self.k >= 2 else 0.0
        curv_high = float(np.max(d2)) if self.k >= 2 else 0.0
        return {"slope_ratio": slope_ratio, "curvature_low": curv_low,
                "curvature_high": curv_high}


@dataclass
class BridgeSurvival:
    joint: float          # P(stay below barrier and end in [w, w+1])
    endpoint_mass: float  # P(end in [w, w+1]) without the barrier
    conditional: float    # joint / endpoint_mass


def _gauss_kernel(mesh_step: float, half_width: float = 8.0) -> np.ndarray:
    m = int(math.ceil(half_width * math.sqrt(STEP_VAR) / mesh_step))
    xs = np.arange(-m, m + 1) * mesh_step
    k = np.exp(-xs * xs / (2.0 * STEP_VAR))
    return k / (k.sum())


def _cut_above(density: np.ndarray, grid: np.ndarray, level: float) -> np.ndarray:
    """Zero mass above `level`, with a linear fraction for the straddling cell."""
    if math.isinf(level):
        return density
    out = density.copy()
    step = grid[1] - grid[0]
    idx = int(np.searchsorted(grid + 0.5 * step, level))   # first cell fully above
    if idx < len(grid):
        out[idx:] = 0.0
        if idx > 0:
            frac = (level - (grid[idx - 1] - 0.5 * step)) / step
            out[idx - 1] *= min(max(frac, 0.0), 1.0)
    return out


def _bin_mass(density: np.ndarray, grid: np.ndarray, a: float, b: float) -> float:
    """Mass on [a, b) by linear interpolation of the cumulative, O(step^2) exact."""
    step = grid[1] - grid[0]
    cum = np.concatenate([[0.0], np.cumsum(density) * step])
    edges = np.concatenate([grid - 0.5 * step, [grid[-1] + 0.5 * step]])
    ca, cb = np.interp([a, b], edges, cum)
    return float(cb - ca)


def bridge_survival_dp(k: int, w: float, barrier, mesh: int = 200,
                       continuous: bool = True) -> BridgeSurvival:
    """Transfer-operator survival below barrier(j), endpoint in [w, w+1].

    `barrier` maps j = 1..k to a level (may be +inf).  With `continuous`,
    within-step crossings of the step's level are removed by the reflection
    image charge, so a constant barrier reproduces the Brownian-bridge
    formula.  State space is truncated at 8 total standard deviations with
    the tail mass counted as absorbed.
    """
    if mesh < 200:
        raise ToleranceError("mesh below 200 points per unit standard deviation")
    sigma_total = math.sqrt(k * STEP_VAR)
    step = math.sqrt(STEP_VAR) / mesh
    levels = [float(barrier(j)) for j in range(1, k + 1)]
    reach = 8.0 * math.sqrt(STEP_VAR)    # one-step kernel support
    if all(np.isfinite(levels)):
        # the reflection image sits above the barrier and feeds back down
        # within one kernel width, so keep that much headroom
        top = min(max(levels), 8.0 * sigma_total) + reach + 1.0
    else:
        top = 8.0 * sigma_total + reach + 1.0
    n_lo = int(math.ceil(8.0 * sigma_total / step))
    n_hi = int(math.ceil(top / step))
    grid = np.arange(-n_lo, n_hi + 1) * step          # 0 sits exactly on the grid
    kernel = _gauss_kernel(step)
    density = np.zeros_like(grid)
    density[n_lo] = 1.0 / step                        # delta at the origin
    prev_constrained = True                           # the start point is known
    for j in range(1, k + 1):
        level = levels[j - 1]
        reflect = continuous and not math.isinf(level) and prev_constrained
        if reflect:
            # the step's barrier applies on the whole step, so mass already
            # above it is absorbed before diffusing
            density = _cut_above(density, grid, level)
        new = fftconvolve(density, kernel, mode="same")
        if reflect:
            reflected = np.interp(2.0 * level - grid, grid, density, left=0.0, right=0.0)
            new -= fftconvolve(reflected, kernel, mode="same")
            np.clip(new, 0.0, None, out=new)
        density = _cut_above(new, grid, level)
        prev_constrained = not math.isinf(level)
    joint = _bin_mass(density, grid, w, w + 1.0)
    z0 = w / (sigma_total * math.sqrt(2.0))
    z1 = (w + 1.0) / (sigma_total * math.sqrt(2.0))
    endpoint = 0.5 * (erf(z1) - erf(z0))
    return BridgeSurvival(joint=joint, endpoint_mass=endpoint,
                          conditional=joint / endpoint if endpoint > 0 else 0.0)


def bridge_survival_mc(rng: np.random.Generator, k: int, w: float, barrier,
                       n_paths: int, continuous: bool = True) -> tuple[float, float, int]:
    """(estimate, binomial std error, endpoint hits) for the same event as the DP."""
    if n_paths < 10_000:
        raise DomainError("need at least 1e4 paths")
    levels = np.array([float(barrier(j)) for j in range(1, k + 1)])
    finite = np.isfinite(levels)
    # within-step reflection is active when the step's own level is finite and
    # the previous position was already constrained (start counts)
    active = finite & np.concatenate([[True], finite[:-1]])
    hits = survive = 0
    chunk = max(1, min(n_paths, 2_000_000 // max(k, 1)))
    done = 0
    while done < n_paths:
        m = min(chunk, n_paths - done)
        steps = rng.normal(0.0, math.sqrt(STEP_VAR), size=(m, k))
        paths = np.cumsum(steps, axis=1)
        below = np.all(paths <= levels[None, :], axis=1)
        if continuous:
            prev = np.concatenate([np.zeros((m, 1)), paths[:, :-1]], axis=1)
            safe_levels = np.where(finite, levels, 0.0)
            p_cross = np.exp(-2.0 * np.clip(safe_levels - prev, 0, None)
                             * np.clip(safe_levels - paths, 0, None) / STEP_VAR)
            p_cross = np.where(active[None, :], p_cross, 0.0)
            u = rng.uniform(size=(m, k))
            below &= ~np.any(u < p_cross, axis=1)
        endpoint = paths[:, -1]
        in_bin = (endpoint >= w) & (endpoint < w + 1.0)
        hits += int(np.sum(in_bin))
        survive += int(np.sum(in_bin & below))
        done += m
    if hits < 100:
        raise InsufficientSampleError(f"only {hits} endpoint hits in [{w}, {w + 1})")
    p = survive / hits
    return p, math.sqrt(max(p * (1 - p), 1e-12) / hits), hits


def ballot_bound(k: float, y: float, w: float, profile: BarrierProfile) -> float:
    """(y+1) (U_y(k) + m(k) - w + 1) k^{-3/2} exp(-w^2/k), constant omitted."""
    u = upper_barrier(k, profile)
    gap = u + centering(k, profile.n) - w + 1.0
    return (y + 1.0) * gap * k ** -1.5 * math.exp(-w * w / k)


def ballot_bound_constant(m: int, z1: float, z2: float) -> float:
    """Constant-barrier form (z1+1)(z1-z2+1)/m for z1 >= 1, z2 <= z1."""
    if z1 < 1 or z2 > z1:
        raise DomainError("need z1 >= 1 and z2 <= z1")
    return (z1 + 1.0) * (z1 - z2 + 1.0) / m
