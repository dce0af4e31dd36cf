"""The upper barrier and the ballot-probability engine.

The walk model is Gaussian with variance-1/2 steps checked at integer
times; within each unit step the barrier is treated as constant at its
right-endpoint value and crossing is handled by the exact reflection kernel,
so constant-barrier survival matches the Brownian-bridge formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import fft as sp_fft
from scipy.special import erf, erfc

from .errors import DomainError, InsufficientSampleError, ToleranceError
from .model import centering

STEP_VAR = 0.5
C_UPPER = 3.0   # the barrier's log-slope, at desk scale


@dataclass(frozen=True)
class BarrierProfile:
    y: float
    n: float

    @property
    def r(self) -> int:
        return math.ceil(self.y / 4.0)


def upper_barrier(k: float, profile: BarrierProfile) -> float:
    """U_y(k): +inf below r, then y + C_UPPER * log(min(k, n-k))."""
    y, n = profile.y, profile.n
    if k < profile.r:
        return math.inf
    if k <= n / 2.0:
        return y + C_UPPER * math.log(k)
    if k < n:
        return y + C_UPPER * math.log(n - k)
    raise DomainError(f"barrier defined for k < n, got k={k}, n={n}")


@dataclass
class BridgeSurvival:
    joint: float          # P(stay below barrier and end in [w, w+1])
    conditional: float    # joint / P(end in [w, w+1])


def _gauss_kernel(mesh_step: float, half_width: float = 8.0) -> np.ndarray:
    m = int(math.ceil(half_width * math.sqrt(STEP_VAR) / mesh_step))
    xs = np.arange(-m, m + 1) * mesh_step
    k = np.exp(-xs * xs / (2.0 * STEP_VAR))
    return k / (k.sum())


def _same_convolver(kernel: np.ndarray, n: int):
    """`fftconvolve(x, kernel, mode="same")` for real x of length n, bit for
    bit, with the kernel's spectrum computed once for all calls."""
    full = n + len(kernel) - 1
    flen = sp_fft.next_fast_len(full, True)
    spectrum = sp_fft.rfftn(kernel, [flen], axes=[0])
    start = (full - n) // 2

    def convolve(x: np.ndarray) -> np.ndarray:
        out = sp_fft.irfftn(sp_fft.rfftn(x, [flen], axes=[0]) * spectrum, [flen], axes=[0])
        return out[start:start + n]
    return convolve


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


def bridge_survival_dp(k: int, w: float, barrier, mesh: int = 200) -> BridgeSurvival:
    """Transfer-operator survival below barrier(j), endpoint in [w, w+1].

    `barrier` maps j = 1..k to a level (may be +inf).  Within-step crossings
    of the step's level are removed by the reflection image charge, so a
    constant barrier reproduces the Brownian-bridge formula.  State space is
    truncated at 8 total standard deviations with the tail mass counted as
    absorbed.
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
    convolve = _same_convolver(_gauss_kernel(step), len(grid))
    density = np.zeros_like(grid)
    density[n_lo] = 1.0 / step                        # delta at the origin
    prev_constrained = True                           # the start point is known
    for j in range(1, k + 1):
        level = levels[j - 1]
        reflect = not math.isinf(level) and prev_constrained
        if reflect:
            # the step's barrier applies on the whole step, so mass already
            # above it is absorbed before diffusing
            density = _cut_above(density, grid, level)
        new = convolve(density)
        if reflect:
            reflected = np.interp(2.0 * level - grid, grid, density, left=0.0, right=0.0)
            new -= convolve(reflected)
            np.clip(new, 0.0, None, out=new)
        density = _cut_above(new, grid, level)
        prev_constrained = not math.isinf(level)
    joint = _bin_mass(density, grid, w, w + 1.0)
    z0 = w / (sigma_total * math.sqrt(2.0))
    z1 = (w + 1.0) / (sigma_total * math.sqrt(2.0))
    endpoint = 0.5 * (erf(z1) - erf(z0))
    return BridgeSurvival(joint=joint, conditional=joint / endpoint if endpoint > 0 else 0.0)


def _normal_mass(a: float, b: float, sd: float) -> float:
    """Mass of N(0, sd^2) on [a, b), with no cancellation in either tail."""
    if b <= 0.0:
        a, b = -b, -a
    scale = sd * math.sqrt(2.0)
    if a >= 0.0:
        return 0.5 * (erfc(a / scale) - erfc(b / scale))
    return 0.5 * (erf(b / scale) - erf(a / scale))


def bridge_survival_exact(k: int, w: float, level: float) -> float:
    """Brownian P(stay below `level` | end in [w, w+1)) after k steps from 0.

    By reflection, the surviving endpoint density below the level is that of
    N(0, k/2) less that of N(2 level, k/2): the constant-barrier law that the
    DP discretizes.
    """
    if k < 1 or not level > 0.0:
        raise DomainError(f"need k >= 1 and a level above the start, got k={k}, level={level}")
    sd = math.sqrt(k * STEP_VAR)
    endpoint = _normal_mass(w, w + 1.0, sd)
    if endpoint == 0.0:
        raise DomainError(f"the bin [{w}, {w + 1}) has no mass in double precision")
    hi = min(w + 1.0, level)   # no path ends above the level
    if hi <= w:
        return 0.0
    joint = _normal_mass(w, hi, sd) - _normal_mass(w - 2.0 * level, hi - 2.0 * level, sd)
    return joint / endpoint


def bridge_survival_mc(rng: np.random.Generator, k: int, w: float, barrier,
                       n_paths: int) -> tuple[float, float]:
    """(estimate, binomial std error) for the same event as the DP."""
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
    return p, math.sqrt(max(p * (1 - p), 1e-12) / hits)


def ballot_bound(k: float, w: float, profile: BarrierProfile) -> float:
    """(y+1) (U_y(k) + m(k) - w + 1) k^{-3/2} exp(-w^2/k), constant omitted."""
    u = upper_barrier(k, profile)
    gap = u + centering(k, profile.n) - w + 1.0
    return (profile.y + 1.0) * gap * k ** -1.5 * math.exp(-w * w / k)

