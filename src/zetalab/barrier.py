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
TAIL_SD = 8.0   # every Gaussian kernel, and the DP's state space, ends this many sd out
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


def _gauss_kernel(mesh_step: float, var: float) -> np.ndarray:
    """N(0, var) sampled on the mesh out to TAIL_SD sd, normalized to sum 1."""
    m = int(math.ceil(TAIL_SD * math.sqrt(var) / mesh_step))
    xs = np.arange(-m, m + 1) * mesh_step
    k = np.exp(-xs * xs / (2.0 * var))
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


def _cut_above(density: np.ndarray, grid: np.ndarray, level: float) -> None:
    """Zero, in place, every cell whose upper edge reaches `level`; the cells
    wholly below it keep all their mass."""
    step = grid[1] - grid[0]
    density[np.searchsorted(grid + 0.5 * step, level):] = 0.0


def _bin_mass(density: np.ndarray, grid: np.ndarray, a: float, b: float) -> float:
    """Mass on [a, b) by linear interpolation of the cumulative, O(step^2) exact."""
    step = grid[1] - grid[0]
    cum = np.concatenate([[0.0], np.cumsum(density) * step])
    edges = np.concatenate([grid - 0.5 * step, [grid[-1] + 0.5 * step]])
    ca, cb = np.interp([a, b], edges, cum)
    return float(cb - ca)


def _levels(barrier, k: int, w: float) -> tuple[np.ndarray, np.ndarray]:
    """The levels barrier(j) for j = 1..k, and which steps reflect: those
    whose level is finite and whose previous position was constrained (the
    start point counts as constrained).  A level may be +inf, no barrier at
    that step; k < 1, an endpoint bin [w, w+1) with w not finite, or a level
    that is NaN or -inf is a DomainError."""
    if k < 1:
        raise DomainError(f"need at least one step, got k={k}")
    if not math.isfinite(w):
        raise DomainError(f"the endpoint bin needs a finite w, got w={w}")
    levels = np.array([float(barrier(j)) for j in range(1, k + 1)])
    if not np.all(levels > -math.inf):   # NaN fails this too
        raise DomainError(f"barrier levels must be finite or +inf, got {levels.min()}")
    finite = np.isfinite(levels)
    return levels, finite & np.concatenate([[True], finite[:-1]])


def bridge_survival_dp(k: int, w: float, barrier, mesh: int = 200) -> BridgeSurvival:
    """Transfer-operator survival below barrier(j), endpoint in [w, w+1].

    `barrier` maps j = 1..k to a level (may be +inf).  Within-step crossings
    of the step's level are removed by the reflection image charge, so a
    constant barrier reproduces the Brownian-bridge formula.  State space is
    truncated at TAIL_SD total standard deviations with the tail mass counted
    as absorbed.  A step is inert when its level is +inf or lies above the
    grid's top edge: it cuts no cell and its image falls off the grid, so it
    is a plain convolution, and each run of m inert steps is taken as one
    convolution by N(0, m/2), which equals the m-fold one up to rounding.
    """
    if mesh < 200:
        raise ToleranceError("mesh below 200 points per unit standard deviation")
    levels, reflects = _levels(barrier, k, w)
    sigma_total = math.sqrt(k * STEP_VAR)
    step = math.sqrt(STEP_VAR) / mesh
    reach = TAIL_SD * math.sqrt(STEP_VAR)    # one-step kernel support
    # the reflection image sits above the barrier and feeds back down within
    # one kernel width, so keep that much headroom (a +inf level caps nothing)
    top = min(levels.max(), TAIL_SD * sigma_total) + reach + 1.0
    n_lo = int(math.ceil(TAIL_SD * sigma_total / step))
    n_hi = int(math.ceil(top / step))
    grid = np.arange(-n_lo, n_hi + 1) * step          # 0 sits exactly on the grid
    edge = grid[-1] + 0.5 * step                      # a level above it is inert
    convolvers = {}

    def diffuse(m: int, density: np.ndarray) -> np.ndarray:
        """m steps with no barrier, as one linear convolution."""
        if m not in convolvers:
            convolvers[m] = _same_convolver(_gauss_kernel(step, m * STEP_VAR), len(grid))
        return convolvers[m](density)

    density = np.zeros_like(grid)
    density[n_lo] = 1.0 / step                        # delta at the origin
    j = 0
    while j < k:
        level = levels[j]
        if level > edge:
            end = j + 1
            while end < k and levels[end] > edge:
                end += 1
            density = diffuse(end - j, density)
            j = end - 1                               # the run's last step
        else:
            if reflects[j]:
                # mass already above the step's barrier is absorbed before diffusing,
                # and the image charge goes in before the one (linear) convolution
                _cut_above(density, grid, level)
                density -= np.interp(2.0 * level - grid, grid, density, left=0.0, right=0.0)
            density = diffuse(1, density)
            _cut_above(density, grid, level)
        if reflects[j]:
            np.clip(density, 0.0, None, out=density)  # the image's negative remainder
        j += 1
    joint = _bin_mass(density, grid, w, w + 1.0)
    endpoint = _normal_mass(w, w + 1.0, sigma_total)
    return BridgeSurvival(joint=joint, conditional=joint / endpoint if endpoint > 0 else 0.0)


def _normal_mass(a: float, b: float, sd: float) -> float:
    """Mass of N(0, sd^2) on [a, b), with no cancellation in either tail."""
    if b <= 0.0:
        a, b = -b, -a
    scale = sd * math.sqrt(2.0)
    if a > 0.0:
        return 0.5 * (erfc(a / scale) - erfc(b / scale))
    return 0.5 * (erf(b / scale) - erf(a / scale))


def bridge_survival_exact(k: int, w: float, level: float) -> float:
    """Brownian P(stay below `level` | end in [w, w+1)) after k steps from 0.

    By reflection, the surviving endpoint density below the level is that of
    N(0, k/2) less that of N(2 level, k/2): the constant-barrier law that the
    DP discretizes.
    """
    if k < 1 or not level > 0.0 or not math.isfinite(w):
        raise DomainError(f"need k >= 1, a level above the start and a finite w, "
                          f"got k={k}, level={level}, w={w}")
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
    levels, reflects = _levels(barrier, k, w)
    safe_levels = np.where(reflects, levels, 0.0)   # a step that does not reflect reads 0
    hits = survive = 0
    chunk = max(1, min(n_paths, 2_000_000 // k))
    done = 0
    while done < n_paths:
        m = min(chunk, n_paths - done)
        paths = rng.normal(0.0, math.sqrt(STEP_VAR), size=(m, k))
        np.cumsum(paths, axis=1, out=paths)
        below = np.all(paths <= levels[None, :], axis=1)
        endpoint = paths[:, -1].copy()
        # the crossing chance exp(-2 (L - S_{j-1})+ (L - S_j)+ / STEP_VAR), in
        # one buffer, with `paths` reused for L - S_j
        p_cross = np.empty_like(paths)
        p_cross[:, 0] = safe_levels[0]                     # S_0 = 0
        np.subtract(safe_levels[1:], paths[:, :-1], out=p_cross[:, 1:])
        np.clip(p_cross, 0, None, out=p_cross)
        p_cross *= -2.0
        np.subtract(safe_levels, paths, out=paths)
        np.clip(paths, 0, None, out=paths)
        p_cross *= paths
        p_cross /= STEP_VAR
        np.exp(p_cross, out=p_cross)
        p_cross[:, ~reflects] = 0.0
        u = rng.uniform(size=(m, k))
        below &= ~np.any(u < p_cross, axis=1)
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

