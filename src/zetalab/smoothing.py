"""Band-limited smoothing toolkit.

The base object is a nonnegative band-limited function F0 = b^2 where b is a
product of K sinc factors; its transform is a K-fold box convolution squared,
hence nonnegative and supported exactly in [-1, 1].  Because F0 is
band-limited, sums over a lattice of spacing <= 1/2 reproduce its integral
and transform exactly (aliases fall outside the support), which this module
uses for fast, certified evaluation of integrals and CDFs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy.special import sici

from .errors import CapacityError, DomainError
from .parallel import map_blocks
from .walk import log_phase

NODE_SPACING = 0.25
NODE_EXTENT = 200.0
SINC_FACTORS = 50     # sinc factors of the base object and of the Poisson window
WINDOW_EPS = 0.5      # the Poisson window's overhang beyond its plateau [-1, 0]


def _sinc_half_widths(k_factors: int) -> np.ndarray:
    raw = 1.0 / (np.arange(1, k_factors + 1) * np.log(np.arange(3, k_factors + 3)) ** 2)
    return 0.5 * raw / raw.sum()          # sum of widths is exactly 1/2


@dataclass(frozen=True)
class SmoothingFunction:
    """F0 = (prod_j sinc(2 a_j x))^2 with sum a_j = 1/2, plus lattice caches."""

    half_widths: np.ndarray
    nodes: np.ndarray          # lattice points
    node_values: np.ndarray    # F0 at the lattice
    l1_norm: float             # exact integral of F0

    def value(self, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.ones_like(x)
        for a in self.half_widths:
            out *= np.sinc(2.0 * a * x)
        return out * out

    def fhat(self, xi) -> np.ndarray:
        """Transform of F0 by the exact lattice cosine series (|xi| < 3)."""
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        out = np.empty_like(xi)
        pos = self.nodes > 0
        vals, nds = self.node_values[pos], self.nodes[pos]
        v0 = self.node_values[np.argmin(np.abs(self.nodes))]

        def block(lo: int) -> None:
            hi = lo + 512
            c = np.cos(2.0 * math.pi * np.outer(xi[lo:hi], nds))
            out[lo:hi] = NODE_SPACING * (v0 + 2.0 * c @ vals)

        map_blocks(block, range(0, len(xi), 512))   # fixed blocks: same bits on any pool
        return out

    def fhat_grid(self, start: float, step: float, count: int) -> np.ndarray:
        """`fhat` at `start + j step` for j < count, by one chirp-z transform.

        With c = pi h step, the phase 2 pi (start + j step) k h of the lattice
        series is 2 pi start k h + c (j^2 + k^2 - (j - k)^2), so the sum over
        the nodes is a convolution with the chirp e^{-i c n^2}: three FFTs
        (Bluestein, 1970).  c n^2 reaches ~3e5 rad, so c is split into a head
        whose product with every n^2 is exact and a small tail.
        """
        pos = self.nodes > 0
        vals = self.node_values[pos]                  # at k h for k = 1..n_nodes
        v0 = self.node_values[np.argmin(np.abs(self.nodes))]
        n_nodes = len(vals)
        size = 1 << (count + n_nodes - 1).bit_length()   # >= count + n_nodes: no wrap
        n = np.arange(max(count, n_nodes + 1))
        n_sq = (n * n).astype(float)
        c = math.pi * NODE_SPACING * step
        frac, exponent = math.frexp(c)
        head_bits = 52 - int(n_sq[-1]).bit_length()   # head bits + bits of n^2 <= 52
        c_hi = math.ldexp(math.floor(math.ldexp(frac, head_bits)), exponent - head_bits)
        chirp = np.exp(1j * (c_hi * n_sq)) * np.exp(1j * ((c - c_hi) * n_sq))   # e^{i c n^2}
        k = n[1:n_nodes + 1]
        x = np.zeros(size, dtype=complex)
        x[k] = vals * np.exp(2j * math.pi * start * NODE_SPACING * k) * chirp[k]
        b = np.zeros(size, dtype=complex)
        b[:count] = np.conj(chirp[:count])
        b[size - n_nodes:] = np.conj(chirp[n_nodes:0:-1])   # e^{-i c n^2} at n = -n_nodes..-1
        sums = chirp[:count] * np.fft.ifft(np.fft.fft(x) * np.fft.fft(b))[:count]
        return NODE_SPACING * (v0 + 2.0 * sums.real)

    def fhat_normalized_fast(self, xi) -> np.ndarray:
        """Spline shortcut for bulk evaluation (abs error ~ 1e-11)."""
        return self._fhat_spline(np.atleast_1d(np.asarray(xi, dtype=float)))

    @cached_property
    def _fhat_spline(self):
        from scipy.interpolate import CubicSpline
        grid = np.linspace(-1.02, 1.02, 20_401)
        return CubicSpline(grid, self.fhat(grid) / self.l1_norm)

    def cdf(self, x) -> np.ndarray:
        """Integral of F0/|F0|_1 up to x, via the sine-integral expansion."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.empty_like(x)
        scale = math.pi / NODE_SPACING

        def block(lo: int) -> None:
            hi = lo + 256
            args = scale * (x[lo:hi, None] - self.nodes[None, :])
            si = sici(args)[0]
            bracket = 0.5 + si / math.pi
            out[lo:hi] = NODE_SPACING * (bracket @ self.node_values)

        map_blocks(block, range(0, len(x), 256))   # fixed blocks: same bits on any pool
        return out / self.l1_norm

    def transform_tail_mass(self) -> float:
        """Numerical mass of the transform outside [-1, 1] (FFT route)."""
        return self._tail_mass

    @cached_property
    def _tail_mass(self) -> float:
        # every bump shares its base object, so the FFT runs once per base
        grid_extent, n_points = 4.0, 1 << 17
        dx = 2.0 * NODE_EXTENT / n_points
        xs = (np.arange(n_points) - n_points // 2) * dx
        vals = self.value(xs)
        spectrum = np.fft.fftshift(np.fft.fft(np.fft.ifftshift(vals))) * dx
        freqs = np.fft.fftshift(np.fft.fftfreq(n_points, d=dx))
        keep = np.abs(freqs) <= grid_extent
        outside = keep & (np.abs(freqs) > 1.0)
        dxi = freqs[1] - freqs[0]
        return float(np.sum(np.abs(spectrum[outside])) * dxi)


@lru_cache(maxsize=1)
def make_ingham() -> SmoothingFunction:
    """Nonnegative band-limited F0 with subexponential decay.

    F0 = b^2 for b a product of `SINC_FACTORS` sinc factors with half-widths
    summing to 1/2, so both F0 >= 0 and its transform (a box-convolution
    autocorrelation, supported on [-1, 1]) are nonnegative.
    """
    widths = _sinc_half_widths(SINC_FACTORS)
    nodes = np.arange(-NODE_EXTENT, NODE_EXTENT + NODE_SPACING / 2, NODE_SPACING)
    tmp = np.ones_like(nodes)
    for a in widths:
        tmp *= np.sinc(2.0 * a * nodes)
    vals = tmp * tmp
    l1 = float(NODE_SPACING * np.sum(vals, dtype=np.longdouble))
    return SmoothingFunction(half_widths=widths, nodes=nodes, node_values=vals, l1_norm=l1)


@dataclass(frozen=True)
class BandlimitedBump:
    """Smoothed indicator of [0, 1/delta] with transform in [-delta^{2a}, ...]."""

    delta: float
    a_param: float
    base: SmoothingFunction

    @property
    def spread(self) -> float:
        return self.delta ** (2.0 * self.a_param)

    @property
    def window(self) -> tuple[float, float]:
        return -self.delta ** -self.a_param, 1.0 / self.delta + self.delta ** -self.a_param

    @property
    def indicator_length(self) -> float:
        lo, hi = self.window
        return hi - lo

    def value(self, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        lo, hi = self.window
        upper = self.base.cdf(self.spread * (x - lo))
        lower = self.base.cdf(self.spread * (x - hi))
        return upper - lower

    def ghat(self, xi) -> np.ndarray:
        """Transform: F-hat scaled, times the window's sinc and center phase."""
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        return self._ghat(xi, self.base.fhat(xi / self.spread))

    def _ghat(self, xi: np.ndarray, fhat: np.ndarray) -> np.ndarray:
        """`ghat` at xi, given the base's `fhat` at xi / spread."""
        length = self.indicator_length
        phase = np.exp(-1j * math.pi * xi / self.delta)
        return fhat / self.base.l1_norm * length * np.sinc(length * xi) * phase

    def support_violation_mass(self) -> float:
        """Upper estimate of transform mass beyond +-delta^{2a} (exactly 0)."""
        return self.base.transform_tail_mass() / (math.pi * self.base.l1_norm)

    def l1_transform(self) -> float:
        """Integral of |ghat| by 12 midpoint samples per lobe of the window sinc.

        The samples, clipped at `spread`, form one uniform grid in xi, so the
        base's `fhat` at all unclipped ones is one `fhat_grid` transform.
        """
        oversample = 12
        length = self.indicator_length
        lobe = 1.0 / length
        n_lobes = int(math.ceil(self.spread / lobe))
        offsets = (np.arange(oversample) + 0.5) / oversample
        xi = np.minimum((np.arange(n_lobes)[:, None] + offsets[None, :]).ravel() * lobe,
                        self.spread)
        n_free = int(np.searchsorted(xi, self.spread))   # the first clipped sample
        step = lobe / oversample / self.spread
        fhat = np.empty_like(xi)
        fhat[:n_free] = self.base.fhat_grid(0.5 * step, step, n_free)
        fhat[n_free:] = self.base.fhat(1.0)   # xi / spread of a clipped sample
        vals = np.abs(self._ghat(xi, fhat))
        return 2.0 * float(np.sum(vals)) * lobe / oversample   # even integrand


def make_bump(delta: float, a_param: float) -> BandlimitedBump:
    if delta < 3 or a_param < 3:
        raise DomainError("need delta >= 3 and a >= 3")
    return BandlimitedBump(delta=float(delta), a_param=float(a_param),
                           base=make_ingham())


def _osc_cell_integrals(a: np.ndarray, b: np.ndarray, c: float) -> tuple[np.ndarray, ...]:
    """(I0, I1, I2) with I_k = int_a^b xi^k e^{i c xi} d xi, exact closed forms."""
    ic = 1j * c
    ea, eb = np.exp(ic * a), np.exp(ic * b)
    i0 = (eb - ea) / ic
    i1 = (b * eb - a * ea) / ic - i0 / ic
    i2 = (b * b * eb - a * a * ea) / ic - 2.0 * i1 / ic
    return i0, i1, i2


def _filon_piecewise(edges: np.ndarray, values: np.ndarray,
                     integrals: tuple[np.ndarray, ...]) -> complex:
    """int f(xi) e^{i c xi} with f quadratic per cell through (edge, mid, edge).

    `values` holds f at [a, mid, b] per cell, shape (n_cells, 3);
    `integrals` is `_osc_cell_integrals(edges[:-1], edges[1:], c)`.
    """
    a, b = edges[:-1], edges[1:]
    mid = 0.5 * (a + b)
    i0, i1, i2 = integrals
    fa, fm, fb = values[:, 0], values[:, 1], values[:, 2]
    # Lagrange quadratic coefficients on (a, mid, b)
    h = 0.5 * (b - a)
    c2 = (fa - 2.0 * fm + fb) / (2.0 * h * h)
    c1 = (fb - fa) / (2.0 * h) - 2.0 * c2 * mid
    c0 = fm - c1 * mid - c2 * mid * mid
    return complex(np.sum(c0 * i0 + c1 * i1 + c2 * i2))


@dataclass
class TruncatedExpansion:
    """Polynomial sum_l c_l x^l matching the bump's Taylor data at 0."""

    delta: float
    a_param: float
    coefficients: np.ndarray

    def value(self, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=complex))
        out = np.zeros_like(x)
        for c in self.coefficients[::-1]:
            out = out * x + c
        return out

def make_expansion(bump: BandlimitedBump, order: int) -> TruncatedExpansion:
    """Moment coefficients c_l = (2 pi i)^l / l! * int xi^l ghat(xi) d xi.

    The transform integral splits at the third sinc lobe: the head is smooth
    composite Gauss-Legendre (8 nodes, 64 panels per lobe); in the tail the
    window sinc is decomposed into two exponentials and integrated by Filon
    quadrature (quadratic slow part per lobe, oscillatory factor in closed
    form).  Coefficients combine in log scale; overflow raises a capacity
    error.
    """
    if order > 60:
        raise CapacityError("orders above 60 overflow double precision")
    spread = bump.spread
    length = bump.indicator_length
    head_lobes = 12
    xi0 = head_lobes / length
    # head: |xi| <= xi0, composite Gauss-Legendre in xi
    gl_x, gl_w = np.polynomial.legendre.leggauss(8)
    edges = np.linspace(-xi0, xi0, 128 * head_lobes // 2 + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    xi_nodes = (mid[:, None] + half[:, None] * gl_x[None, :]).ravel()
    w_nodes = (half[:, None] * gl_w[None, :]).ravel()
    ghead = bump.ghat(xi_nodes)

    # tail lobes in u = xi / spread: sinc zeroes sit at multiples of
    # 1/(length*spread); subdivide where 1/u or u^order bends within a lobe
    m_hi = int(math.floor(spread * length))
    lobe_edges = np.arange(head_lobes, m_hi + 1) / (length * spread)
    if lobe_edges.size == 0 or lobe_edges[-1] < 1.0:
        lobe_edges = np.append(lobe_edges, 1.0)
    refined = [np.array([lobe_edges[0]])]
    for a_e, b_e in zip(lobe_edges[:-1], lobe_edges[1:]):
        h = b_e - a_e
        n_sub = int(math.ceil(max(h / (0.02 * a_e), order * h / (0.1 * a_e), 1.0)))
        n_sub = min(n_sub, 24)
        refined.append(np.linspace(a_e, b_e, n_sub + 1)[1:])
    u_edges = np.concatenate(refined)
    freqs = (math.pi * length - math.pi / bump.delta,
             -math.pi * length - math.pi / bump.delta)

    def cells_for(u_e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        a_e, b_e = u_e[:-1], u_e[1:]
        pts = np.stack([a_e, 0.5 * (a_e + b_e), b_e], axis=1)
        slow = bump.base.fhat_normalized_fast(pts.ravel()).reshape(pts.shape) / (2.0j * math.pi)
        return pts, slow

    sides = [cells_for(u_edges), cells_for(-u_edges[::-1])]
    powers = [1.0 / s[0] for s in sides]   # u^{ell-1} at the nodes, ell = 0 here
    # cell edges and their oscillatory integrals do not depend on ell
    edge_vecs = [np.append(pts[:, 0], pts[-1, 2]) for pts, _ in sides]
    integrals = [[_osc_cell_integrals(e[:-1], e[1:], f * spread) for f in freqs]
                 for e in edge_vecs]
    log_spread = math.log(spread)
    out = np.zeros(order + 1, dtype=complex)
    for ell in range(order + 1):
        head = complex(np.sum(w_nodes * xi_nodes ** ell * ghead))
        tail = 0.0 + 0.0j
        for (_, slow), upow, edge_vec, (fwd, bwd) in zip(sides, powers, edge_vecs, integrals):
            vals = slow * upow
            tail += _filon_piecewise(edge_vec, vals, fwd)
            tail -= _filon_piecewise(edge_vec, vals, bwd)
        log_pref = ell * math.log(2.0 * math.pi) - math.lgamma(ell + 1)
        value = (1j ** ell) * (_exp_or_raise(log_pref) * head
                               + _exp_or_raise(log_pref + ell * log_spread) * tail)
        if not np.isfinite(value):
            raise CapacityError(f"coefficient {ell} overflows double precision")
        out[ell] = value
        powers = [pw * s[0] for pw, s in zip(powers, sides)]
    return TruncatedExpansion(delta=bump.delta, a_param=bump.a_param, coefficients=out)


def _exp_or_raise(log_value: float) -> float:
    if log_value > 705.0:
        raise CapacityError("coefficient scale overflows double precision")
    return math.exp(log_value)


@dataclass
class SandwichReport:
    n_in_bin: int
    fraction_hold_bump: float
    fraction_hold_poly: float
    measured_c_bump: float


def _measure_sandwich_constant(values: np.ndarray, decay: float) -> float:
    """Smallest C with 1 <= values * (1 + C * decay) on all inputs."""
    needed = (1.0 / np.clip(values, 1e-300, None) - 1.0) / decay
    return float(max(np.max(needed), 0.0))


def indicator_sandwich_check(bump: BandlimitedBump, expansion: TruncatedExpansion,
                             samples: np.ndarray, u: float) -> SandwichReport:
    """Check 1(Y in [u, u + 1/delta]) <= |D(Y - u)|^2 (1 + C e^{-delta^{a-1}}).

    C is measured on a deterministic 4001-point grid over the bin, then the
    inequality is verified on the supplied samples (and for the bump itself in
    place of |D|^2).  Points outside the bin satisfy the inequality trivially.
    """
    decay = math.exp(-bump.delta ** (bump.a_param - 1.0))
    grid = np.linspace(0.0, 1.0 / bump.delta, 4001)
    c_bump = _measure_sandwich_constant(bump.value(grid) ** 2, decay)
    c_poly = _measure_sandwich_constant(np.abs(expansion.value(grid)) ** 2, decay)
    x = samples - u
    in_bin = (x >= 0.0) & (x <= 1.0 / bump.delta)
    n_in = int(np.sum(in_bin))
    if n_in == 0:
        return SandwichReport(0, 1.0, 1.0, c_bump)
    xb = x[in_bin]
    hold_bump = bump.value(xb) ** 2 * (1.0 + c_bump * decay) >= 1.0 - 1e-12
    hold_poly = np.abs(expansion.value(xb)) ** 2 * (1.0 + c_poly * decay) >= 1.0 - 1e-12
    return SandwichReport(
        n_in_bin=n_in,
        fraction_hold_bump=float(np.mean(hold_bump)),
        fraction_hold_poly=float(np.mean(hold_poly)),
        measured_c_bump=c_bump,
    )


# --- Poisson-summation reconstruction of band-limited Dirichlet samples ---

# half-widths of the box cascade that mollifies the Poisson window
_WINDOW_HALF_WIDTHS = _sinc_half_widths(SINC_FACTORS) * (WINDOW_EPS / 2.0)


def _window_vhat(xi: np.ndarray) -> np.ndarray:
    """Transform of the smooth window with plateau 1 on [-1, 0] and support
    inside [-1 - WINDOW_EPS, WINDOW_EPS]."""
    width = 1.0 + WINDOW_EPS
    out = width * np.sinc(width * xi) * np.exp(1j * math.pi * xi)
    for a in _WINDOW_HALF_WIDTHS:
        out = out * np.sinc(2.0 * a * xi)
    return out


def dirichlet_value(coeffs: np.ndarray, t: float, h) -> np.ndarray:
    """D(1/2 + i(t+h)) = sum a_n n^{-1/2 - i(t+h)} for one or many shifts h.

    The large t-part of the phase is reduced mod 2 pi in extended precision
    so shifts evaluated at different lattice points stay coherent.
    """
    h = np.atleast_1d(np.asarray(h, dtype=float))
    ns = np.arange(1, len(coeffs) + 1, dtype=float)
    logs, base = log_phase(len(coeffs), t)
    amp = (coeffs / np.sqrt(ns)) * np.exp(-1j * base)
    phases = np.exp(-1j * np.outer(h, logs))
    return phases @ amp


def poisson_reconstruct(coeffs: np.ndarray, t: float, h0: float) -> complex:
    """Reconstruct D(1/2 + i t + i h0) from the lattice 2 pi Z / ((2+eps) log N),
    with eps = WINDOW_EPS.

    Exact for Dirichlet polynomials of length N up to window truncation at
    |vhat| < 1e-14; the contract is 1e-9 relative accuracy.
    """
    eps = WINDOW_EPS
    n_len = len(coeffs)
    if n_len < 2:
        return complex(coeffs[0]) if n_len else 0.0j
    log_n = math.log(n_len)
    delta = 2.0 * math.pi / ((2.0 + eps) * log_n)
    j_center = h0 / delta
    j_reach = int(math.ceil(600.0 * (2.0 + eps)))
    js = np.arange(math.floor(j_center) - j_reach, math.ceil(j_center) + j_reach + 1)
    hs = js * delta
    args = (hs - h0) * log_n / (2.0 * math.pi)
    weights = _window_vhat(args)
    keep = np.abs(weights) >= 1e-14
    vals = dirichlet_value(np.asarray(coeffs, dtype=complex), t, hs[keep])
    return complex(np.sum(vals * weights[keep]) / (2.0 + eps))


@dataclass
class GridMaxReport:
    ratio: float          # fine-grid max over the weighted lattice sum
    tail_fraction: float


def discretized_max_bound(coeff_list: list[np.ndarray], t: float) -> GridMaxReport:
    """Max of sum |D_i|^2 on a fine grid over [-2, 2) against the weighted lattice sum.

    Lattice step is 2 pi / (8 log N), the fine step an eighth of it; beyond
    16 log N lattice points the contribution carries the weight (1 + |j|^100)^{-1}.
    """
    n_len = max(len(c) for c in coeff_list)
    log_n = math.log(n_len)
    step = 2.0 * math.pi / (8.0 * log_n)
    fine = np.arange(-2.0, 2.0, step / 8)
    fine_vals = np.zeros(len(fine))
    for c in coeff_list:
        fine_vals += np.abs(dirichlet_value(np.asarray(c, dtype=complex), t, fine)) ** 2
    j_main = int(math.ceil(16.0 * log_n))
    j_tail = 2 * j_main
    js = np.arange(-j_tail, j_tail + 1)
    hs = js * step
    lattice_vals = np.zeros(len(js))
    for c in coeff_list:
        lattice_vals += np.abs(dirichlet_value(np.asarray(c, dtype=complex), t, hs)) ** 2
    main_mask = np.abs(js) <= j_main
    with np.errstate(over="ignore"):
        tail_weights = 1.0 / (1.0 + np.abs(js[~main_mask], dtype=float) ** 100.0)
    main = float(np.sum(lattice_vals[main_mask]))
    tail = float(np.sum(lattice_vals[~main_mask] * tail_weights))
    total = main + tail
    return GridMaxReport(ratio=float(fine_vals.max() / total),
                         tail_fraction=tail / total if total else 0.0)
