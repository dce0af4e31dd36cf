import functools
import json
import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import zetalab
from zetalab import parallel, walk, zeta
from zetalab.errors import CapacityError, DomainError
from zetalab.zeta import (MAX_T, RS_SWITCH, max_on_grid, moment_estimate, relative_gap,
                          zeta_critical, zeta_euler_maclaurin, zeta_on_grid,
                          zeta_riemann_siegel)

FIRST_ZERO = 14.134725141734695

# float.hex of (re, im), pinned so that any change to the evaluators'
# arithmetic shows; the heights span both ends of the Riemann-Siegel range
RS_HEX = {
    60.5: ("0x1.b18014ea3cc3cp-2", "-0x1.2592eeb55ea68p-4"),
    1e4 + 0.25: ("0x1.6794bbb38f946p-2", "-0x1.7bc51628263dap-2"),
    1.5e7: ("0x1.84edd4ec91cb2p+0", "-0x1.155b779e3edf0p-4"),
    1.5e8: ("-0x1.ee26656ef842ep-1", "0x1.3f969663cc2b4p-1"),
    9.9e11: ("0x1.ba778db85feb2p-2", "-0x1.2962e2f5fa7b4p-4"),
}
EM_HEX = {
    0.5 + 37.5j: ("-0x1.28757c953af3bp-5", "-0x1.505869428593dp-3"),
    0.5 - 37.5j: ("-0x1.28757c953af3bp-5", "0x1.505869428593dp-3"),
    2.0: ("0x1.a51a6625307d4p+0", "0x0.0p+0"),
}


def _hex(z) -> tuple[str, str]:
    z = complex(z)
    return z.real.hex(), z.imag.hex()


def test_euler_maclaurin_known_values():
    assert abs(zeta_euler_maclaurin(2.0 + 0j) - math.pi ** 2 / 6) < 1e-14
    assert zeta_euler_maclaurin(0.5 + 0j).real == pytest.approx(-1.4603545088, abs=1e-9)
    assert abs(zeta_euler_maclaurin(0.5 + 1j * FIRST_ZERO)) < 1e-12


def test_first_zero_truncated_ordinate():
    # the truncated ordinate sits 3.5e-11 from the zero
    assert abs(zeta_critical(14.1347251417)) <= 1e-4


def test_conjugation_symmetry():
    v = zeta_euler_maclaurin(0.5 + 37.5j)
    w = zeta_euler_maclaurin(0.5 - 37.5j)
    assert v == pytest.approx(np.conj(w), abs=1e-12)


def test_golden_bits():
    assert {t: _hex(zeta_riemann_siegel(t)) for t in RS_HEX} == RS_HEX
    assert {s: _hex(zeta_euler_maclaurin(s)) for s in EM_HEX} == EM_HEX
    step = 2.0 * math.pi / (8.0 * math.log(1e8))      # tail_zeta's grid at big_t = 1e8
    h, m = max_on_grid(1.5e8, np.arange(-1.0, 1.0 + step / 2, step))
    assert (h.hex(), m.hex()) == ("0x1.1dcd21f9f2f98p-2", "0x1.3869ef8914c3ep+3")


@pytest.mark.parametrize("descending", [False, True])
def test_log_table_growth_order_keeps_bits(descending):
    # a fresh interpreter builds the multiplicative chunks from empty:
    # ascending heights add them a few at a time, descending ones build all 49
    # at the first call
    src = os.path.dirname(os.path.dirname(zetalab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    heights = sorted(RS_HEX, reverse=descending)
    code = ("import json, sys; from zetalab.zeta import zeta_riemann_siegel as rs; "
            "print(json.dumps([[(z := rs(t)).real.hex(), z.imag.hex()] "
            "for t in json.loads(sys.argv[1])]))")
    out = subprocess.run([sys.executable, "-c", code, json.dumps(heights)], env=env,
                         check=True, capture_output=True, text=True, timeout=120)
    assert [tuple(v) for v in json.loads(out.stdout)] == [RS_HEX[t] for t in heights]


@pytest.mark.parametrize("workers", [1, 8])
def test_log_table_shared_by_threads(monkeypatch, workers):
    # pool items race to fill the emptied multiplicative chunks and the unit
    # circle, half upward and half downward, with frequent thread switches
    heights = sorted(RS_HEX) + [1e3 + 0.5, 2e5 + 0.75]
    items = [sorted(heights, reverse=bool(i % 2)) for i in range(8)]

    def values(ts):
        return [_hex(zeta_critical(t)) for t in ts] + [_hex(zeta_euler_maclaurin(0.5 + 1j * t))
                                                      for t in ts if t < 1e4]

    serial = [values(ts) for ts in items]
    interval = sys.getswitchinterval()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        monkeypatch.setattr(parallel, "_pool", pool)
        walk._chunk.cache_clear()
        walk._circle.cache_clear()
        sys.setswitchinterval(1e-6)
        try:
            assert parallel.map_blocks(values, items) == serial
        finally:
            sys.setswitchinterval(interval)


def _omega(n: int) -> np.ndarray:
    """Omega(k), the prime factors of k with multiplicity, for k <= n."""
    omega, rest = np.zeros(n + 1, dtype=int), np.arange(n + 1)
    for p in range(2, math.isqrt(n) + 1):
        if omega[p] == 0:
            q = p
            while q <= n:
                omega[q::q] += 1
                rest[q::q] //= p
                q *= p
    return omega + (rest > 1)


@pytest.mark.parametrize("t, n", [(37.5, 34), (1.5e8, 4886), (9.9e11, 396_942)])
def test_int_powers_within_2e15_of_mpmath(t, n):
    # the int path builds composites from the primes, the array path logs each
    # integer: different methods, so each is held to an oracle.  Per term, a
    # bound stated before any run: 2e-15 n^{-sigma} against 40-digit mpmath,
    # sampled over primes, prime powers and the largest Omega
    mpmath = pytest.importorskip("mpmath")
    omega = _omega(n)
    ks = np.arange(n + 1)
    primes = ks[omega == 1]
    powers_of_primes = [p ** e for p in primes[:12].tolist() for e in range(2, 19) if p ** e <= n]
    sample = set(primes[:200].tolist()) | set(primes[-100:].tolist()) | set(powers_of_primes)
    sample |= set(ks[omega >= omega.max() - 1].tolist()[:200])
    s = 0.5 + 1j * t
    got = walk.powers(n, s)
    with mpmath.workdps(40):
        worst = max(abs(mpmath.mpc(got[k - 1].real, got[k - 1].imag)
                        - mpmath.exp(-mpmath.mpc(0.5, t) * mpmath.log(k))) * mpmath.sqrt(k)
                    for k in sorted(sample))
    assert worst <= 2e-15
    assert np.array_equal(walk.powers(n, np.array([s, s + 1j])), np.array([got, walk.powers(n, s + 1j)]))


def test_domain_guards():
    with pytest.raises(DomainError):
        zeta_critical(0.0)
    with pytest.raises(DomainError):
        zeta_critical(math.nan)
    with pytest.raises(DomainError):
        zeta_critical(-3.0)
    with pytest.raises(CapacityError):
        zeta_critical(2e12)
    with pytest.raises(DomainError):
        zeta_euler_maclaurin(1.0 + 0j)


@pytest.mark.parametrize("t, error", [(math.nan, DomainError), (-math.inf, DomainError),
                                      (0.0, DomainError), (6.28, DomainError),
                                      (MAX_T * 2, CapacityError), (math.inf, CapacityError)])
def test_rs_input_contract(t, error):
    # zeta_critical's errors, and below 2 pi the main sum is empty
    with pytest.raises(error):
        zeta_riemann_siegel(t)


def test_rs_range_ends():
    assert np.isfinite(zeta_riemann_siegel(2.0 * math.pi))
    assert zeta_riemann_siegel(MAX_T) == zeta_critical(MAX_T)


def test_rs_vs_em_agreement(rng):
    worst = 0.0
    for t in rng.uniform(50, 1e4, size=60):
        gap = relative_gap(zeta_riemann_siegel(float(t)),
                           zeta_euler_maclaurin(0.5 + 1j * float(t)))
        worst = max(worst, gap)
    assert worst <= 1e-12


# (band, README's bound on the Riemann-Siegel vs Euler-Maclaurin gap there,
# the height where a dense grid found the band's worst gap while each t log n
# was reduced in the extended type), and the heights of the worst gaps on the
# same grids with the multiplicative main sums
RS_EM_BANDS = ((50.0, 60.0, 5e-14, 56.8535), (60.0, 1e3, 5e-14, 156.6), (1e3, 1e4, 1e-13, 9608.0))
RS_EM_WORST = (56.8115, 905.95, 8105.0)


@pytest.mark.parametrize("lo, hi, bound, worst_t", RS_EM_BANDS)
def test_rs_vs_em_band_bounds(rng, lo, hi, bound, worst_t):
    ts = np.concatenate([rng.uniform(lo, hi, size=150), [worst_t],
                         [t for t in RS_EM_WORST if lo <= t < hi]])
    worst = max(relative_gap(zeta_riemann_siegel(float(t)),
                             zeta_euler_maclaurin(0.5 + 1j * float(t))) for t in ts)
    assert worst <= bound


def test_rs_vs_em_dense_above_switch():
    # every point of a dense grid just above the switch, where the correction
    # is deepest and reads the highest contour derivatives
    ts = RS_SWITCH + 0.005 * np.arange(2800)
    assert ts[-1] < 64.0
    assert max(relative_gap(zeta_riemann_siegel(float(t)), zeta_euler_maclaurin(0.5 + 1j * float(t)))
               for t in ts) <= 5e-14


def test_rs_hard_points():
    # method-switch boundary and near-integer sqrt(t/2pi)
    for t in (50.0, 50.5, 2 * math.pi * 4 * 4 + 1e-9, 2 * math.pi * 25 - 1e-9, 9999.5):
        gap = relative_gap(zeta_riemann_siegel(t), zeta_euler_maclaurin(0.5 + 1j * t))
        assert gap <= 1e-12


# The scalar Riemann-Siegel correction as it was written before the array
# kernel, kept verbatim as its oracle: one height at a time in Python's
# complex arithmetic, the shift by a matrix product


@functools.cache
def _ref_rs_terms(levels: int) -> list:
    """Per level n, the terms (d[n][l], 3n - 2l, pi^{2n-l} (2i)^l) of the
    correction d[n][l] F^(3n-2l)(p) / (pi^{2n-l} (2i)^l)."""
    d = zeta._rs_d_table(levels)
    return [[(d[n][ell], 3 * n - 2 * ell, math.pi ** (2 * n - ell) * (2j) ** ell)
             for ell in range(3 * n // 2 + 1)]
            for n in range(levels)]


def _ref_rs_shift(derivs: np.ndarray, delta: float, count: int) -> list[complex]:
    """F^(m)(p + delta) for m < count from F^(m)(p) in contiguous `derivs`: the
    Taylor shift sum_s F^(m+s)(p) delta^s / s!, which needs count |delta| <= 1
    (its s-th term is then below 2^-s of the first) and stops at 2^-53."""
    weights, bound = [1.0], 1.0
    while True:
        s = len(weights)
        bound *= (count - 1 + s) / s * abs(delta) / zeta._RS_RADIUS
        if bound < 2.0 ** -53:
            break
        weights.append(weights[-1] * (delta / s))
    # row s of this view is derivs[s:s + count], without a copy
    rows = np.ndarray((len(weights), count), derivs.dtype, derivs, strides=(derivs.itemsize,) * 2)
    return (np.array(weights) @ rows).tolist()


def _ref_rs_depth(a: float) -> int:
    """Correction levels, at most _RS_MAX_LEVELS: minimize the term-size envelope (to 1e-12)."""
    best_l, best = 2, math.inf
    for level in range(2, zeta._RS_MAX_LEVELS + 1):
        bound = 2.03 * math.gamma(0.5 * level) * (2.0 * a) ** (-level)
        if bound < best:
            best_l, best = level, bound
        if bound < 1e-12 or bound > 10 * best:
            break
    return best_l


def _ref_rs_remainder(a: float, p: float) -> complex:
    """The correction series sum_n a^{-n} sum_l d[n][l] F^(3n-2l)(p) /
    (pi^{2n-l} (2i)^l) at a = sqrt(t / 2 pi) and p = 1 - 2 frac(a), with F's
    derivatives shifted from the nearest lattice node: |delta| <= 1/512 meets
    _rs_shift's condition at every depth up to _RS_MAX_LEVELS."""
    levels = _ref_rs_depth(a)
    k = round(p * zeta._RS_LATTICE)
    fp = _ref_rs_shift(zeta._rs_node(k), p - k / zeta._RS_LATTICE, 3 * (levels - 1) + 1)
    rssum = 0.0 + 0.0j
    a_pow = 1.0
    for terms in _ref_rs_terms(levels):
        acc = 0.0 + 0.0j
        for coef, m, den in terms:
            acc += coef * fp[m] / den
        rssum += acc * a_pow
        a_pow /= a
    return rssum


def _ref_rs_values(ts, n_main, s1) -> np.ndarray:
    a = np.sqrt(ts / zeta.TWO_PI)
    arg_main, arg_corr = walk.theta_mod_2pi(ts)
    u = np.exp(-1j * arg_main)
    values = []
    for aj, nj, uj, ej, sj in zip(*(np.atleast_1d(x).tolist() for x in (
            a, np.broadcast_to(n_main, np.shape(ts)), u, np.exp(-2j * arg_corr), s1))):
        s3 = (1.0 if nj % 2 else -1.0) * uj / math.sqrt(aj)
        r_val = sj + s3 * _ref_rs_remainder(aj, 1.0 - 2.0 * (aj - nj))
        values.append(r_val + uj * uj * ej * r_val.conjugate())
    return np.array(values)


def _bits(z: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(z, dtype=complex).view(np.uint64)


def _depth_edges() -> np.ndarray:
    """Every a in [1, 4e5] where the scalar depth changes, to the last bit,
    with the three floats on either side."""
    grid = np.exp(np.linspace(0.0, math.log(4e5), 4001)).tolist()
    depth = [_ref_rs_depth(a) for a in grid]
    edges = []
    for lo, hi, d_lo in zip(grid, grid[1:], depth):
        if _ref_rs_depth(hi) == d_lo:
            continue
        # positive floats order as their bits
        lo_bits, hi_bits = (int(np.float64(x).view(np.int64)) for x in (lo, hi))
        while hi_bits - lo_bits > 1:
            mid = (lo_bits + hi_bits) // 2
            if _ref_rs_depth(float(np.int64(mid).view(np.float64))) == d_lo:
                lo_bits = mid
            else:
                hi_bits = mid
        edges += [float(np.int64(hi_bits + j).view(np.float64)) for j in range(-3, 4)]
    return np.array(edges)


# random heights per band of the oracle test: the deepest corrections near
# t = 50, the switch to shallower ones, and the benchmark's and the
# range's heights
RS_KERNEL_BANDS = ((50.0, 200.0), (200.0, 1e4), (1e6, 2e6), (1e7, 2e7), (1e8, 2e8), (1e11, 1e12))


@pytest.mark.parametrize("lo, hi", RS_KERNEL_BANDS, ids=[f"{lo:g}" for lo, _ in RS_KERNEL_BANDS])
def test_rs_kernel_keeps_the_scalar_bits(rng, lo, hi):
    ts = rng.uniform(lo, hi, size=4000)
    a = np.sqrt(ts / zeta.TWO_PI)
    n_main = np.floor(a).astype(int)
    p = 1.0 - 2.0 * (a - n_main)
    assert zeta._rs_depth(a).tolist() == [_ref_rs_depth(x) for x in a.tolist()]
    ref = np.array([_ref_rs_remainder(x, y) for x, y in zip(a.tolist(), p.tolist())])
    assert np.array_equal(_bits(zeta._rs_remainder(a, p)), _bits(ref))
    s1 = rng.normal(size=200) + 1j * rng.normal(size=200)
    assert np.array_equal(_bits(zeta._rs_values(ts[:200], n_main[:200], s1)),
                          _bits(_ref_rs_values(ts[:200], n_main[:200], s1)))


def test_rs_kernel_at_depth_edges_and_lattice_nodes(rng):
    # the depth rule's edges, where an ulp of numpy's pow against Python's
    # would change a height's depth; p exactly on a lattice node (delta = 0)
    # at both parities of N = floor(a); and a block of one against a block
    # of many
    a = _depth_edges()
    assert set(_ref_rs_depth(x) for x in a.tolist()) == set(range(3, 21))
    assert zeta._rs_depth(a).tolist() == [_ref_rs_depth(x) for x in a.tolist()]
    p = rng.uniform(-1.0, 1.0, size=len(a))
    big_n = np.arange(2, 40)
    node_a = (big_n[:, None] + np.arange(0, 512, 37) / 512.0).ravel()   # a - N = j / 512
    node_p = 1.0 - 2.0 * (node_a - np.floor(node_a))
    assert np.array_equal(node_p * zeta._RS_LATTICE, np.rint(node_p * zeta._RS_LATTICE))
    a, p = np.concatenate([a, node_a]), np.concatenate([p, node_p])
    ref = np.array([_ref_rs_remainder(x, y) for x, y in zip(a.tolist(), p.tolist())])
    many = zeta._rs_remainder(a, p)
    assert np.array_equal(_bits(many), _bits(ref))
    alone = [zeta._rs_remainder(a[j:j + 1], p[j:j + 1])[0] for j in range(0, len(a), 7)]
    assert np.array_equal(_bits(alone), _bits(many[::7]))
    ts = zeta.TWO_PI * node_a ** 2
    n_main = np.floor(np.sqrt(ts / zeta.TWO_PI)).astype(int)
    assert {0, 1} <= set((n_main % 2).tolist())
    s1 = rng.normal(size=len(ts)) + 1j * rng.normal(size=len(ts))
    assert np.array_equal(_bits(zeta._rs_values(ts, n_main, s1)), _bits(_ref_rs_values(ts, n_main, s1)))


# zeta_critical against mpmath (30 digits), per decade of t: fixed heights and
# the bound on their relative gap, 5x the worst gap seen over 362
# log-uniform heights in the decade (164 in the last), rounded up.  Above
# t = 1e4 the gap grows about tenfold per decade, with the rounding of theta
# in the extended type (ROADMAP item 1).  The bounds may be tightened, never
# loosened.
MPMATH_DECADES = (
    ((25.25, 50.1, 80.75), 2e-14),
    ((250.25, 800.75), 4e-14),
    ((2500.25, 8000.75), 6e-14),
    ((25000.25, 80000.75), 2e-12),
    ((2.5e5 + 0.25, 8e5 + 0.75), 2e-11),
    ((2.5e6 + 0.25, 8e6 + 0.75), 2e-10),
    ((2.5e7 + 0.25, 8e7 + 0.75), 2e-9),
    ((2.5e8 + 0.25, 8e8 + 0.75), 3e-8),
    ((2.5e9 + 0.25, 8e9 + 0.75), 4e-7),
    ((2.5e10 + 0.25, 8e10 + 0.75), 2e-6),
    ((9.9e11, 1e12), 2e-5),   # 1e12 is MAX_T
)


@pytest.mark.parametrize("heights, bound", MPMATH_DECADES,
                         ids=[f"1e{d}" for d in range(1, 12)])
def test_zeta_critical_vs_mpmath(heights, bound):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        gaps = [relative_gap(zeta_critical(t), complex(mpmath.zeta(mpmath.mpc(0.5, t))))
                for t in heights]
    assert max(gaps) <= bound


def test_max_on_grid_basics():
    h, m = max_on_grid(100.0, np.array([0.25]))
    assert h == 0.25 and relative_gap(m, abs(zeta_critical(100.25))) <= 1e-12
    with pytest.raises(DomainError):
        max_on_grid(100.0, np.array([]))
    with pytest.raises(DomainError):
        max_on_grid(100.0, np.array([2.5]))
    with pytest.raises(DomainError):
        max_on_grid(1e5, np.array([math.nan]))


def _tail_grid(big_t: float) -> np.ndarray:
    step = 2.0 * math.pi / (8.0 * math.log(big_t))
    return np.arange(-1.0, 1.0 + step / 2, step)


# (lowest and highest tau, number of taus, bound on the relative gap of the
# one-pass grid to per-point zeta_critical): both take every main-sum term
# from the int path of powers, the grid from one reduction at tau, and the
# bounds are about 10 times the worst gaps seen on tail_zeta's grids, at
# step heights too (README)
GRID_BANDS = ((60.0, 1e5, 8, 1e-13), (1e7, 2e7, 2, 2e-13), (1e8, 2e8, 2, 5e-13),
              (1e10, 2e10, 1, 1e-12))


@pytest.mark.parametrize("lo, hi, n_taus, bound", GRID_BANDS, ids=["1e5", "1e7", "1e8", "1e10"])
def test_grid_matches_zeta_critical(rng, lo, hi, n_taus, bound):
    grid = _tail_grid(lo)
    worst = 0.0
    for tau in np.exp(rng.uniform(math.log(lo), math.log(hi), size=n_taus)):
        values = zeta_on_grid(float(tau), grid)
        worst = max(worst, max(relative_gap(v, zeta_critical(float(tau) + h))
                               for h, v in zip(grid, values)))
    assert worst <= bound


@pytest.mark.parametrize("heights, bound", MPMATH_DECADES,
                         ids=[f"1e{d}" for d in range(1, 12)])
def test_grid_vs_mpmath(heights, bound):
    mpmath = pytest.importorskip("mpmath")
    grid = np.array([-0.75, -0.25])
    with mpmath.workdps(30):
        gaps = [relative_gap(v, complex(mpmath.zeta(mpmath.mpc(0.5, t + h))))
                for t in heights for h, v in zip(grid, zeta_on_grid(t, grid))]
    assert max(gaps) <= bound


@pytest.mark.parametrize("tau", [57.0, 1e3 + 0.5, 1.5e8, 9.9e11])
def test_grid_point_depends_only_on_its_shift(tau):
    grid = _tail_grid(max(tau, 1e3))
    values = zeta_on_grid(tau, grid)
    supergrid = np.concatenate([np.linspace(-2.0, 2.0, 61), grid[::-1]])
    assert np.array_equal(zeta_on_grid(tau, supergrid)[61:], values[::-1])
    for i in (0, len(grid) // 2, len(grid) - 1):
        assert zeta_on_grid(tau, grid[i:i + 1])[0] == values[i]


@pytest.mark.parametrize("n", [40, 4886, 48860], ids=["1e4", "1e8", "1e10"])
def test_grid_where_n_changes(n):
    # sqrt(t / 2 pi) passes n at t = 2 pi n^2, inside the grid, so the points
    # above it add the term n to the series' n <= n - 1; held to the band's bound
    tau = 2.0 * math.pi * n * n + 0.3
    grid = np.linspace(-1.0, 1.0, 41)
    ns = np.floor(np.sqrt((tau + grid) / (2.0 * math.pi)))
    assert set(ns) == {n - 1.0, float(n)}
    bound = next(b for lo, hi, _, b in GRID_BANDS if lo <= tau <= hi)
    values = zeta_on_grid(tau, grid)
    assert max(relative_gap(v, zeta_critical(tau + h)) for h, v in zip(grid, values)) <= bound


def test_grid_straddling_rs_switch():
    tau = RS_SWITCH + 0.5
    grid = np.linspace(-2.0, 2.0, 41)
    values = zeta_on_grid(tau, grid)
    below = tau + grid < RS_SWITCH
    assert 0 < below.sum() < len(grid)
    for h, v, em in zip(grid, values, below):
        if em:   # Euler-Maclaurin, one point at a time, as zeta_critical
            assert v == zeta_critical(tau + h)
        else:
            assert relative_gap(v, zeta_critical(tau + h)) <= 1e-12


def test_grid_domain_guards():
    with pytest.raises(DomainError):
        max_on_grid(0.5, np.array([0.25, -1.0]))
    with pytest.raises(DomainError):
        zeta_on_grid(-1.0, np.array([1.0]))
    with pytest.raises(CapacityError):
        max_on_grid(MAX_T, np.array([-0.5, 0.5]))
    with pytest.raises(CapacityError):
        zeta_on_grid(MAX_T - 1.0, np.array([1.5]))
    assert np.isfinite(zeta_on_grid(MAX_T - 2.0, np.array([0.0, 2.0]))).all()


def test_max_on_grid_zero_ordinate():
    _, m = max_on_grid(FIRST_ZERO, np.array([0.0]))
    assert m < 1e-10


def test_max_refinement_monotone(rng):
    t = 812.3
    coarse = np.linspace(-1, 1, 21)
    fine = np.linspace(-1, 1, 81)   # supergrid contains shifts beyond coarse
    _, m_coarse = max_on_grid(t, coarse)
    _, m_fine = max_on_grid(t, np.concatenate([coarse, fine]))
    assert m_fine >= m_coarse


def test_moment_estimate_degenerate(rng):
    est = moment_estimate(1e5, 2, 1, rng)
    assert math.isnan(est.ci_lo) and math.isnan(est.ci_hi) and math.isnan(est.stderr)


def test_moment_estimate_second(rng):
    est = moment_estimate(1e6, 2, 300, rng)
    ratio = est.mean / math.log(1e6)
    assert 0.5 <= ratio <= 1.6
    assert est.ci_lo <= est.mean <= est.ci_hi
    # the bootstrap interval spans about four standard errors
    assert 2.0 <= (est.ci_hi - est.ci_lo) / est.stderr <= 6.0


def test_blocked_heights_keep_their_bits_alone():
    # moment_estimate's evaluator groups heights by main-sum length N and
    # splits a group into blocks of at most 65,536 terms; each value has the
    # bits of one zeta_riemann_siegel call.  Heights on both sides of the N
    # boundaries t = 2 pi N^2, in chunk 0 and reading chunks 0 and 1 (N above
    # 8,192, 7 heights per block, so 20 heights make three blocks), and two
    # with N above 65,536, one height per block
    ts = []
    for big_n in (1545, 1546, 8193, 8919):
        edge = 2.0 * math.pi * big_n ** 2
        ts += [edge - 0.25, math.nextafter(edge, 0.0), edge, edge + 0.25]
    ts += (2.0 * math.pi * 8919 ** 2 + np.linspace(1.0, 30.0, 20)).tolist()
    ts += [2.0 * math.pi * 70_000 ** 2 + 0.5, 2.0 * math.pi * 70_000 ** 2 + 1.5]
    ts = np.array(ts)
    ns = np.floor(np.sqrt(ts / (2.0 * math.pi)))
    assert {1544, 1545, 8192, 8193, 8918, 8919} <= set(ns.tolist())
    assert np.sum(ns == 8919) > 2 * (zeta._BLOCK_TERMS // 8919)
    blocked = zeta._rs_heights(ts[::-1])[::-1]
    assert [_hex(v) for v in blocked] == [_hex(zeta_riemann_siegel(t)) for t in ts]


def test_moment_estimate_memory_is_one_block_deep():
    # 12,000 draws at T = 1e7, as moments_zeta; the tables are built first
    # so that only the estimate's own arrays and blocks are traced
    tracemalloc = pytest.importorskip("tracemalloc")
    moment_estimate(1e7, 2, 2, np.random.default_rng(3))
    tracemalloc.start()
    try:
        moment_estimate(1e7, 2, 12_000, np.random.default_rng(3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2 ** 20


def test_moment_bootstrap_rows_match_one_matrix_draw():
    # the bootstrap draws its 400 resample rows one at a time; the interval
    # keeps the bits of one (400, n) index matrix drawn from the same stream
    est = moment_estimate(1e5, 2, 300, np.random.default_rng(17))
    rng = np.random.default_rng(17)
    vals = np.array([abs(zeta_critical(tau)) ** 2 for tau in rng.uniform(1e5, 2e5, size=300)])
    boots = np.mean(vals[rng.integers(0, 300, size=(400, 300))], axis=1)
    lo, hi = np.percentile(boots, [2.5, 97.5])
    assert (est.mean, est.ci_lo, est.ci_hi) == (float(np.mean(vals)), lo, hi)


def test_moment_guards(rng):
    with pytest.raises(DomainError):
        moment_estimate(1e6, 3, 100, rng)
    state = rng.bit_generator.state
    for big_t in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError):
            moment_estimate(big_t, 2, 10, rng)
    assert rng.bit_generator.state == state   # refused before any draw


def test_grid_max_discretization(rng):
    # fine-grid max is within a uniform factor of the coarse lattice max
    big_t = 2e4
    step = 2 * math.pi / (8 * math.log(big_t))
    coarse = np.arange(-1.0, 1.0 + step / 2, step)
    fine = np.arange(-1.0, 1.0, step / 4)
    ratios = []
    for tau in rng.uniform(big_t, 2 * big_t, size=12):
        _, m_fine = max_on_grid(float(tau), fine)
        _, m_coarse = max_on_grid(float(tau), coarse)
        ratios.append(m_fine / m_coarse)
    frac_ok = np.mean(np.array(ratios) <= 2.0)
    assert frac_ok >= 0.99
    assert max(ratios) >= 1.0   # supergrid dominance, reported constant

