import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.special import sici

from zetalab import parallel, smoothing
from zetalab.errors import CapacityError, DomainError
from zetalab.smoothing import (dirichlet_value, discretized_max_bound,
                               indicator_sandwich_check, make_bump, make_expansion,
                               make_ingham, poisson_reconstruct)

DECAY_CONSTANT = 1.0   # calibrated from the direct-evaluation sweep below

# float.hex of make_expansion(make_bump(5, 3), 40).coefficients (real, imag),
# pinned so that any change to the expansion's arithmetic shows
EXPANSION_D5_HEX = [
    ("0x1.000000000153cp+0", "0x1.17c0000000000p-53"),
    ("0x1.e810000000000p-33", "0x1.cd64854a71fccp-47"),
    ("-0x1.4689800000000p-20", "0x1.faa6e56ed79ebp-31"),
    ("0x1.3871bcb800000p-5", "-0x1.d6a396857b927p-20"),
    ("-0x1.4c8ccf1000000p+5", "-0x1.66cae34a918ffp-1"),
    ("0x1.87259fe40f400p+20", "-0x1.812eb2d33593dp+11"),
    ("0x1.588dc9ee6e96cp+34", "0x1.a246017bdd1c6p+27"),
    ("-0x1.2246226531b41p+45", "0x1.f3386b2b1b0a1p+38"),
    ("-0x1.32533a5f47082p+57", "-0x1.020477df9cc4ap+55"),
    ("0x1.261e154a7d3c8p+68", "-0x1.0e9a4bf91831ap+66"),
    ("-0x1.0ae70b36024ebp+82", "0x1.9bfb07ee6e04ep+81"),
    ("-0x1.91a52c295b933p+93", "0x1.46bffc9b575e9p+92"),
    ("0x1.46e599dadabd1p+108", "-0x1.bfbdc2bf1b9bdp+107"),
    ("0x1.b471006f4738bp+119", "-0x1.212c073ccba64p+118"),
    ("-0x1.f82d70cbe654cp+133", "0x1.60213c727389ap+133"),
    ("-0x1.4cf220e359813p+145", "0x1.768ac6157fb85p+143"),
    ("0x1.27d4336e6d525p+159", "-0x1.a571c160be899p+158"),
    ("0x1.768e0590f6a05p+170", "-0x1.74f0a50747c14p+168"),
    ("-0x1.124361c06f4b9p+184", "0x1.8ae3fb4758c2cp+183"),
    ("-0x1.457b87363f1fcp+195", "0x1.274e2298379e9p+193"),
    ("0x1.9b58e32c1fe33p+208", "-0x1.2a0fcb00035acp+208"),
    ("0x1.c63ec6776b2d6p+219", "-0x1.7d787c71b4935p+217"),
    ("-0x1.fd136d0669a55p+232", "0x1.7215a75dd85bdp+232"),
    ("-0x1.05e2dcaad655fp+244", "0x1.9a1a8723c8a18p+241"),
    ("0x1.083cb5025bf73p+257", "-0x1.80a4c02344fe9p+256"),
    ("0x1.f8a40b1162569p+267", "-0x1.74b6de578e524p+265"),
    ("-0x1.d29c129d0d213p+280", "0x1.538b8d417ca59p+280"),
    ("-0x1.9e0ae185a2721p+291", "0x1.2243f11bd8436p+289"),
    ("0x1.629898eac6550p+304", "-0x1.01be669277100p+304"),
    ("0x1.26066c110c7bap+315", "-0x1.87d41d1452241p+312"),
    ("-0x1.d4a7e740af1f2p+327", "0x1.54115cf3f92efp+327"),
    ("-0x1.6a848aced2bdep+338", "0x1.cef3ecf1e582dp+335"),
    ("0x1.0fbdd6ce945f1p+351", "-0x1.898d9dbf60026p+350"),
    ("0x1.89092967930fdp+361", "-0x1.e2da179fab271p+358"),
    ("-0x1.16b30f308c027p+374", "0x1.92b9576035241p+373"),
    ("-0x1.7b1ed29483fdep+384", "0x1.bfe250407c540p+381"),
    ("0x1.fd262f4b7ac15p+396", "-0x1.6f025712d856ap+396"),
    ("0x1.45289b13a3e68p+407", "-0x1.73ee7c3fbbf27p+404"),
    ("-0x1.a0d1cdcc80ff8p+419", "0x1.2bc1e4026c61cp+419"),
    ("-0x1.f4e56c01594a6p+429", "0x1.1623d8a8278bfp+427"),
    ("0x1.338e5bb831345p+442", "-0x1.b95ad3ca95e5ap+441"),
]


@pytest.fixture(scope="module")
def ingham():
    return make_ingham()


@pytest.fixture(scope="module")
def bump3(ingham):
    return make_bump(3.0, 3.0)


def test_ingham_positivity_and_value(ingham):
    xs = np.linspace(-50, 50, 2001)
    assert np.all(ingham.value(xs) >= 0)
    assert ingham.value(0.0)[0] == 1.0
    assert np.all(ingham.fhat(np.linspace(-0.95, 0.95, 101)) >= -1e-12)


def test_ingham_transform_support(ingham):
    assert ingham.transform_tail_mass() <= 1e-8
    # exact lattice series vanishes outside the band
    assert np.max(np.abs(ingham.fhat(np.array([1.1, 1.6, 2.3])))) < 1e-12


def reference_cdf(sf, x):
    """The serial block loop that cdf threads; blocks of 256 rows."""
    out = np.empty_like(x)
    scale = math.pi / smoothing.NODE_SPACING
    for lo in range(0, len(x), 256):
        hi = min(len(x), lo + 256)
        si = sici(scale * (x[lo:hi, None] - sf.nodes[None, :]))[0]
        bracket = 0.5 + si / math.pi
        out[lo:hi] = smoothing.NODE_SPACING * (bracket @ sf.node_values)
    return out / sf.l1_norm


def reference_fhat(sf, xi):
    """The serial block loop that fhat threads; blocks of 512 rows."""
    pos = sf.nodes > 0
    vals, nds = sf.node_values[pos], sf.nodes[pos]
    v0 = sf.node_values[np.argmin(np.abs(sf.nodes))]
    out = np.empty_like(xi)
    for lo in range(0, len(xi), 512):
        hi = min(len(xi), lo + 512)
        c = np.cos(2.0 * math.pi * np.outer(xi[lo:hi], nds))
        out[lo:hi] = smoothing.NODE_SPACING * (v0 + 2.0 * c @ vals)
    return out


def test_threaded_blocks_bit_identical(ingham, monkeypatch):
    x = np.linspace(-60.0, 60.0, 3 * 256 + 41)       # three full blocks and a ragged one
    xi = np.linspace(-1.3, 1.3, 3 * 512 + 77)
    want_cdf, want_fhat = reference_cdf(ingham, x), reference_fhat(ingham, xi)
    assert np.array_equal(ingham.cdf(x), want_cdf)
    assert np.array_equal(ingham.fhat(xi), want_fhat)
    with ThreadPoolExecutor(max_workers=1) as one_worker:
        monkeypatch.setattr(parallel, "_pool", one_worker)
        assert np.array_equal(ingham.cdf(x), want_cdf)
        assert np.array_equal(ingham.fhat(xi), want_fhat)


def test_golden_bits():
    assert make_ingham().transform_tail_mass().hex() == "0x1.31e599550c0c0p-51"
    coefficients = make_expansion(make_bump(5.0, 3.0), 40).coefficients
    assert [(c.real.hex(), c.imag.hex()) for c in coefficients] == EXPANSION_D5_HEX
    values = dirichlet_value((1.0 + 0.5j) / np.arange(1, 301), 1e6 + 0.25,
                             np.array([-0.75, 0.0, 0.5]))
    assert [(v.real.hex(), v.imag.hex()) for v in values] == [
        ("0x1.46f0d1a5bc020p-1", "0x1.7be3cd6fef44ep-1"),
        ("0x1.98e04b1e61d9dp-1", "0x1.c819002fcf58cp-1"),
        ("0x1.ca9a0f7564bb2p-1", "0x1.f238ff8b1b584p-1"),
    ]


def test_ingham_normalization(ingham):
    assert ingham.cdf(np.array([400.0]))[0] == pytest.approx(1.0, abs=1e-8)
    assert ingham.fhat(np.array([0.0]))[0] == pytest.approx(ingham.l1_norm, rel=1e-12)


def test_ingham_decay_envelope(ingham):
    xs = np.linspace(10, 1000, 500)
    vals = ingham.value(xs)
    envelope = DECAY_CONSTANT * np.exp(-xs / np.log(xs + 10) ** 2)
    assert np.all(vals <= envelope)


def test_bump_range_and_window(bump3):
    xs = np.linspace(-1.5, 1.5, 10_000)
    g = bump3.value(xs)
    assert np.min(g) >= -1e-9
    assert np.max(g) <= 1.0 + 1e-9
    assert bump3.value(np.array([-10.0]))[0] <= 1e-6
    inside = bump3.value(np.linspace(0, 1 / 3, 64))
    assert np.all(inside >= 1.0 / (1.0 + 1e-6))


def test_bump_indicator_sandwich_items(bump3):
    delta, a_param = 3.0, 3.0
    decay = math.exp(-delta ** (a_param - 1))
    xs = np.linspace(0, 1 / delta, 512)
    g = bump3.value(xs)
    c_required = np.max((1 / g - 1) / decay)
    assert c_required < 1.0         # item: 1(x in bin) <= G (1 + C e^{-Delta^{a-1}})
    lo, hi = -delta ** (-a_param / 2), 1 / delta + delta ** (-a_param / 2)
    outside = np.concatenate([np.linspace(-2, lo - 1e-6, 200),
                              np.linspace(hi + 1e-6, 2, 200)])
    assert np.all(bump3.value(outside) <= 1e-6 + 1e-12)


def value_quad(bump, x):
    """The bump's defining integral by adaptive quadrature: the oracle for the
    sine-integral route that `BandlimitedBump.value` takes."""
    from scipy.integrate import quad
    lo, hi = bump.window
    spread, base = bump.spread, bump.base
    total = 0.0
    n_pieces = max(8, int(spread * (hi - lo) / 2.0))
    edges = np.linspace(lo, hi, n_pieces + 1)
    for a, b in zip(edges[:-1], edges[1:]):
        val, err = quad(lambda t: spread * (base.value(spread * (x - t)) / base.l1_norm)[0],
                        a, b, epsabs=1e-12, limit=200)
        assert err <= 1e-9, f"quadrature stalled near x={x}"
        total += val
    return total


def test_bump_quad_cross_check(bump3, rng):
    for x in (-0.05, 0.1, 0.21, 0.4):
        assert value_quad(bump3, x) == pytest.approx(bump3.value(x)[0], abs=1e-9)


def test_bump_transform_l1(bump3):
    assert bump3.l1_transform() <= 2 * bump3.spread
    assert bump3.support_violation_mass() <= 1e-8


def l1_grid(bump):
    """(start, step, count) of the uniform grid, in the base's argument
    xi / spread, on which `l1_transform` samples the transform."""
    lobe = 1.0 / bump.indicator_length
    step = lobe / 12 / bump.spread
    return 0.5 * step, step, 12 * math.ceil(bump.spread / lobe)


@pytest.mark.parametrize("delta", [3.0, 5.0, 8.0])
def test_fhat_grid_matches_cosine_series(ingham, rng, delta):
    # a chirp e^{i c n^2} taken naively loses ~8.5e-12 at delta = 8
    start, step, count = l1_grid(make_bump(delta, 3.0))
    got = ingham.fhat_grid(start, step, count)
    idx = np.arange(count) if delta < 8 else \
        np.concatenate([[0, count - 1], rng.integers(0, count, 4000)])
    want = ingham.fhat(start + idx * step)
    assert np.max(np.abs(got[idx] - want)) <= 1e-14 * ingham.l1_norm


def test_l1_transform_matches_direct_sum(bump3):
    length = bump3.indicator_length
    lobe = 1.0 / length
    xi = np.minimum((np.arange(12 * math.ceil(bump3.spread / lobe)) + 0.5) * lobe / 12,
                    bump3.spread)
    ghat = reference_fhat(bump3.base, xi / bump3.spread) / bump3.base.l1_norm \
        * length * np.sinc(length * xi)
    direct = 2.0 * float(np.sum(np.abs(ghat))) * lobe / 12
    assert bump3.l1_transform() == pytest.approx(direct, rel=1e-13)


def test_bump_guard():
    with pytest.raises(DomainError):
        make_bump(2.0, 3.0)


def tail_bound_log(expansion, x):
    """log of the first omitted term's coefficient envelope at |x|: the error
    the truncated expansion is held to."""
    ell = len(expansion.coefficients)
    spread = expansion.delta ** (2.0 * expansion.a_param)
    return ell * math.log(2.0 * math.pi * max(abs(x), 1e-300)) \
        - math.lgamma(ell + 1) + (ell + 1) * math.log(spread) + math.log(2.0)


def test_expansion_c0_and_small_x(bump3):
    exp40 = make_expansion(bump3, 40)
    assert abs(exp40.coefficients[0] - bump3.value(0.0)[0]) < 1e-5
    for x in (1e-4, 5e-4, 1e-3):
        assert abs(exp40.value(x)[0] - bump3.value(x)[0]) <= \
            max(1e-10, math.exp(tail_bound_log(exp40, x)))


def test_expansion_matches_g_within_tail_bound(bump3):
    exp40 = make_expansion(bump3, 40)
    for x in np.linspace(-3.0 ** 0.25, 3.0 ** 0.25, 7):
        gap = abs(exp40.value(x)[0] - bump3.value(x)[0])
        bound = math.exp(min(tail_bound_log(exp40, x), 700.0))
        assert gap <= bound + 1e-9   # slack for the moment quadrature


def test_expansion_coefficient_bound(bump3):
    exp60 = make_expansion(bump3, 60)
    for ell, c in enumerate(exp60.coefficients):
        log_bound = ell * math.log(2 * math.pi) - math.lgamma(ell + 1) \
            + (ell + 1) * math.log(bump3.spread) + math.log(2.0)
        assert math.log(abs(c)) <= log_bound + 1e-9


def test_expansion_order_guard(bump3):
    with pytest.raises(CapacityError):
        make_expansion(bump3, 61)


def test_sandwich_check_reports(bump3, rng):
    exp40 = make_expansion(bump3, 40)
    samples = rng.normal(0.4, 0.5, size=4000)
    rep = indicator_sandwich_check(bump3, exp40, samples, u=0.1)
    assert rep.n_in_bin > 50
    assert rep.fraction_hold_bump == 1.0
    assert rep.fraction_hold_poly == 1.0
    # out-of-bin samples make the inequality trivial: empty-bin report is clean
    far = indicator_sandwich_check(bump3, exp40, samples + 50.0, u=0.1)
    assert far.n_in_bin == 0 and far.fraction_hold_bump == 1.0


def test_poly_value_at_bin_center(bump3):
    exp40 = make_expansion(bump3, 40)
    assert abs(exp40.value(1.0 / 6.0)[0]) ** 2 >= 0.9


def test_poisson_monomials(rng):
    for _ in range(5):
        n = int(rng.integers(2, 4097))
        coeffs = np.zeros(n)
        coeffs[-1] = 1.0
        t = float(rng.uniform(1e4, 2e5))
        h0 = float(rng.uniform(-1, 1))
        direct = dirichlet_value(coeffs.astype(complex), t, h0)[0]
        rec = poisson_reconstruct(coeffs, t, h0)
        assert abs(rec - direct) / abs(direct) <= 1e-10


def test_poisson_constant():
    assert poisson_reconstruct(np.array([1.0]), 100.0, 0.3) == 1.0


def test_poisson_random_polys(rng):
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(16, 4097))
        coeffs = rng.normal(size=n) + 1j * rng.normal(size=n)
        t = float(rng.uniform(1e5, 2e5))
        h0 = float(rng.uniform(-1, 1))
        direct = dirichlet_value(coeffs, t, h0)[0]
        rec = poisson_reconstruct(coeffs, t, h0)
        worst = max(worst, abs(rec - direct) / abs(direct))
    assert worst <= 1e-9


def test_discretized_max_report(rng):
    coeffs = rng.normal(size=512) + 1j * rng.normal(size=512)
    flat = np.ones(64, dtype=complex)
    rep = discretized_max_bound([coeffs, flat], 4321.0)
    assert rep.ratio <= 10.0
    assert rep.tail_fraction <= 1e-6
    assert rep.ratio > 0
