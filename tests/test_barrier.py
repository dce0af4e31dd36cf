import math

import numpy as np
import pytest

from zetalab.errors import (DomainError, InsufficientSampleError, StructuralError,
                            ToleranceError)
from zetalab.barrier import (STEP_VAR, BarrierProfile, _gauss_kernel, _same_convolver,
                             ballot_bound, bridge_survival_dp, bridge_survival_mc,
                             centering_m, event_flags, lower_barrier, upper_barrier)
from zetalab.model import centering
from zetalab.primes import LadderParams, scale_ladder_from_loglog
from zetalab.walk import MultiscaleWalk, WalkConfig


def test_centering_alias():
    assert centering_m(16, 16) == pytest.approx(13.92056, abs=1e-5)


def test_barrier_values_default_constants():
    profile = BarrierProfile(y=8.0, n=16.0)
    assert upper_barrier(1, profile) == math.inf            # k < ceil(y/4)
    assert lower_barrier(1, profile) == -math.inf
    assert lower_barrier(2, profile) == pytest.approx(8 - 20 * 2)   # L(y/4) = -4y
    assert upper_barrier(10, profile) == pytest.approx(8 + 1000 * math.log(6), abs=1e-9)
    assert upper_barrier(10, profile) == pytest.approx(1799.76, abs=0.02)


def test_barrier_gap_independent_of_y():
    for k in (3, 5, 7):
        gaps = set()
        for y in (8.0, 10.0, 12.0):
            profile = BarrierProfile(y=y, n=16.0)
            if k >= profile.r:
                gaps.add(round(upper_barrier(k, profile) - lower_barrier(k, profile), 9))
        assert len(gaps) == 1


def test_barrier_domain():
    profile = BarrierProfile(y=4.0, n=10.0)
    with pytest.raises(DomainError):
        upper_barrier(10.5, profile)


def test_c_ell_product():
    ladder = scale_ladder_from_loglog(16.0, LadderParams(base_cutoff=1.0, exponent=1.0))
    profile = BarrierProfile(y=4.0, n=16.0)
    expect = (1 + math.exp(-1.0)) * (1 + math.exp(-8.0))
    assert profile.c_ell(ladder, 1) == pytest.approx(expect)


def _flags_setup(path_values):
    """Tiny two-level ladder with a synthetic one-shift walk."""
    ladder = scale_ladder_from_loglog(16.0, LadderParams(base_cutoff=1.0, exponent=1.0))
    scales = (4.0, 6.0, 9.0, 12.0)     # levels: n0 = 8, n1 = 13.23
    config = WalkConfig(k_start=1.0, scales=scales, tau=0.0, grid=(0.0,))
    values = np.array([[v + 0.0j] for v in path_values])
    walk = MultiscaleWalk(config=config, values=values)
    profile = BarrierProfile(y=8.0, n=16.0, c_upper=3.0, c_lower=2.0)
    moll = {(ell, si): np.array([1.0]) for ell in (0, 1) for si in range(len(scales))}
    return walk, profile, ladder, moll


def test_event_flags_zero_path():
    walk, profile, ladder, moll = _flags_setup([0.0, 0.0, 0.0, 0.0])
    flags = event_flags(walk, profile, ladder, zeta_mags=np.array([1.0]),
                        moll_prod_mags=moll, max_level=1)
    assert flags.in_b.all()            # 0 <= m(k) + U_y(k) everywhere
    assert flags.in_a.all()
    assert (flags.in_g == (flags.in_a & flags.in_b & flags.in_c & flags.in_d)).all()


def test_event_flags_breach_is_sticky():
    # breach the upper barrier at the second scale of level 0
    breach = centering(6.0, 16.0) + upper_barrier(6.0, BarrierProfile(y=8.0, n=16.0, c_upper=3.0, c_lower=2.0)) + 1.0
    walk, profile, ladder, moll = _flags_setup([0.0, breach, 0.0, 0.0])
    flags = event_flags(walk, profile, ladder, zeta_mags=np.array([1.0]),
                        moll_prod_mags=moll, max_level=1)
    assert not flags.in_b[0, 0]
    assert not flags.in_b[1, 0]        # nested: stays excluded at deeper levels


def test_event_flags_nesting_random(rng):
    ladder = scale_ladder_from_loglog(16.0, LadderParams(base_cutoff=1.0, exponent=1.0))
    scales = (4.0, 6.0, 9.0, 12.0)
    config = WalkConfig(k_start=1.0, scales=scales, tau=0.0, grid=tuple(np.linspace(-1, 1, 8)))
    profile = BarrierProfile(y=6.0, n=16.0, c_upper=1.0, c_lower=1.0)
    moll = {(ell, si): np.ones(8) for ell in (0, 1) for si in range(4)}
    for _ in range(10):
        values = rng.normal(scale=3.0, size=(4, 8)) + 0j
        walk = MultiscaleWalk(config=config, values=values)
        flags = event_flags(walk, profile, ladder, zeta_mags=np.ones(8),
                            moll_prod_mags=moll, max_level=1)
        for rows in (flags.in_a, flags.in_b, flags.in_c, flags.in_d):
            assert np.all(rows[1] <= rows[0])   # monotone in the level


def test_event_flags_missing_inputs():
    walk, profile, ladder, moll = _flags_setup([0.0, 0.0, 0.0, 0.0])
    with pytest.raises(StructuralError):
        event_flags(walk, profile, ladder, zeta_mags=None, moll_prod_mags=None,
                    max_level=1)
    del moll[(1, 3)]
    with pytest.raises(StructuralError, match="ell=1"):
        event_flags(walk, profile, ladder, zeta_mags=np.array([1.0]),
                    moll_prod_mags=moll, max_level=1)


def test_dp_infinite_barrier_unit():
    out = bridge_survival_dp(30, -0.5, lambda j: math.inf)
    assert out.conditional == pytest.approx(1.0, abs=1e-6)


def test_dp_unreachable_bin():
    out = bridge_survival_dp(20, 8.0, lambda j: 1.0)
    assert out.conditional == pytest.approx(0.0, abs=1e-12)


def test_dp_continuum_cross_check():
    out = bridge_survival_dp(100, -0.5, lambda j: 3.0)
    assert out.conditional == pytest.approx(0.30232, abs=0.02)


def test_dp_golden_bits():
    # pinned float.hex: any change to the DP's arithmetic shows here
    out = bridge_survival_dp(100, -0.5, lambda j: 3.0)
    assert out.conditional.hex() == "0x1.3526a3ba62544p-2"
    assert out.joint.hex() == "0x1.16d6d57c05460p-6"


def test_dp_convolution_matches_fftconvolve(rng):
    from scipy.signal import fftconvolve
    step = math.sqrt(STEP_VAR) / 200          # the DP's default mesh
    kernel = _gauss_kernel(step)
    n = 18_733                                # the grid of k = 100 under a level-3 barrier
    convolve = _same_convolver(kernel, n)
    delta = np.zeros(n)
    delta[16_000] = 1.0 / step
    for x in (delta, rng.random(n), np.clip(rng.normal(size=n), 0.0, None)):
        assert np.array_equal(convolve(x), fftconvolve(x, kernel, mode="same"))


def test_dp_mesh_convergence_and_guard():
    a = bridge_survival_dp(60, -0.5, lambda j: 2.5, mesh=200)
    b = bridge_survival_dp(60, -0.5, lambda j: 2.5, mesh=420)
    assert abs(a.conditional - b.conditional) < 1e-4
    with pytest.raises(ToleranceError):
        bridge_survival_dp(60, -0.5, lambda j: 2.5, mesh=50)


def test_dp_monotone_in_barrier_and_w():
    base = bridge_survival_dp(40, -0.5, lambda j: 2.0)
    lower = bridge_survival_dp(40, -0.5, lambda j: 1.5)
    assert lower.conditional <= base.conditional + 1e-12
    nearer = bridge_survival_dp(40, 1.0, lambda j: 2.0)
    assert nearer.conditional <= base.conditional + 1e-12


def test_dp_single_step_closed_form():
    from scipy.integrate import quad
    out = bridge_survival_dp(1, -0.5, lambda j: 1.0, mesh=400)
    num = quad(lambda b: math.exp(-b * b) * (1 - math.exp(-4 * 1.0 * (1.0 - b))), -0.5, 0.5)[0]
    den = quad(lambda b: math.exp(-b * b), -0.5, 0.5)[0]
    assert out.conditional == pytest.approx(num / den, abs=5e-4)


def test_mc_agrees_with_dp(rng):
    for k, level in ((25, 2.0), (80, 3.0)):
        dp = bridge_survival_dp(k, -0.5, lambda j: level)
        est, se, hits = bridge_survival_mc(rng, k, -0.5, lambda j: level, 60_000)
        assert hits >= 100
        assert abs(est - dp.conditional) <= 3 * se


def test_mc_insufficient_hits(rng):
    with pytest.raises(InsufficientSampleError):
        bridge_survival_mc(rng, 100, 25.0, lambda j: math.inf, 10_000)


def test_mc_requires_paths(rng):
    with pytest.raises(DomainError):
        bridge_survival_mc(rng, 10, 0.0, lambda j: 1.0, 100)


def test_mc_single_step_bin_probability(rng):
    # barrier off: endpoint bin frequency matches the Gaussian bin mass
    est, se, hits = bridge_survival_mc(rng, 1, 0.0, lambda j: math.inf, 100_000)
    assert est == pytest.approx(1.0)


def test_ballot_bound_forms():
    profile = BarrierProfile(y=4.0, n=40.0, c_upper=3.0, c_lower=2.0)
    k = 16
    w = centering(k, 40.0) + upper_barrier(k, profile)
    got = ballot_bound(k, 4.0, w, profile)
    expect = (4 + 1) * 1.0 * k ** -1.5 * math.exp(-w * w / k)
    assert got == pytest.approx(expect)
