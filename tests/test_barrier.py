import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from zetalab import parallel
from zetalab.errors import DomainError, InsufficientSampleError, ToleranceError
from zetalab.barrier import (STEP_VAR, BarrierProfile, _cut_above, _gauss_kernel, _levels,
                             _normal_mass, _same_convolver, ballot_bound, bridge_survival_dp,
                             bridge_survival_exact, bridge_survival_mc, upper_barrier)
from zetalab.experiments import ExperimentConfig, run
from zetalab.model import centering


def test_barrier_values_default_constants():
    profile = BarrierProfile(y=8.0, n=16.0)
    assert upper_barrier(1, profile) == math.inf            # k < ceil(y/4)
    assert upper_barrier(10, profile) == pytest.approx(8 + 3 * math.log(6), abs=1e-9)
    assert upper_barrier(10, profile) == pytest.approx(13.3753, abs=1e-4)


def test_barrier_domain():
    profile = BarrierProfile(y=4.0, n=10.0)
    with pytest.raises(DomainError):
        upper_barrier(10.5, profile)


def test_dp_infinite_barrier_unit():
    out = bridge_survival_dp(30, -0.5, lambda j: math.inf)
    assert out.conditional == pytest.approx(1.0, abs=1e-6)
    # every step is inert, so the DP is one convolution by N(0, k/2)
    for k, w in ((30, -0.5), (100, 3.0), (400, 20.0)):
        out = bridge_survival_dp(k, w, lambda j: math.inf)
        assert out.joint == pytest.approx(_normal_mass(w, w + 1.0, math.sqrt(k / 2)), rel=2e-7)


def test_normal_mass_from_zero_takes_erf():
    # a bin that starts at 0 is erf(b / (sd sqrt 2)) / 2, with no cancellation
    # when b / sd is small, where the erfc form 0.5 (1 - erfc(b / (sd sqrt 2)))
    # keeps only the digits that erfc ~ 1 leaves: at b / sd = 1e-9 it is off
    # by about 1e-7 relative
    from scipy.special import erf
    mpmath = pytest.importorskip("mpmath")
    for b, sd in ((1.0, 7.0), (1.0, 10.0), (0.5, 30.0), (1e-3, 1.0), (1e-9, 1.0)):
        mass = _normal_mass(0.0, b, sd)
        assert mass == 0.5 * erf(b / (sd * math.sqrt(2.0))) == _normal_mass(-b, 0.0, sd)
        exact = mpmath.erf(mpmath.mpf(b) / (mpmath.mpf(sd) * mpmath.sqrt(2))) / 2
        assert abs(mass - float(exact)) <= 4e-16 * mass


def test_cut_above_zeroes_every_cell_whose_upper_edge_reaches_the_level():
    grid = np.arange(4.0)                     # upper edges 0.5, 1.5, 2.5, 3.5
    for level, want in ((1.7, [1, 1, 0, 0]), (1.5, [1, 0, 0, 0]), (3.5, [1, 1, 1, 0]),
                        (3.6, [1, 1, 1, 1]), (math.inf, [1, 1, 1, 1])):
        density = np.ones(4)
        _cut_above(density, grid, level)
        assert density.tolist() == want


def test_dp_unreachable_bin():
    out = bridge_survival_dp(20, 8.0, lambda j: 1.0)
    assert out.conditional == pytest.approx(0.0, abs=1e-12)


def test_dp_continuum_cross_check():
    out = bridge_survival_dp(100, -0.5, lambda j: 3.0)
    assert out.conditional == pytest.approx(0.30232, abs=0.02)


def test_dp_golden_bits():
    # pinned float.hex: any change to the DP's arithmetic shows here
    out = bridge_survival_dp(100, -0.5, lambda j: 3.0)
    assert out.conditional.hex() == "0x1.3526a3ba62521p-2"
    assert out.joint.hex() == "0x1.16d6d57c05440p-6"


def test_dp_without_inert_runs_keeps_its_bits():
    # pinned float.hex of DPs whose inert steps, if any, stand alone: the
    # constant barriers of ballot_sweep's random configs at seed 13 (4 configs)
    for k, level, w, conditional, joint in (
            (40, "0x1.d6c0966ab6eaep+1", -0.5, "0x1.7add9282914a6p-1", "0x1.0dd0a48c448ccp-4"),
            (45, "0x1.02da76a6fec35p+1", 0.0, "0x1.e8b639640f5a3p-3", "0x1.46672b8f4d550p-6"),
            (52, "0x1.8b1003e40ad5cp+1", 0.0, "0x1.d4c6493df8341p-2", "0x1.238aa93ccaae0p-5"),
            (104, "0x1.108ec5161aac5p+1", 0.0, "0x1.fee94f84f4e2ep-4", "0x1.c2ccc2a480ca0p-8")):
        out = bridge_survival_dp(k, w, lambda j: float.fromhex(level))
        assert (out.conditional.hex(), out.joint.hex()) == (conditional, joint)
    # one inert step between binding ones, above the grid or infinite
    out = bridge_survival_dp(30, -0.5, lambda j: 3.0 if j % 2 else 100.0)
    assert (out.conditional.hex(), out.joint.hex()) == ("0x1.7180893ffc2f8p-1",
                                                        "0x1.2fa5260748eccp-4")
    out = bridge_survival_dp(30, -0.5, lambda j: math.inf if j % 2 else 2.5)
    assert (out.conditional.hex(), out.joint.hex()) == ("0x1.6e8a9fb6d7277p-1",
                                                        "0x1.2d3651fdec370p-4")


def test_dp_inert_runs_match_stepwise_values():
    # `joint` of the DP taken one convolution per step: the rows of
    # ballot_sweep's table, and a barrier with every kind of step
    # (+inf at j = 1, a run above the grid, binding steps, above the grid again)
    rows = {(25, 1.0): 0.03339724987920778, (25, 3.0): 0.03380658952476889,
            (25, 6.0): 0.033806592091039867, (100, 1.0): 0.018613015924735854,
            (100, 3.0): 0.018752135062263475, (100, 6.0): 0.01875213573177581,
            (400, 1.0): 0.00981006882672053, (400, 3.0): 0.009867656821771154,
            (400, 6.0): 0.009867657053428291}
    for (k, y), want in rows.items():
        profile = BarrierProfile(y=y, n=2.0 * k + 1.0)
        out = bridge_survival_dp(k, float(math.floor(math.sqrt(k))),
                                 lambda j: centering(j, profile.n) + upper_barrier(j, profile))
        assert out.joint == pytest.approx(want, rel=1e-12, abs=0.0)

    def mixed(j):
        return math.inf if j == 1 else 3.0 if 11 <= j <= 25 else 100.0
    assert bridge_survival_dp(40, -0.5, mixed).joint == pytest.approx(0.061507236803337306,
                                                                      rel=1e-12, abs=0.0)


def test_dp_convolution_matches_fftconvolve(rng):
    from scipy.signal import fftconvolve
    step = math.sqrt(STEP_VAR) / 200          # the DP's default mesh
    kernel = _gauss_kernel(step, STEP_VAR)
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
    assert bridge_survival_exact(1, -0.5, 1.0) == pytest.approx(num / den, rel=1e-12)


def test_dp_matches_exact_constant_barrier_law(rng):
    # configs drawn from ballot_sweep's ranges; the bound was set before any run
    for _ in range(12):
        k = int(rng.integers(20, 120))
        level = float(rng.uniform(1.5, 4.0))
        w = float(rng.choice([-0.5, 0.0, 0.5]))
        dp = bridge_survival_dp(k, w, lambda j: level)
        assert abs(dp.conditional - bridge_survival_exact(k, w, level)) <= 2e-6


def test_exact_law_edges():
    assert bridge_survival_exact(30, -0.5, 50.0) == pytest.approx(1.0, abs=1e-15)
    assert bridge_survival_exact(20, 8.0, 1.0) == 0.0          # the bin lies above the level
    # a bin that straddles the level: only its part below can be reached
    straddle = bridge_survival_exact(40, 1.5, 2.0)
    assert 0.0 < straddle < bridge_survival_exact(40, 0.5, 2.0)
    assert straddle == pytest.approx(bridge_survival_dp(40, 1.5, lambda j: 2.0).conditional,
                                     abs=2e-6)
    # 12 sd below the start, where erf(b) - erf(a) would be 0 / 0: 1 - ~e^{-25.5}
    assert bridge_survival_exact(20, -40.0, 3.0) == pytest.approx(1.0 - 1e-11, abs=1e-11)
    for k, w, level in ((20, 0.0, 0.0), (0, 0.0, 1.0), (20, 1e6, 1e7),
                        (20, math.nan, 1.0), (20, math.inf, 1.0), (20, -math.inf, 1.0)):
        with pytest.raises(DomainError):
            bridge_survival_exact(k, w, level)


def test_ballot_sweep_same_on_any_pool(tmp_path, monkeypatch):
    # the sweep's DPs run as fixed items on the shared pool
    base = dict(experiment="ballot_sweep", seed=3,
                params={"n_random_configs": 2, "mc_paths": 10_000})
    want = run(ExperimentConfig(out_dir=str(tmp_path / "default"), **base))
    want.metrics.pop("elapsed_s")
    assert want.metrics["random_dp_gap_max"] <= 2e-6   # the DP against the exact law
    for workers in (1, 8):
        out = tmp_path / f"w{workers}"
        with ThreadPoolExecutor(max_workers=workers) as pool:
            monkeypatch.setattr(parallel, "_pool", pool)
            rec = run(ExperimentConfig(out_dir=str(out), **base))
        rec.metrics.pop("elapsed_s")
        assert rec.metrics == want.metrics and rec.passes == want.passes
        for name in ("ballot_sweep.csv", "ballot_sweep_metrics.csv"):
            assert (out / name).read_bytes() == (tmp_path / "default" / name).read_bytes()


def test_mc_agrees_with_dp(rng):
    for k, level in ((25, 2.0), (80, 3.0)):
        dp = bridge_survival_dp(k, -0.5, lambda j: level)
        est, se = bridge_survival_mc(rng, k, -0.5, lambda j: level, 60_000)
        assert abs(est - dp.conditional) <= 3 * se


def test_mc_memory_and_bits():
    # ballot_sweep's k = 104 config at seed 13: chunks of 19,230 x 104 steps
    level = float.fromhex("0x1.108ec5161aac5p+1")
    tracemalloc.start()
    try:
        got = bridge_survival_mc(np.random.default_rng(13), 104, 0.0, lambda j: level, 20_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 56 * 2 ** 20
    # pinned float.hex: the same draws in the same order, the same arithmetic
    assert [x.hex() for x in got] == ["0x1.c7f2cfb8679ffp-4", "0x1.3899363ba3f67p-7"]
    got = bridge_survival_mc(np.random.default_rng(13), 30, -0.5,
                             lambda j: math.inf if j == 1 else 2.0 if j % 3 else 1e9, 20_000)
    assert [x.hex() for x in got] == ["0x1.bfc1b41377b9fp-2", "0x1.625d7f62e2c64p-7"]


def test_reflection_mask():
    # a finite level reflects when the previous step's level was finite; the start counts as one
    levels, reflects = _levels(lambda j: [2.0, math.inf, 3.0, 3.0, math.inf, math.inf, 1.0][j - 1], 7, 0.0)
    assert levels.tolist() == [2.0, math.inf, 3.0, 3.0, math.inf, math.inf, 1.0]
    assert reflects.tolist() == [True, False, False, True, False, False, False]


@pytest.mark.parametrize("k, w, barrier", [(0, -0.5, lambda j: 1.0), (-3, -0.5, lambda j: 1.0),
                                           (5, -0.5, lambda j: math.nan if j == 3 else 1.0),
                                           (5, -0.5, lambda j: -math.inf if j == 5 else 1.0),
                                           (1, -0.5, lambda j: math.nan),
                                           (5, math.nan, lambda j: 2.0),
                                           (5, math.inf, lambda j: 2.0),
                                           (5, -math.inf, lambda j: 2.0)],
                         ids=["no steps", "negative k", "nan level", "-inf level", "nan start",
                              "nan w", "inf w", "-inf w"])
def test_barrier_input_contract(k, w, barrier):
    # both estimators refuse what neither can estimate, and the same way
    with pytest.raises(DomainError):
        bridge_survival_dp(k, w, barrier)
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    with pytest.raises(DomainError):
        bridge_survival_mc(rng, k, w, barrier, 10_000)
    assert rng.bit_generator.state == state


def test_mc_insufficient_hits(rng):
    with pytest.raises(InsufficientSampleError):
        bridge_survival_mc(rng, 100, 25.0, lambda j: math.inf, 10_000)


def test_mc_requires_paths(rng):
    with pytest.raises(DomainError):
        bridge_survival_mc(rng, 10, 0.0, lambda j: 1.0, 100)


def test_mc_single_step_bin_probability(rng):
    # barrier off: endpoint bin frequency matches the Gaussian bin mass
    est, se = bridge_survival_mc(rng, 1, 0.0, lambda j: math.inf, 100_000)
    assert est == pytest.approx(1.0)


def test_ballot_bound_forms():
    profile = BarrierProfile(y=4.0, n=40.0)
    k = 16
    w = centering(k, 40.0) + upper_barrier(k, profile)
    got = ballot_bound(k, w, profile)
    expect = (4 + 1) * 1.0 * k ** -1.5 * math.exp(-w * w / k)
    assert got == pytest.approx(expect)
