import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from zetalab import parallel
from zetalab.errors import DomainError, InsufficientSampleError, ToleranceError
from zetalab.barrier import (STEP_VAR, BarrierProfile, _gauss_kernel, _same_convolver,
                             ballot_bound, bridge_survival_dp, bridge_survival_exact,
                             bridge_survival_mc, upper_barrier)
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
    for k, w, level in ((20, 0.0, 0.0), (0, 0.0, 1.0), (20, 1e6, 1e7)):
        with pytest.raises(DomainError):
            bridge_survival_exact(k, w, level)


def test_ballot_sweep_same_on_any_pool(tmp_path, monkeypatch):
    # the sweep's DPs run as fixed items on the shared pool
    base = dict(experiment="ballot_sweep", seed=3,
                params={"n_random_configs": 2, "mc_paths": 10_000})
    want = run(ExperimentConfig(out_dir=str(tmp_path / "default"), **base))
    want.metrics.pop("elapsed_s")
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
