import math

import numpy as np
import pytest

from zetalab.errors import CapacityError, DomainError
from zetalab.experiments import chunk_streams, parallel_chunks
from zetalab.model import (branching_pattern, centering, density_check,
                           e_z_xp_quadrature, increment_gaussianity, laplace_check,
                           sample_hierarchical_leaves, sample_hierarchical_maxima,
                           draw_window_sums, sample_window_sums, tail_slope,
                           window_split, x_p_values, x_p_variance)
from zetalab.primes import primes_in_log_range
from zetalab.walk import partial_sum


def test_x_p_deterministic_angle():
    got = x_p_values(np.array([5]), np.array([0.0]))[0]
    assert got == pytest.approx(5 ** -0.5 + 0.5 / 5, abs=1e-12)
    assert got == pytest.approx(0.547214, abs=1e-6)


def test_x_p_mean_and_variance(rng):
    p = 11
    theta = rng.uniform(0, 2 * math.pi, size=10 ** 6)
    vals = x_p_values(np.full(10 ** 6, p), theta)
    var = 1 / (2 * p) + 1 / (8 * p * p)
    assert abs(np.mean(vals)) < 3 * math.sqrt(var / 1e6)
    # fourth-moment based 3-sigma window for the sample variance
    m4 = np.mean((vals - np.mean(vals)) ** 4)
    assert abs(np.var(vals) - var) < 3 * math.sqrt(m4 / 1e6)


def test_quadrature_expansion():
    p, z = 10007, 0.1
    resid = abs(e_z_xp_quadrature(p, z) - (1 + z * z / (4 * p)))
    assert resid <= 1e-9


def test_euler_path_zero_angles_match_walk(table_small):
    # with all angles zero the model reproduces the deterministic walk at tau = h = 0
    for k in (0.8, 1.5):
        primes = primes_in_log_range(table_small, 0.0, k)
        model_sum = float(np.sum(x_p_values(primes, np.zeros(len(primes)))))
        assert model_sum == pytest.approx(partial_sum(table_small, 0.0, k, 0.0).real,
                                          abs=1e-12)


def test_window_sums_split_consistency(table_medium):
    # forcing everything exact vs the gaussianized tail: same mean/variance
    rng1 = np.random.default_rng(11)
    rng2 = np.random.default_rng(11)
    exact, info_exact = sample_window_sums(rng1, table_medium, 1.0, 2.3, 40_000,
                                           exact_below=10 ** 7)
    split, info_split = sample_window_sums(rng2, table_medium, 1.0, 2.3, 40_000)
    assert info_exact.tail_variance == 0.0
    assert info_split.n_exact < len(table_medium.primes)
    assert info_split.tail_bias_bound < 1e-5
    assert abs(np.var(exact) - np.var(split)) < 4 * np.var(exact) / math.sqrt(40_000)


def reference_window_sums(rng, table, j, k, n_samples, exact_below=10_000):
    """The sampler as it was before the split was factored out: the split is
    recomputed on every call."""
    primes = primes_in_log_range(table, j, k)
    head = primes[primes <= exact_below]
    tail = primes[len(head):]
    tail_var = float(np.sum(x_p_variance(tail))) if len(tail) else 0.0
    out = np.zeros(n_samples)
    if tail_var > 0:
        out += rng.normal(0.0, math.sqrt(tail_var), size=n_samples)
    head_f = head.astype(float)
    amp1, amp2 = 1.0 / np.sqrt(head_f), 0.5 / head_f
    for lo in range(0, n_samples, 1 << 14):
        hi = min(n_samples, lo + (1 << 14))
        acc = np.zeros(hi - lo)
        for b in range(0, len(head), 256):
            be = min(len(head), b + 256)
            c = np.cos(rng.uniform(0.0, 2.0 * math.pi, size=(hi - lo, be - b)))
            acc += c @ amp1[b:be] + (2.0 * c * c - 1.0) @ amp2[b:be]
        out[lo:hi] += acc
    return out


def test_chunked_draws_with_one_split_match_per_chunk_calls(table_medium):
    split = window_split(table_medium, 1.0, 2.3)
    assert split.tail_variance > 0 and split.n_exact > 256   # a Gaussian tail, two blocks
    got = np.concatenate(parallel_chunks(3, 3000, lambda rng, n: draw_window_sums(rng, split, n)))
    want = np.concatenate([reference_window_sums(rng, table_medium, 1.0, 2.3, n)
                           for rng, n in chunk_streams(3, 3000)])
    assert np.array_equal(got, want)
    samples, info = sample_window_sums(np.random.default_rng(4), table_medium, 1.0, 2.3, 100)
    assert np.array_equal(samples, reference_window_sums(np.random.default_rng(4), table_medium,
                                                         1.0, 2.3, 100))
    assert (info.n_exact, info.tail_variance, info.tail_bias_bound) == \
        (split.n_exact, split.tail_variance, split.tail_bias_bound)


def test_window_sum_variance_matches(table_medium, rng):
    samples, info = sample_window_sums(rng, table_medium, 1.0, 2.3, 200_000)
    target = float(np.sum(x_p_variance(primes_in_log_range(table_medium, 1.0, 2.3))))
    split_var = info.tail_variance + float(np.sum(x_p_variance(info.head)))
    assert split_var == pytest.approx(target, rel=1e-12)
    assert np.var(samples) == pytest.approx(target, rel=0.02)


def test_laplace_trivial_and_bound(table_small, rng):
    rep = laplace_check(rng, table_small, 1.0, 2.0, 0.0, 10_000)
    assert rep.estimate == 1.0
    rep2 = laplace_check(rng, table_small, 1.0, 2.0, 1.0, 200_000)
    assert rep2.estimate == pytest.approx(math.exp(0.25), abs=0.05)
    assert rep2.estimate <= rep2.bound
    # at z = 1 the residual is z^2/(16 p^2) + O(z^3 p^-3/2); the tighter 1e-9
    # figure at z = 0.1 is covered by test_quadrature_expansion
    assert rep2.quadrature_residual <= 1e-8
    with pytest.raises(DomainError):
        laplace_check(rng, table_small, 1.0, 2.0, 11.0, 10_000)


def test_increment_gaussianity_small_range_is_far(table_small):
    # the unit window (-1, 0] holds the single prime 2: visibly non-Gaussian
    # (distance 0.36-0.37 at seeds 3-5)
    rng = np.random.default_rng(3)
    comp = increment_gaussianity(rng, table_small, 0.0, 20_000)
    assert comp.sup_distance > 0.05


def test_increment_gaussianity_improves_with_width(table_medium):
    # the unit window (k - 1, k] spans e^k (1 - 1/e) in log p, so it widens
    # and holds more primes as k grows (distances ~0.08, 0.01, 0.007)
    rng = np.random.default_rng(4)
    dists = [increment_gaussianity(rng, table_medium, k, 40_000).sup_distance
             for k in (0.5, 1.5, 2.5)]
    assert dists[2] < dists[0]


def test_increment_gaussianity_guard(table_small, rng):
    with pytest.raises(DomainError):
        increment_gaussianity(rng, table_small, 1.5, 100)


def test_density_symmetry_and_shape(table_medium):
    rng = np.random.default_rng(9)
    rows = density_check(rng, table_medium, 2.3, 4.0, 150_000)
    by_v = {row.v: row for row in rows}
    # symmetric bins at +-v balance within 3 sigma
    p_plus, p_minus = by_v[0.0].empirical, by_v[-0.25].empirical
    sigma = math.sqrt(p_plus / 150_000)
    assert abs(p_plus - p_minus) < 3 * sigma + 0.002
    assert all(0.1 <= row.ratio <= 10 for row in rows)


def test_density_halving(table_medium):
    rng = np.random.default_rng(10)
    rows4 = density_check(rng, table_medium, 2.3, 4.0, 100_000)
    rows8 = density_check(rng, table_medium, 2.3, 8.0, 100_000)
    p4 = next(r for r in rows4 if r.v == 0.0).empirical
    p8 = next(r for r in rows8 if r.v == 0.0).empirical
    assert p8 == pytest.approx(p4 / 2, abs=3 * math.sqrt(p4 / 100_000))


def test_branching_pattern_log_average():
    pat = branching_pattern(14, math.e)
    assert set(pat) <= {2, 3}
    assert abs(sum(math.log(c) for c in pat) - 14.0) < 0.5
    assert branching_pattern(6, 2.0) == [2] * 6


def test_hierarchical_capacity():
    # the 1e7-leaf budget is checked before any leaf is drawn
    with pytest.raises(CapacityError):
        sample_hierarchical_maxima(np.random.default_rng(0), 18, math.e, 1)


def test_hierarchical_covariance(rng):
    pattern = branching_pattern(6, math.e)
    leaves = sample_hierarchical_leaves(rng, pattern, 4000)
    # first two leaves share all but the last few levels
    # leaves 0 and 1 split at the deepest level where the path last branches
    cov = np.cov(leaves[:, 0], leaves[:, 1])[0, 1]
    shared = 0
    idx0, idx1, width = 0, 1, math.prod(pattern)
    for c in pattern:
        width //= c
        if idx0 // width == idx1 // width:
            shared += 1
        else:
            break
    assert cov == pytest.approx(0.5 * shared, abs=0.1)


def test_hierarchical_depth_one(rng):
    pattern = branching_pattern(1, math.e)
    leaves = sample_hierarchical_leaves(rng, pattern, 2000)
    assert leaves.shape[1] == pattern[0]
    assert abs(np.var(leaves.ravel()) - 0.5) < 0.05


def test_centering_values():
    assert centering(16, 16) == pytest.approx(13.92056, abs=1e-5)
    assert centering(0, 16) == 0.0
    assert centering(8, 16) * 2 == pytest.approx(centering(16, 16))
    with pytest.raises(DomainError):
        centering(4, 1.0)


def test_tail_slope_requires_points(rng):
    with pytest.raises(DomainError):
        tail_slope(np.array([0.0, 0.1]), np.array([1.0, 2.0, 3.0]))
