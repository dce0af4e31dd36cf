import math
import os
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import zetalab
from zetalab import parallel
from zetalab.errors import CapacityError, DomainError
from zetalab.experiments import chunk_streams, parallel_chunks, seed_stream
from zetalab.model import (MAX_SAMPLES, WindowSplit, _draw_leaves, _jumped, branching_pattern,
                           centering, density_check, e_z_xp_quadrature, increment_gaussianity,
                           laplace_check, sample_hierarchical_maxima, draw_window_sums,
                           sample_window_sums, tail_slope, window_split, x_p_values,
                           x_p_variance)
from zetalab.primes import SEGMENT_SIZE, primes_in_log_range, sieve_primes
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
    # every prime of the window simulated exactly vs the gaussianized tail:
    # same mean/variance
    rng1 = np.random.default_rng(11)
    rng2 = np.random.default_rng(11)
    all_exact = WindowSplit(primes_in_log_range(table_medium, 1.0, 2.3), 0.0, 0.0)
    exact = draw_window_sums(rng1, all_exact, 40_000)
    split, info_split = sample_window_sums(rng2, table_medium, 1.0, 2.3, 40_000)
    assert info_split.n_exact < all_exact.n_exact
    assert info_split.tail_bias_bound < 1e-5
    assert abs(np.var(exact) - np.var(split)) < 4 * np.var(exact) / math.sqrt(40_000)


def reference_window_sums(rng, table, j, k, n_samples, exact_below=10_000):
    """The sampler as it was before the split was factored out: the split is
    recomputed on every call, and every draw comes serially from `rng`.  The
    row sums use the sampler's BLAS-free reduction; a BLAS `@` would make the
    bits depend on the BLAS thread count."""
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
            acc += np.einsum("ij,j->i", c, amp1[b:be]) \
                + np.einsum("ij,j->i", 2.0 * c * c - 1.0, amp2[b:be])
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


@pytest.mark.parametrize("make_bit_gen", [lambda: np.random.Philox(key=17),
                                           lambda: np.random.PCG64(17)])
def test_jump_matches_serial_skip(make_bit_gen):
    warm = make_bit_gen()
    warm.random_raw(6, output=False)   # a live Philox buffer, half spent
    for pos in (0, 1, 2, 3, 4) if "buffer_pos" in warm.state else (None,):
        state = warm.state
        if pos is not None:
            state["buffer_pos"] = pos
        state["has_uint32"], state["uinteger"] = 1, 12345   # a buffered 32-bit half
        for n in list(range(10)) + [1_000_003]:
            serial = make_bit_gen()
            serial.state = state
            serial.random_raw(n, output=False)
            jumped = _jumped(state, n)
            assert jumped.state["has_uint32"] == 1 and jumped.state["uinteger"] == 12345
            assert np.array_equal(jumped.random_raw(9), serial.random_raw(9)), (pos, n)


def test_window_sums_pooled_match_serial_stream(table_medium, monkeypatch):
    # 40,001 rows: three sample chunks, the last of 7,233 rows, which ends
    # inside a row block; five prime blocks
    split = window_split(table_medium, 0.0, 2.6)
    assert split.tail_variance > 0 and split.n_exact > 4 * 256
    runs = [(None, lambda: np.random.default_rng(4))]   # PCG64 on the default pool
    runs += [(workers, lambda: seed_stream(1, 5)) for workers in (None, 1, 8)]   # Philox
    wants = {}
    for workers, make in runs:
        if make not in wants:
            serial = make()
            wants[make] = (reference_window_sums(serial, table_medium, 0.0, 2.6, 40_001),
                           serial.bit_generator.state)
        want, serial_state = wants[make]
        rng = make()
        if workers is None:
            got = draw_window_sums(rng, split, 40_001)
        else:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                monkeypatch.setattr(parallel, "_pool", pool)
                got = draw_window_sums(rng, split, 40_001)
        assert np.array_equal(got, want)
        # the caller's stream ends where the serial sampler leaves it
        probe = make()
        probe.bit_generator.state = serial_state
        assert np.array_equal(rng.uniform(size=5), probe.uniform(size=5))


def test_window_sums_refuse_unjumpable_streams(table_medium):
    split = window_split(table_medium, 1.0, 2.0)
    rng = np.random.Generator(np.random.MT19937(3))
    before = rng.bit_generator.state
    with pytest.raises(DomainError):
        draw_window_sums(rng, split, 100)
    assert rng.bit_generator.state["state"]["pos"] == before["state"]["pos"]   # nothing drawn
    with pytest.raises(CapacityError):   # the budget is checked before any allocation
        draw_window_sums(np.random.default_rng(0), split, MAX_SAMPLES + 1)


def test_window_sum_bits_do_not_depend_on_blas_threads():
    # the row sums skip BLAS, whose gemv splits rows by its own thread count
    code = ("import hashlib, numpy as np; from zetalab import model, primes; "
            "split = model.window_split(primes.cached_sieve(2 * 10 ** 6), 1.0, 2.3); "
            "s = model.draw_window_sums(np.random.default_rng(4), split, 3001); "
            "print(hashlib.sha256(s.tobytes()).hexdigest())")
    src = os.path.dirname(os.path.dirname(zetalab.__file__))
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=120)
        digests.add(out.stdout.strip())
    assert len(digests) == 1


def test_window_sum_variance_matches(table_medium, rng):
    samples, info = sample_window_sums(rng, table_medium, 1.0, 2.3, 200_000)
    target = float(np.sum(x_p_variance(primes_in_log_range(table_medium, 1.0, 2.3))))
    assert info.variance == pytest.approx(target, rel=1e-12)
    assert np.var(samples) == pytest.approx(target, rel=0.02)


def test_window_split_keeps_one_segment_sums(table_medium):
    # a tail of at most 2^20 primes is one segment: one np.sum, as before
    split = window_split(table_medium, 1.0, 2.6)
    tail = primes_in_log_range(table_medium, 1.0, 2.6)[split.n_exact:]
    assert 0 < len(tail) <= SEGMENT_SIZE
    assert split.tail_variance == float(np.sum(x_p_variance(tail)))
    tail_f = tail.astype(float)
    skew = float(np.sum(0.375 / (tail_f * tail_f)))
    assert split.tail_bias_bound == skew / split.variance ** 1.5


def test_window_split_memory_is_one_segment_deep():
    # (2, 2.85] holds 1,984,695 tail primes, two segments: the tail sums
    # traced 32 MiB, where full-length float temporaries traced 76 MiB (and
    # 174 MiB over the 4.6M tail primes of (2, 2.9])
    table = sieve_primes(33_000_000)
    tracemalloc.start()
    try:
        split = window_split(table, 2.0, 2.85)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * 8 * SEGMENT_SIZE
    tail = primes_in_log_range(table, 2.0, 2.85)[split.n_exact:]
    assert len(tail) > SEGMENT_SIZE
    assert split.tail_variance == pytest.approx(math.fsum(x_p_variance(tail)), rel=1e-15)


def test_laplace_trivial_and_bound(table_small):
    rep = laplace_check(table_small, 1.0, 2.0, 0.0)
    assert rep.estimate == 1.0
    rep2 = laplace_check(table_small, 1.0, 2.0, 1.0)
    assert rep2.estimate == pytest.approx(math.exp(0.25), abs=0.05)
    assert rep2.estimate <= rep2.bound
    # at z = 1 the residual is z^2/(16 p^2) + O(z^3 p^-3/2); the tighter 1e-9
    # figure at z = 0.1 is covered by test_quadrature_expansion
    assert rep2.quadrature_residual <= 1e-8
    with pytest.raises(DomainError):
        laplace_check(table_small, 1.0, 2.0, 11.0)


def test_laplace_zero_lambda_is_one_with_a_tail(table_medium):
    assert window_split(table_medium, 2.1, 2.4).tail_variance > 0
    assert laplace_check(table_medium, 2.1, 2.4, 0.0).estimate == 1.0


def test_laplace_matches_the_sampled_law(table_small):
    # 200,000 draws of the law laplace_check integrates: their mean's target is its value
    samples, split = sample_window_sums(np.random.default_rng(101), table_small, 1.0, 2.0,
                                        200_000)
    assert split.n_exact == 249 and split.tail_variance == 0.0
    vals = np.exp(samples)
    stderr = float(np.std(vals)) / math.sqrt(len(vals))
    exact = laplace_check(table_small, 1.0, 2.0, 1.0).estimate
    assert abs(float(np.mean(vals)) - exact) <= 4 * stderr


def test_laplace_is_head_product_times_gaussian_tail(table_medium):
    split = window_split(table_medium, 2.1, 2.4)
    assert split.n_exact == 738 and split.tail_variance > 0
    lam = 1.5
    head = math.prod(float(e_z_xp_quadrature(int(p), lam)) for p in split.head)
    want = head * math.exp(0.5 * lam * lam * split.tail_variance)
    # 738 factors: the product's roundings stay under 738 * 2^-53 = 8.2e-14
    assert laplace_check(table_medium, 2.1, 2.4, lam).estimate == pytest.approx(want, rel=1e-13)


def test_increment_gaussianity_small_range_is_far(table_small):
    # the unit window (-1, 0] holds the single prime 2: visibly non-Gaussian
    # (distance 0.36-0.37 at seeds 3-5)
    rng = np.random.default_rng(3)
    comp = increment_gaussianity(rng, table_small, 0.0, 20_000)
    assert comp.sup_distance > 0.05
    assert comp.split.head.tolist() == [2] and comp.split.tail_variance == 0.0


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
    rows, _ = density_check(rng, table_medium, 2.3, 4.0, 150_000)
    by_v = {row.v: row for row in rows}
    # symmetric bins at +-v balance within 3 sigma
    p_plus, p_minus = by_v[0.0].empirical, by_v[-0.25].empirical
    sigma = math.sqrt(p_plus / 150_000)
    assert abs(p_plus - p_minus) < 3 * sigma + 0.002
    assert all(0.1 <= row.ratio <= 10 for row in rows)


def test_density_halving(table_medium):
    rng = np.random.default_rng(10)
    rows4, _ = density_check(rng, table_medium, 2.3, 4.0, 100_000)
    rows8, _ = density_check(rng, table_medium, 2.3, 8.0, 100_000)
    p4 = next(r for r in rows4 if r.v == 0.0).empirical
    p8 = next(r for r in rows8 if r.v == 0.0).empirical
    assert p8 == pytest.approx(p4 / 2, abs=3 * math.sqrt(p4 / 100_000))


def test_branching_pattern_log_average():
    pat = branching_pattern(14, math.e)
    assert set(pat) <= {2, 3}
    assert abs(sum(math.log(c) for c in pat) - 14.0) < 0.5
    assert branching_pattern(6, 2.0) == [2] * 6


def reference_leaves(rng, pattern, runs):
    """The copying sampler, the oracle for `_draw_leaves`: each level repeated
    over its children, plus a new array of normals."""
    values = np.zeros((runs, 1))
    for c in pattern:
        values = np.repeat(values, c, axis=1)
        values = values + rng.normal(0.0, math.sqrt(0.5), size=values.shape)
    return values


def reference_maxima(rng, depth, runs):
    pattern = branching_pattern(depth, math.e)
    out = np.empty(runs)
    for lo in range(0, runs, 8):
        hi = min(runs, lo + 8)
        out[lo:hi] = reference_leaves(rng, pattern, hi - lo).max(axis=1) - centering(depth, depth)
    return out


def leaves(rng, pattern, runs):
    """`_draw_leaves` into buffers of the sizes the sampler gives it."""
    bufs = (np.empty(runs * math.prod(pattern)), np.empty(runs * math.prod(pattern[:-1])))
    return _draw_leaves(rng, pattern, runs, bufs)


@pytest.mark.parametrize("depth", [1, 6, 12])
def test_leaves_drawn_in_place_match_reference(depth):
    pattern = branching_pattern(depth, math.e)
    for runs in (1, 5):
        got = leaves(np.random.default_rng(7), pattern, runs)
        assert np.array_equal(got, reference_leaves(np.random.default_rng(7), pattern, runs))


@pytest.mark.parametrize("depth", [6, 12])
def test_maxima_drawn_in_place_match_reference(depth, monkeypatch):
    for runs in (1, 5, 8, 16):
        got = sample_hierarchical_maxima(np.random.default_rng(13), depth, math.e, runs)
        assert np.array_equal(got, reference_maxima(np.random.default_rng(13), depth, runs))
    # through the suite's chunks on pools of 1 and 2 threads; at depth 6 the
    # chunks also hold 16 and 17 runs, two groups of 8 and a rest
    totals = (1, 5, 8, 16) + ((517,) if depth == 6 else ())
    for total in totals:
        want = np.concatenate([reference_maxima(rng, depth, n)
                               for rng, n in chunk_streams(31, total)])
        for workers in (1, 2):
            with ThreadPoolExecutor(max_workers=workers) as pool:
                monkeypatch.setattr(parallel, "_pool", pool)
                got = np.concatenate(parallel_chunks(
                    31, total, lambda rng, n: sample_hierarchical_maxima(rng, depth, math.e, n)))
            assert np.array_equal(got, want), (total, workers)


def test_hierarchical_capacity():
    # the 1e7-leaf budget is checked before any buffer exists or any leaf is drawn
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            sample_hierarchical_maxima(rng, 18, math.e, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20   # one run's leaves would take 8 B each, over 80 MB
    assert rng.bit_generator.state == before


def test_hierarchical_depth_one_has_no_centering():
    with pytest.raises(DomainError):
        sample_hierarchical_maxima(np.random.default_rng(0), 1, math.e, 4)


def test_hierarchical_covariance(rng):
    pattern = branching_pattern(6, math.e)
    values = leaves(rng, pattern, 4000)
    # first two leaves share all but the last few levels
    # leaves 0 and 1 split at the deepest level where the path last branches
    cov = np.cov(values[:, 0], values[:, 1])[0, 1]
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
    values = leaves(rng, pattern, 2000)
    assert values.shape[1] == pattern[0]
    assert abs(np.var(values.ravel()) - 0.5) < 0.05


def test_centering_values():
    assert centering(16, 16) == pytest.approx(13.92056, abs=1e-5)
    assert centering(0, 16) == 0.0
    assert centering(8, 16) * 2 == pytest.approx(centering(16, 16))
    with pytest.raises(DomainError):
        centering(4, 1.0)


def test_tail_slope_requires_points(rng):
    with pytest.raises(DomainError):
        tail_slope(np.array([0.0, 0.1]), np.array([1.0, 2.0, 3.0]))
