import cmath
import hashlib
import json
import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest

import zetalab
from zetalab import parallel, walk, zeta
from zetalab.errors import CapacityError
from zetalab.walk import euler_product_check, higher_order_tail, partial_sum, primes_in_log_range
from zetalab.zeta import MAX_T, zeta_critical, zeta_on_grid


def brute_partial_sum(table, k_start, k, tau, h):
    total = 0.0 + 0.0j
    for p in primes_in_log_range(table, k_start, k):
        s = 0.5 + 1j * (tau + h)
        total += cmath.exp(-s * math.log(p)) + 0.5 * cmath.exp(-2 * s * math.log(p))
    return total


def test_partial_sum_hand_value(table_small):
    got = partial_sum(table_small, 0.0, 1.0, 0.0)
    assert got.real == pytest.approx(2.403400, abs=2e-5)
    assert got.imag == pytest.approx(0.0, abs=1e-12)


def test_partial_sum_single_prime(table_small):
    got = partial_sum(table_small, 0.05, 0.12, 0.0)   # only p = 3
    assert primes_in_log_range(table_small, 0.05, 0.12).tolist() == [3]
    assert got.real == pytest.approx(3 ** -0.5 + 0.5 / 3, abs=1e-12)
    assert got.real == pytest.approx(0.744017, abs=1e-6)


def test_partial_sum_empty(table_small):
    assert partial_sum(table_small, 1.0, 1.0, 5.1) == 0


def test_partial_sum_matches_brute(table_small, rng):
    for _ in range(10):
        tau = float(rng.uniform(0, 1e5))
        h = float(rng.uniform(-2, 2))
        got = partial_sum(table_small, 0.0, 1.8, tau + h)
        ref = brute_partial_sum(table_small, 0.0, 1.8, tau, h)
        assert abs(got - ref) < 1e-9


def test_conjugate_symmetry_at_tau_zero(table_small):
    below = partial_sum(table_small, 0.0, 1.6, -0.7)
    above = partial_sum(table_small, 0.0, 1.6, 0.7)
    assert below == pytest.approx(np.conj(above), abs=1e-12)


def test_higher_order_tail_single_prime(table_small):
    s = 0.5 + 0.0j
    got = higher_order_tail(table_small, 0.05, 0.12, s)   # p = 3 only
    closed = -math.log(abs(1 - 3 ** -0.5)) - 3 ** -0.5 - 0.5 / 3
    assert got == pytest.approx(closed, abs=1e-12)


def test_higher_order_tail_bound(table_small):
    got = higher_order_tail(table_small, 0.0, 1.5, 0.5 + 3.3j)
    primes = primes_in_log_range(table_small, 0.0, 1.5).astype(float)
    bound = float(np.sum(primes ** -1.5 / (1 - primes ** -0.5)))
    assert abs(got) <= bound


def test_higher_order_tail_empty(table_small):
    assert higher_order_tail(table_small, 1.0, 1.0, 0.5 + 1j) == 0.0


def test_euler_product_small(table_small):
    # p in {3, 5}
    resid = euler_product_check(table_small, 0.05, 0.48, 0.5 + 0.0j)
    assert resid < 1e-12


def test_euler_product_empty(table_small):
    assert euler_product_check(table_small, 1.0, 1.0, 0.5 + 1j) == 0.0


def test_euler_product_random_tau(table_small, rng):
    worst = 0.0
    for _ in range(30):
        tau = float(rng.uniform(1e6, 2e6))
        k_hi = float(rng.uniform(0.5, 2.2))
        worst = max(worst, euler_product_check(table_small, 0.0, k_hi, 0.5 + 1j * tau))
    assert worst < 1e-10



def test_two_pi_to_the_last_bit_of_the_extended_type():
    # 40 digits of pi; the float64 value, the old modulus, is 2.45e-16 short
    # of 2 pi, 565 ulps of the 80-bit type
    pi = Fraction("3.141592653589793238462643383279502884197")
    for value, exact in ((walk._PI_LD, pi), (walk._TWO_PI_LD, 2 * pi)):
        ulp = Fraction(*np.spacing(value).as_integer_ratio())
        assert abs(Fraction(*value.as_integer_ratio()) - exact) <= ulp


def test_bessel_table_matches_scipy():
    jv = pytest.importorskip("scipy.special").jv
    k = np.arange(64)
    # all of chunk 0, and every 97th row of chunks up to chunk 48, which holds
    # the longest main sum below MAX_T
    assert (math.floor(math.sqrt(MAX_T / (2.0 * math.pi))) - 1) // 8192 == 48
    for c in (0, 1, 12, 48):
        rows = slice(None) if c == 0 else slice(None, None, 97)
        # the float64 logs the chunk is built from
        z = 2.0 * walk._chunk(c).logs[rows]
        assert np.abs(walk._bessel_chunk(c)[rows] - jv(k, z[:, None])).max() <= 1e-15
    assert np.array_equal(walk._bessel_chunk(0)[0], (k == 0).astype(float))     # n = 1: J_k(0)


@pytest.mark.parametrize("n", [1, 8192, 8193, 20_000])
def test_reading_n_rows_builds_ceil_n_over_c_chunks(n):
    # the multiplicative table (powers) and the Bessel table (shifted_sums)
    assert walk._CHUNK == 8192
    walk._chunk.cache_clear()
    walk._bessel_chunk.cache_clear()
    walk.powers(n, 0.5 + 1e3j)
    assert walk._chunk.cache_info().currsize == math.ceil(n / 8192)
    sums = walk.shifted_sums(1e3, np.array([1e3]), n, np.array([n]))
    assert walk._chunk.cache_info().currsize == math.ceil(n / 8192)
    assert walk._bessel_chunk.cache_info().currsize == math.ceil(n / 8192)
    assert abs(sums[0] - np.sum(walk.powers(n, 0.5 + 1e3j))) <= 1e-12 * math.sqrt(n)


def test_int_powers_range_and_empty():
    # the int path's reduction is exact while |t| log n / 2 pi < 2^43 (|t| up
    # to 4.3e12 at n = 398,942); beyond, a call raises before it reads a chunk
    assert walk.powers(0, 0.5 + 1e3j).shape == (0,)
    assert walk.powers(1, 0.5 + 9.9e11j).tolist() == [1.0]
    with pytest.raises(CapacityError):
        walk.powers(400_000, 0.5 + 5e12j)
    assert walk.logs(0).shape == (0,)


def _sha(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def _table_sha(c: int) -> str:
    # every array of the multiplicative chunk c, then its Bessel chunk
    chunk = walk._chunk(c)
    arrays = [chunk.logs, chunk.primes, chunk.amp, chunk.turns, *chunk.levels, chunk.counts,
              *walk._circle(), walk._bessel_chunk(c)]
    return hashlib.sha256(b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)).hexdigest()


@pytest.mark.parametrize("descending", [False, True])
def test_bessel_table_growth_order_keeps_bits(descending):
    # a fresh interpreter builds the multiplicative and Bessel chunks and the
    # unit circle from empty, going up or going down; each chunk depends on
    # its index alone
    chunks = sorted((0, 1, 2, 48), reverse=descending)
    src = os.path.dirname(os.path.dirname(zetalab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import json, sys\n"
            "sys.path.insert(0, sys.argv[2])\n"
            "from test_walk import _table_sha\n"
            "print(json.dumps([_table_sha(c) for c in json.loads(sys.argv[1])]))")
    out = subprocess.run([sys.executable, "-c", code, json.dumps(chunks),
                          os.path.dirname(__file__)], env=env,
                         check=True, capture_output=True, text=True, timeout=120)
    assert json.loads(out.stdout) == [_table_sha(c) for c in chunks]


@pytest.mark.parametrize("workers", [1, 8])
def test_bessel_table_shared_by_threads(monkeypatch, workers):
    # pool items race to fill the emptied Bessel and multiplicative chunks and
    # the unit circle, half upward and half downward, with frequent thread
    # switches; 1e9 reads two chunks
    heights = [60.5, 1e3 + 0.5, 1e5 + 0.25, 1.5e7, 2e8, 1e9 + 0.5]
    items = [sorted(heights, reverse=bool(i % 2)) for i in range(8)]
    grid = np.linspace(-1.0, 1.0, 9)

    def values(ts):
        return [_sha(zeta_on_grid(t, grid)) for t in ts]

    serial = [values(ts) for ts in items]
    interval = sys.getswitchinterval()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        monkeypatch.setattr(parallel, "_pool", pool)
        walk._bessel_chunk.cache_clear()
        walk._chunk.cache_clear()
        walk._circle.cache_clear()
        sys.setswitchinterval(1e-6)
        try:
            assert parallel.map_blocks(values, items) == serial
        finally:
            sys.setswitchinterval(interval)


@pytest.mark.parametrize("descending", [False, True])
def test_rs_lattice_build_order_keeps_bits(descending):
    # a fresh interpreter builds the contour lattice's nodes from empty, in
    # order going up or going down; each node depends on its index alone
    ks = sorted(range(-256, 257, 17), reverse=descending)
    src = os.path.dirname(os.path.dirname(zetalab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import hashlib, json, sys\n"
            "from zetalab import zeta\n"
            "print(json.dumps([hashlib.sha256(zeta._rs_node(k).tobytes()).hexdigest()\n"
            "                  for k in json.loads(sys.argv[1])]))")
    out = subprocess.run([sys.executable, "-c", code, json.dumps(ks)], env=env,
                         check=True, capture_output=True, text=True, timeout=120)
    assert json.loads(out.stdout) == [_sha(zeta._rs_node(k)) for k in ks]


@pytest.mark.parametrize("workers", [1, 8])
def test_rs_lattice_shared_by_threads(monkeypatch, workers):
    # pool items race to fill the emptied lattice, half upward and half
    # downward, with frequent thread switches; a node depends on its index
    # alone, so emptying the process-wide cache leaves no trace
    heights = [50.25, 57.5, 60.5, 1e3 + 0.5, 1e5 + 0.25, 1.5e7, 2e8]
    items = [sorted(heights, reverse=bool(i % 2)) for i in range(8)]
    grid = np.linspace(-1.0, 1.0, 9)

    def values(ts):
        return [(_sha(zeta_on_grid(t, grid)), repr(zeta_critical(t))) for t in ts]

    serial = [values(ts) for ts in items]
    interval = sys.getswitchinterval()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        monkeypatch.setattr(parallel, "_pool", pool)
        zeta._rs_node.cache_clear()
        sys.setswitchinterval(1e-6)
        try:
            assert parallel.map_blocks(values, items) == serial
        finally:
            sys.setswitchinterval(interval)


def test_rs_lattice_shift_matches_direct_contour(rng):
    # F^(m)(p) shifted from the nearest node against a contour at p itself,
    # for every order that a correction of up to 20 levels reads, the 400 p
    # in one call per count; relative to |F^(m)(p)|, floored at m! / 2^m, the
    # size below which the contour's own rounding (absolute, about
    # 2^-52 m! / radius^m) decides
    assert zeta._RS_MAX_LEVELS == 20
    m = np.arange(3 * 19 + 1)
    floor = np.array([math.factorial(int(v)) for v in m]) / 2.0 ** m
    ps = rng.uniform(-1.0, 1.0, size=400)
    counts = np.array([3 * (int(rng.integers(2, 21)) - 1) + 1 for _ in ps])
    ks = np.rint(ps * zeta._RS_LATTICE).astype(int)
    worst = 0.0
    for count in sorted(set(counts.tolist())):
        rows = np.flatnonzero(counts == count)
        derivs = np.array([zeta._rs_node(k)[:count + zeta._RS_SHIFT_CAP] for k in ks[rows].tolist()])
        shifted = zeta._rs_shift(derivs, ps[rows] - ks[rows] / zeta._RS_LATTICE, count)
        for p, row in zip(ps[rows], shifted):
            direct = zeta._rs_derivatives(p, count)
            worst = max(worst, float(np.max(np.abs(row - direct)
                                            / np.maximum(np.abs(direct), floor[:count]))))
    assert worst <= 1e-13
