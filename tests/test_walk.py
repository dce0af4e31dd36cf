import cmath
import math

import numpy as np
import pytest

from zetalab.walk import euler_product_check, higher_order_tail, partial_sum, primes_in_log_range


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

