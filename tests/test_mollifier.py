import math

import numpy as np
import pytest

from zetalab import mollifier
from zetalab.errors import CapacityError, DomainError
from zetalab.mollifier import evaluate_poly, mollifier_approx_check, mollifier_coeffs


def test_coeffs_hand_cases(table_small):
    primes = table_small.slice_leq(1.5, 3.5)
    assert mollifier_coeffs(primes, 1) == {1: 1, 2: -1, 3: -1}
    assert mollifier_coeffs(primes, 2) == {1: 1, 2: -1, 3: -1, 6: 1}
    assert mollifier_coeffs(primes, 0) == {1: 1}
    assert mollifier_coeffs(primes[:0], math.inf) == {1: 1}   # the empty product
    with pytest.raises(DomainError):
        mollifier_coeffs(primes, -1)


def test_coeff_signs_and_support(table_small):
    poly = mollifier_coeffs(table_small.slice_leq(2.5, 30.0), 3)
    primes = {3, 5, 7, 11, 13, 17, 19, 23, 29}
    assert len(poly) == 1 + 9 + 36 + 84   # every m with at most 3 of the 9 primes
    for m, coeff in poly.items():
        factors = [p for p in primes if m % p == 0]
        rebuilt = 1
        for p in factors:
            rebuilt *= p
        assert rebuilt == m          # squarefree, all factors in range
        assert len(factors) <= 3
        assert coeff == (-1) ** len(factors)


def test_term_budget(table_small, monkeypatch):
    monkeypatch.setattr(mollifier, "TERM_BUDGET", 50)
    with pytest.raises(CapacityError):
        mollifier_coeffs(table_small.slice_leq(2.5, 200.0), math.inf)


def test_evaluate_poly_trivial():
    assert evaluate_poly({1: 1.0}, 3.7 + 2j) == 1.0
    assert evaluate_poly({1: 1.0, 2: -1.0}, 1.0 + 0j) == pytest.approx(0.5)


def test_uncapped_poly_is_euler_product(table_small, rng):
    poly = mollifier_coeffs(table_small.slice_leq(2.5, 14.0), math.inf)
    primes = [3, 5, 7, 11, 13]
    for _ in range(20):
        s = complex(rng.uniform(0.4, 2.0), rng.uniform(-50, 50))
        direct = np.prod([1 - p ** -s for p in primes])
        assert abs(evaluate_poly(poly, s) - direct) < 1e-12


def test_uncapped_poly_on_critical_line(table_small, rng):
    primes = table_small.slice_leq(2.5, 38.0)
    poly = mollifier_coeffs(primes, math.inf)
    worst = 0.0
    for _ in range(100):
        s = complex(0.5, rng.uniform(0, 1e4))
        direct = np.prod([1 - p ** -s for p in primes.astype(float)])
        worst = max(worst, abs(evaluate_poly(poly, s) - direct))
    assert worst < 1e-10


def test_approx_check_exact_mode(table_small, rng):
    taus = rng.uniform(1e6, 2e6, size=10)
    report = mollifier_approx_check(table_small, 0.0, 1.0, taus)
    assert report.total == 10
    assert report.excluded == 0
    assert report.fraction == 1.0
    assert report.max_equality_residual < 1e-10


def test_approx_check_window_without_primes(table_small):
    # (0, 0.01] asks for 1 < log p <= e^0.01, which no prime meets: the
    # mollifier is the empty product 1 and the identity holds exactly
    report = mollifier_approx_check(table_small, 0.0, 0.01, np.array([1e6, 1.5e6]))
    assert report.total == 2 and report.excluded == 0
    assert report.max_equality_residual == 0.0
    assert report.fraction == 1.0


def test_approx_check_capped_matches_uncapped_when_cap_is_big(table_small, rng):
    taus = rng.uniform(10.0, 50.0, size=5)
    capped = mollifier_approx_check(table_small, 0.0, 1.0, taus, omega_cap=5)
    uncapped = mollifier_approx_check(table_small, 0.0, 1.0, taus)
    assert capped.holds == uncapped.holds


def test_approx_check_hypothesis_exclusion(table_small, monkeypatch):
    # an absurdly small hypothesis constant excludes every sample
    monkeypatch.setattr(mollifier, "HYPOTHESIS_CONSTANT", 1e-9)
    report = mollifier_approx_check(table_small, 0.0, 1.0, np.array([12.0]))
    assert report.excluded == 1

