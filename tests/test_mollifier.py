import numpy as np
import pytest

from zetalab.errors import CapacityError
from zetalab.mollifier import (MollifierSpec, evaluate_poly, mollifier_approx_check,
                               mollifier_coeffs)


def test_coeffs_hand_cases(table_small):
    spec = MollifierSpec(prime_lo=1.5, prime_hi=3.5, omega_cap=1)
    assert mollifier_coeffs(table_small, spec).terms == {1: 1, 2: -1, 3: -1}
    spec2 = MollifierSpec(prime_lo=1.5, prime_hi=3.5, omega_cap=2)
    assert mollifier_coeffs(table_small, spec2).terms == {1: 1, 2: -1, 3: -1, 6: 1}
    spec0 = MollifierSpec(prime_lo=1.5, prime_hi=3.5, omega_cap=0)
    assert mollifier_coeffs(table_small, spec0).terms == {1: 1}


def test_coeff_signs_and_support(table_small):
    spec = MollifierSpec(prime_lo=2.5, prime_hi=30.0, omega_cap=3, length_cap=5000)
    poly = mollifier_coeffs(table_small, spec)
    primes = {3, 5, 7, 11, 13, 17, 19, 23, 29}
    for m, coeff in poly.terms.items():
        factors = [p for p in primes if m % p == 0]
        assert m <= 5000
        rebuilt = 1
        for p in factors:
            rebuilt *= p
        assert rebuilt == m          # squarefree, all factors in range
        assert len(factors) <= 3
        assert coeff == (-1) ** len(factors)


def test_length_cap(table_small):
    spec = MollifierSpec(prime_lo=2.5, prime_hi=14.0, length_cap=20)
    poly = mollifier_coeffs(table_small, spec)
    assert set(poly.terms) == {1, 3, 5, 7, 11, 13, 15}


def test_term_budget(table_small):
    spec = MollifierSpec(prime_lo=2.5, prime_hi=200.0, term_budget=50)
    with pytest.raises(CapacityError):
        mollifier_coeffs(table_small, spec)


def test_evaluate_poly_trivial():
    from zetalab.mollifier import SparsePoly
    assert evaluate_poly(SparsePoly({1: 1.0}), 3.7 + 2j) == 1.0
    assert evaluate_poly(SparsePoly({1: 1.0, 2: -1.0}), 1.0 + 0j) == pytest.approx(0.5)


def test_uncapped_poly_is_euler_product(table_small, rng):
    spec = MollifierSpec(prime_lo=2.5, prime_hi=14.0)
    poly = mollifier_coeffs(table_small, spec)
    primes = [3, 5, 7, 11, 13]
    for _ in range(20):
        s = complex(rng.uniform(0.4, 2.0), rng.uniform(-50, 50))
        direct = np.prod([1 - p ** -s for p in primes])
        assert abs(evaluate_poly(poly, s) - direct) < 1e-12


def test_uncapped_poly_on_critical_line(table_small, rng):
    spec = MollifierSpec(prime_lo=2.5, prime_hi=38.0)
    poly = mollifier_coeffs(table_small, spec)
    primes = table_small.slice_leq(2.5, 38.0)
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


def test_approx_check_capped_matches_uncapped_when_cap_is_big(table_small, rng):
    taus = rng.uniform(10.0, 50.0, size=5)
    capped = mollifier_approx_check(table_small, 0.0, 1.0, taus, omega_cap=5)
    uncapped = mollifier_approx_check(table_small, 0.0, 1.0, taus)
    assert capped.holds == uncapped.holds


def test_approx_check_hypothesis_exclusion(table_small):
    # an absurdly small hypothesis constant excludes every sample
    report = mollifier_approx_check(table_small, 0.0, 1.0, np.array([12.0]),
                                    hyp_const=1e-9)
    assert report.excluded == 1

