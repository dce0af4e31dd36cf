import math

import numpy as np
import pytest

from zetalab.errors import CapacityError, DomainError
from zetalab.primes import (LadderParams, cached_sieve, loglog, mertens_sum,
                            primes_in_log_range, scale_ladder_from_loglog, sieve_primes)


def brute_primes(limit):
    out = []
    for n in range(2, limit + 1):
        if all(n % d for d in range(2, int(math.isqrt(n)) + 1)):
            out.append(n)
    return out


def test_sieve_tiny_cases():
    assert sieve_primes(10).primes.tolist() == [2, 3, 5, 7]
    assert sieve_primes(2).primes.tolist() == [2]


def test_sieve_matches_trial_division():
    table = sieve_primes(5000)
    assert table.primes.tolist() == brute_primes(5000)


def test_sieve_limit_guard():
    with pytest.raises(CapacityError):
        sieve_primes(1)
    with pytest.raises(CapacityError):
        sieve_primes(2 ** 34 + 1)


def test_sieve_random_sample_is_prime(table_small, rng):
    sample = rng.choice(table_small.primes, size=64)
    assert all(all(p % d for d in range(2, math.isqrt(p) + 1)) and p >= 2
               for p in map(int, sample))


def test_cum_recip_monotone_and_consistent(table_small):
    cum = table_small.cum_recip
    assert np.all(np.diff(cum) > 0)
    direct = 0.0
    for p in table_small.primes[:5000]:
        direct += 1.0 / p
    assert abs(cum[4999] - direct) < 1e-9


def test_primes_in_log_range_examples(table_small):
    assert primes_in_log_range(table_small, 0, 1).tolist() == [3, 5, 7, 11, 13]
    assert len(primes_in_log_range(table_small, 1, 1)) == 0
    got = primes_in_log_range(table_small, 1, 2)
    lo, hi = math.exp(math.e), math.exp(math.e ** 2)
    expected = [p for p in brute_primes(1700) if lo < p <= hi]
    assert got.tolist() == expected


def test_primes_in_log_range_partition(table_small):
    a = primes_in_log_range(table_small, 0.3, 1.1)
    b = primes_in_log_range(table_small, 1.1, 1.9)
    c = primes_in_log_range(table_small, 0.3, 1.9)
    assert np.concatenate([a, b]).tolist() == c.tolist()


def test_primes_in_log_range_capacity(table_small):
    with pytest.raises(CapacityError):
        primes_in_log_range(table_small, 0, 4.0)


def test_mertens_examples(table_medium):
    # direct-summation oracle; the loglog difference carries the Mertens error
    # term, which at a = 100 is 0.0141, inside the a >= 1e3 envelope of 0.02
    got = mertens_sum(table_medium, 100, 10 ** 6)
    direct = float(np.sum(1.0 / table_medium.primes[(table_medium.primes > 100)
                                                    & (table_medium.primes <= 10 ** 6)]))
    assert abs(got - direct) < 1e-10
    assert abs(got - (loglog(1e6) - loglog(100))) < 0.02
    assert mertens_sum(table_medium, 50, 50) == 0.0


def test_mertens_matches_direct(table_small):
    direct = float(np.sum(1.0 / table_small.primes[(table_small.primes > 1000)
                                                   & (table_small.primes <= 100000)]))
    assert abs(mertens_sum(table_small, 1000, 100000) - direct) < 1e-12


def test_mertens_loglog_property(table_medium):
    for a, b in [(1e3, 1e5), (2e3, 2e6), (1e4, 1e6)]:
        got = mertens_sum(table_medium, a, b)
        assert abs(got - (loglog(b) - loglog(a))) <= 0.02


def test_mertens_guards(table_small):
    with pytest.raises(CapacityError):
        mertens_sum(table_small, 10, 10 ** 9)
    with pytest.raises(DomainError):
        mertens_sum(table_small, 500, 100)


def test_scale_ladder_basic():
    ladder = scale_ladder_from_loglog(16.0, LadderParams(base_cutoff=1.0, exponent=1.0))
    assert ladder.level(0) == pytest.approx(8.0)
    assert ladder.level(1) == pytest.approx(16 - math.log(16), abs=1e-4)
    assert ladder.level(1) == pytest.approx(13.2274, abs=1e-3)
    levels = ladder.n_levels
    assert all(b > a for a, b in zip(levels, levels[1:]))


def test_scale_ladder_t_levels_consistent():
    ladder = scale_ladder_from_loglog(loglog(1e7), LadderParams(base_cutoff=0.5, exponent=1.0))
    assert ladder.n == pytest.approx(2.7800, abs=1e-3)
    for n_ell, t_ell in zip(ladder.n_levels, ladder.T_levels):
        if math.isfinite(t_ell):
            assert t_ell == pytest.approx(math.exp(math.exp(n_ell)), rel=1e-9)


def test_scale_ladder_default_constants_stop_early():
    ladder = scale_ladder_from_loglog(loglog(1e8), LadderParams())
    # with the huge default exponent no level beyond n_0 fits below n
    assert ladder.top_index == 0


def test_cached_sieve_memo():
    t1 = cached_sieve(10 ** 4)
    assert cached_sieve(10 ** 4) is t1
    t2 = cached_sieve(2 * 10 ** 4)
    assert t2 is not t1 and t2.limit == 2 * 10 ** 4
    assert t2.primes.tolist() == sieve_primes(2 * 10 ** 4).primes.tolist()
