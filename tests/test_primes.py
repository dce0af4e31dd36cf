import decimal
import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from zetalab import parallel
from zetalab.errors import CapacityError, DomainError
from zetalab.primes import (SEGMENT_SIZE, _simple_sieve, cached_sieve, loglog, mertens_sum,
                            primes_in_log_range, sieve_primes)


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


@pytest.mark.parametrize("last_segment", [1, 2, SEGMENT_SIZE])
def test_pooled_segments_match_simple_sieve(monkeypatch, last_segment):
    # segments start above isqrt(limit); pick the limit whose last one holds
    # `last_segment` numbers, after two full segments
    limit = 2 * SEGMENT_SIZE + last_segment
    while limit - math.isqrt(limit) != 2 * SEGMENT_SIZE + last_segment:
        limit = 2 * SEGMENT_SIZE + last_segment + math.isqrt(limit)
    want = _simple_sieve(limit)
    for workers in (1, 8):
        with ThreadPoolExecutor(max_workers=workers) as pool:
            monkeypatch.setattr(parallel, "_pool", pool)
            table = sieve_primes(limit)
        assert np.array_equal(table.primes, want)


def test_odd_only_segments_match_simple_sieve():
    # the first segment starts at isqrt(limit) + 1; 1049601 ends one number
    # past it, and 1049602 two, the second of them even
    edge = 1024 + 1 + SEGMENT_SIZE
    assert math.isqrt(edge) == 1024
    for limit in (2, 3, 4, 5, 9, SEGMENT_SIZE - 1, SEGMENT_SIZE + 1, edge, edge + 1):
        got = sieve_primes(limit).primes
        assert got.dtype == np.int64
        assert np.array_equal(got, _simple_sieve(limit)), limit


def test_sieve_limit_guard():
    with pytest.raises(CapacityError):
        sieve_primes(1)
    with pytest.raises(CapacityError):
        sieve_primes(2 ** 32 + 1)


def test_sieve_random_sample_is_prime(table_small, rng):
    sample = rng.choice(table_small.primes, size=64)
    assert all(all(p % d for d in range(2, math.isqrt(p) + 1)) and p >= 2
               for p in map(int, sample))


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


def _decimal_mertens(table, a, b):
    ctx = decimal.Context(prec=40)
    total = decimal.Decimal(0)
    for p in table.slice_leq(a, b).tolist():
        total = ctx.add(total, ctx.divide(1, p))
    return total


@pytest.mark.parametrize("a, b", [(100, 2e6), (1e3, 2e6), (1e3, 1e5), (2, 2e6)])
def test_mertens_correctly_rounded(table_medium, a, b):
    # the segmented fsum lands on the float nearest a 40-digit decimal sum
    assert mertens_sum(table_medium, a, b) == float(_decimal_mertens(table_medium, a, b))


def test_mertens_to_1e8_pinned():
    # the 40-digit decimal sum is 0.97689510274543788118 (about 6 s to compute)
    assert mertens_sum(sieve_primes(10 ** 8), 1e3, 1e8) == 0.9768951027454379


def test_mertens_loglog_property(table_medium):
    for a, b in [(1e3, 1e5), (2e3, 2e6), (1e4, 1e6)]:
        got = mertens_sum(table_medium, a, b)
        assert abs(got - (loglog(b) - loglog(a))) <= 0.02


def test_mertens_guards(table_small):
    with pytest.raises(CapacityError):
        mertens_sum(table_small, 10, 10 ** 9)
    with pytest.raises(DomainError):
        mertens_sum(table_small, 500, 100)


def test_cached_sieve_memo():
    t1 = cached_sieve(10 ** 4)
    assert cached_sieve(10 ** 4) is t1
    t2 = cached_sieve(2 * 10 ** 4)
    assert t2 is not t1 and t2.limit == 2 * 10 ** 4
    assert t2.primes.tolist() == sieve_primes(2 * 10 ** 4).primes.tolist()
