import os
import zlib

import numpy as np
import pytest

from zetalab.primes import cached_sieve, sieve_primes


@pytest.fixture(scope="session")
def table_small():
    return sieve_primes(2 * 10 ** 5)


@pytest.fixture(scope="session")
def table_medium():
    # covers scales up to k = log log 2e6 ~ 2.67
    return cached_sieve(2 * 10 ** 6)


@pytest.fixture()
def rng(request):
    """A generator per test, seeded from the test's node id, so no test's
    draws depend on which tests ran before it."""
    return np.random.default_rng([20260808, zlib.crc32(request.node.nodeid.encode())])


@pytest.fixture()
def out_dir(tmp_path):
    return str(tmp_path)
