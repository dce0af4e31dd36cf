import itertools
import math

import numpy as np
import pytest

from zetalab.errors import DomainError
from zetalab.local_factors import (ZERO_SHIFT, ShiftVector, b_closed, b_series, b_zero,
                                   local_factor, sigma_zw)


def brute_sigma(p, alpha, z, w):
    return sum(p ** complex(-(a * z + (alpha - a) * w)) for a in range(alpha + 1))


def test_sigma_divisor_count():
    for alpha in range(5):
        assert sigma_zw(7, alpha, 0.0, 0.0) == pytest.approx(alpha + 1)


def test_sigma_alpha_one_and_symmetry(rng):
    z, w = 0.3 + 0.1j, -0.2 + 0.05j
    assert sigma_zw(5, 1, z, w) == pytest.approx(5 ** -z + 5 ** -w)
    for alpha in (2, 3):
        assert sigma_zw(5, alpha, z, w) == pytest.approx(sigma_zw(5, alpha, w, z))
        assert sigma_zw(5, alpha, z, w) == pytest.approx(brute_sigma(5, alpha, z, w))
    with pytest.raises(DomainError):
        sigma_zw(5, -1, z, w)


def test_b_zero_values():
    assert b_zero(3, 1) == pytest.approx(1.5)
    assert b_zero(3, 2) == pytest.approx(2.0)
    assert b_zero(2, 1) == pytest.approx(4.0 / 3.0)
    assert b_zero(11, 0) == 1.0


def test_b_zero_identity():
    for p in (2, 3, 5, 101):
        assert abs(b_zero(p, 1) * (1 + 1 / p) - 2) <= 1e-12


def test_newton_type_identity():
    for p in (2, 3, 5, 101):
        for ell in range(2, 7):
            val = b_zero(p, ell) - 2 * b_zero(p, ell - 1) + b_zero(p, ell - 2)
            assert abs(val) <= 1e-12


def test_b_series_alpha_zero_and_two():
    z = ShiftVector(1e-3, -0.5e-3, 0.2e-3, 0.9e-3)
    assert b_series(11, 0, z) == 1.0
    assert abs(b_series(2, 1, ZERO_SHIFT) - 4.0 / 3.0) < 1e-12


def test_b_series_divergence_guard():
    z = ShiftVector(-0.4, 0.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        b_series(2, 1, z)


def test_series_vs_closed_grid():
    scale = 1e-3
    shifts = [
        ShiftVector(scale, -0.7 * scale, 0.4 * scale, -1.3 * scale),
        ShiftVector(-0.2 * scale, 0.9 * scale, -scale, 0.6 * scale),
    ]
    worst = 0.0
    for p in (11, 101):
        for alpha in (1, 2, 3, 4):
            for z in shifts:
                worst = max(worst, abs(b_series(p, alpha, z) - complex(b_closed(p, alpha, z))))
    assert worst <= 1e-8


def test_closed_limit_route():
    z = ShiftVector(0.4e-3, 0.4e-3, 1e-3, -0.7e-3)   # z1 == z2
    for p, alpha in ((11, 1), (11, 3), (101, 2)):
        assert abs(b_series(p, alpha, z) - complex(b_closed(p, alpha, z))) <= 1e-9


def test_b_closed_vectorized():
    z = ShiftVector(1e-3, -0.7e-3, 0.4e-3, -1.3e-3)
    ps = np.array([11.0, 101.0, 1009.0])
    vec = b_closed(ps, 2, z)
    for i, p in enumerate(ps):
        assert vec[i] == pytest.approx(complex(b_closed(float(p), 2, z)))


def test_perturbation_scaling():
    worst = 0.0
    for p in (11.0, 101.0, 1009.0):
        for alpha in (1, 2, 3):
            for s in (1e-4, 1e-3):
                z = ShiftVector(s, -0.6 * s, 0.3 * s, -1.2 * s)
                num = abs(complex(b_closed(p, alpha, z)) - b_zero(p, alpha))
                worst = max(worst, num / (alpha ** 2 * math.log(p) * z.norm()))
    assert worst <= 100.0


def test_d3_domination():
    z = ShiftVector(1e-3, -0.7e-3, 0.4e-3, -1.3e-3)
    for p in (11, 101):
        for alpha in (1, 2, 3, 4):
            d3 = (alpha + 1) * (alpha + 2) / 2   # triple divisor function at p^alpha
            assert abs(complex(b_closed(p, alpha, z))) <= 2 * d3


def test_local_factor_vanishing():
    for p in (11.0, 101.0, 1009.0):
        for v in (1, 2, 3):
            assert abs(local_factor(p, v, 0, ZERO_SHIFT)) <= 1e-10
            assert abs(local_factor(p, 0, v, ZERO_SHIFT)) <= 1e-10


def test_local_factor_coprime_shape():
    p = 10007.0
    assert abs(local_factor(p, 0, 0, ZERO_SHIFT) - (1 - 4 / p)) <= 1e-6


def test_local_factor_brute_force(rng):
    # direct 3x3 sum with series-evaluated B agrees with the packaged form
    z = ShiftVector(1e-3, -0.7e-3, 0.4e-3, -1.3e-3)
    f = {0: 1.0, 1: -2.0, 2: 1.0}
    for p in (11, 101):
        for v1, v2 in ((0, 0), (1, 0), (2, 1)):
            brute = 0j
            for k1, k2 in itertools.product(range(3), repeat=2):
                e1, e2 = k1 + v1, k2 + v2
                m = min(e1, e2)
                brute += f[k1] * f[k2] * p ** float(-max(e1, e2)) \
                    * b_series(p, e1 - m, z) * b_series(p, e2 - m, z.swapped)
            assert abs(brute - complex(local_factor(float(p), v1, v2, z))) < 1e-8


def test_local_factor_guard():
    with pytest.raises(DomainError):
        local_factor(11.0, -1, 0, ZERO_SHIFT)


def test_identity_report_csv(tmp_path):
    # the fourth-moment suite hands the identity report to the harness as a
    # side table; the file the harness writes is checked in test_cli
    from zetalab.experiments import ExperimentConfig, run_fourth_moment_suite
    cfg = ExperimentConfig(experiment="fourth_moment_suite", seed=3, out_dir=str(tmp_path))
    _, _, (filename, header, rows) = run_fourth_moment_suite(cfg)
    assert filename == "fourth_moment_identities.csv"
    assert header == "p,alpha,z_norm,residual"
    assert len(rows) == 42
    for p, alpha, z_norm, resid in rows:
        assert p in (11.0, 101.0, 1009.0) and alpha in (1, 2, 3, 4)
        assert z_norm >= 0.0 and 0.0 <= resid <= 1e-8
