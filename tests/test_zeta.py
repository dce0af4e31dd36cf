import math

import numpy as np
import pytest

from zetalab.errors import CapacityError, DomainError
from zetalab.zeta import (high_point_threshold, high_points, max_on_grid, moment_estimate,
                          relative_gap, z_function, zeta_critical, zeta_euler_maclaurin,
                          zeta_riemann_siegel)

FIRST_ZERO = 14.134725141734695


def test_euler_maclaurin_known_values():
    assert abs(zeta_euler_maclaurin(2.0 + 0j) - math.pi ** 2 / 6) < 1e-14
    assert zeta_euler_maclaurin(0.5 + 0j).real == pytest.approx(-1.4603545088, abs=1e-9)
    assert abs(zeta_euler_maclaurin(0.5 + 1j * FIRST_ZERO)) < 1e-12


def test_first_zero_truncated_ordinate():
    # the truncated ordinate sits 3.5e-11 from the zero
    assert abs(zeta_critical(14.1347251417)) <= 1e-4


def test_conjugation_symmetry():
    v = zeta_euler_maclaurin(0.5 + 37.5j)
    w = zeta_euler_maclaurin(0.5 - 37.5j)
    assert v == pytest.approx(np.conj(w), abs=1e-12)


def test_domain_guards():
    with pytest.raises(DomainError):
        zeta_critical(0.0)
    with pytest.raises(DomainError):
        zeta_critical(-3.0)
    with pytest.raises(CapacityError):
        zeta_critical(2e12)
    with pytest.raises(DomainError):
        zeta_euler_maclaurin(1.0 + 0j)


def test_rs_vs_em_agreement(rng):
    worst = 0.0
    for t in rng.uniform(50, 1e4, size=60):
        gap = relative_gap(zeta_riemann_siegel(float(t)),
                           zeta_euler_maclaurin(0.5 + 1j * float(t)))
        worst = max(worst, gap)
    assert worst <= 1e-6


def test_rs_hard_points():
    # method-switch boundary and near-integer sqrt(t/2pi)
    for t in (50.0, 50.5, 2 * math.pi * 4 * 4 + 1e-9, 2 * math.pi * 25 - 1e-9, 9999.5):
        gap = relative_gap(zeta_riemann_siegel(t), zeta_euler_maclaurin(0.5 + 1j * t))
        assert gap <= 1e-6


def test_z_function_is_real_scale():
    # |Z(t)| must equal |zeta(1/2+it)|
    for t in (61.8, 250.3, 1077.2):
        assert abs(abs(z_function(t)) - abs(zeta_critical(t))) < 1e-9


def test_max_on_grid_basics():
    h, m = max_on_grid(100.0, np.array([0.25]))
    assert h == 0.25 and m == abs(zeta_critical(100.25))
    with pytest.raises(DomainError):
        max_on_grid(100.0, np.array([]))
    with pytest.raises(DomainError):
        max_on_grid(100.0, np.array([2.5]))


def test_max_on_grid_zero_ordinate():
    _, m = max_on_grid(FIRST_ZERO, np.array([0.0]))
    assert m < 1e-10


def test_max_refinement_monotone(rng):
    t = 812.3
    coarse = np.linspace(-1, 1, 21)
    fine = np.linspace(-1, 1, 81)   # supergrid contains shifts beyond coarse
    _, m_coarse = max_on_grid(t, coarse)
    _, m_fine = max_on_grid(t, np.concatenate([coarse, fine]))
    assert m_fine >= m_coarse


def test_high_point_threshold_value():
    # n = 3, y = 1 gives e^4 / 3^(3/4)
    big_t = math.exp(math.exp(3.0))
    assert high_point_threshold(1.0, big_t) == pytest.approx(23.9517, abs=1e-3)


def test_high_points_infinite_y(table_small):
    grid = np.linspace(-1, 1, 5)
    assert len(high_points(500.0, grid, 50.0, 1e7)) == 0


def test_high_points_match_max(rng):
    big_t = 1e7
    t = float(rng.uniform(big_t, 2 * big_t))
    grid = np.linspace(-1, 1, 31)
    pts = high_points(t, grid, 0.0, big_t)
    _, m = max_on_grid(t, grid)
    assert (len(pts) > 0) == (m > high_point_threshold(0.0, big_t))


def test_moment_estimate_degenerate(rng):
    est = moment_estimate(1e5, 2, 1, rng)
    assert est.degenerate and math.isnan(est.ci_lo)


def test_moment_estimate_second(rng):
    est = moment_estimate(1e6, 2, 300, rng)
    ratio = est.mean / math.log(1e6)
    assert 0.5 <= ratio <= 1.6
    assert est.ci_lo <= est.mean <= est.ci_hi


def test_moment_guards(rng):
    with pytest.raises(DomainError):
        moment_estimate(1e6, 3, 100, rng)


def test_grid_max_discretization(rng):
    # fine-grid max is within a uniform factor of the coarse lattice max
    big_t = 2e4
    step = 2 * math.pi / (8 * math.log(big_t))
    coarse = np.arange(-1.0, 1.0 + step / 2, step)
    fine = np.arange(-1.0, 1.0, step / 4)
    ratios = []
    for tau in rng.uniform(big_t, 2 * big_t, size=12):
        _, m_fine = max_on_grid(float(tau), fine)
        _, m_coarse = max_on_grid(float(tau), coarse)
        ratios.append(m_fine / m_coarse)
    frac_ok = np.mean(np.array(ratios) <= 2.0)
    assert frac_ok >= 0.99
    assert max(ratios) >= 1.0   # supergrid dominance, reported constant

