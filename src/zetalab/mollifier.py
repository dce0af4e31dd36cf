"""Restricted Moebius mollifiers: squarefree supported polynomials with a cap
on the number of prime factors."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DomainError
from .primes import PrimeTable
from .walk import higher_order_tail, partial_sum, powers, primes_in_log_range

TERM_BUDGET = 10_000_000
HYPOTHESIS_CONSTANT = 1e3   # points with |dS| above this times the window are excluded


def mollifier_coeffs(primes: np.ndarray, omega_cap: float) -> dict[int, complex]:
    """Moebius coefficients {m: a(m)} of the Dirichlet polynomial
    sum a(m) m^{-s}, on squarefree m with all factors among `primes` and at
    most `omega_cap` of them.

    Depth-first product over the primes; raises when the retained term count
    would exceed `TERM_BUDGET`.
    """
    if omega_cap < 0:
        raise DomainError("omega_cap must be >= 0")
    primes = [int(p) for p in primes]
    terms: dict[int, complex] = {1: 1.0 + 0.0j}
    stack = [(1, 0, 0)]   # (m, next prime index, factor count)
    while stack:
        m, i, omega = stack.pop()
        if omega >= omega_cap:
            continue
        for idx in range(i, len(primes)):
            nxt = m * primes[idx]
            if len(terms) >= TERM_BUDGET:
                raise CapacityError(
                    f"mollifier hit the term budget at {len(terms)} terms"
                )
            terms[nxt] = -terms[m]
            stack.append((nxt, idx + 1, omega + 1))
    return terms


def evaluate_poly(poly: dict[int, complex], s: complex) -> complex:
    ms = sorted(poly)
    coeffs = np.array([poly[m] for m in ms], dtype=complex)
    return complex(np.sum(coeffs * powers(np.array(ms, dtype=float), s)))


@dataclass
class ApproxReport:
    total: int
    excluded: int          # sample points violating the hypothesis bound
    holds: int             # points where the mollifier inequality holds
    max_equality_residual: float   # only meaningful in the exact (uncapped) mode

    @property
    def fraction(self) -> float:
        checked = self.total - self.excluded
        return self.holds / checked if checked else math.nan


def mollifier_approx_check(table: PrimeTable, k_lo: float, k_hi: float,
                           taus: np.ndarray, omega_cap: float = math.inf) -> ApproxReport:
    """Check exp(-dS) <= (1 + e^{-k_lo}) |M(s)| + exp(-1e5 * (k_hi - k_lo)).

    The mollifier lives on the scale window (k_lo, k_hi]; with an uncapped
    omega the inequality tightens to the exact identity
    exp(-dS - R) = |M(s)| and the residual is tracked instead.
    """
    window = k_hi - k_lo
    eps_factor = math.exp(-k_lo)
    primes = primes_in_log_range(table, k_lo, k_hi)
    exact = omega_cap >= len(primes)
    poly = mollifier_coeffs(primes, omega_cap)
    additive = math.exp(-min(1e5 * window, 700.0))
    total = excluded = holds = 0
    max_resid = 0.0
    for tau in np.atleast_1d(taus):
        total += 1
        s = 0.5 + 1j * float(tau)
        d_s = partial_sum(table, k_lo, k_hi, float(tau))
        if abs(d_s) > HYPOTHESIS_CONSTANT * window:
            excluded += 1
            continue
        m_val = abs(evaluate_poly(poly, s))
        lhs = math.exp(-d_s.real)
        if lhs <= (1.0 + eps_factor) * m_val + additive:
            holds += 1
        if exact:
            r = higher_order_tail(table, k_lo, k_hi, s)
            max_resid = max(max_resid, abs(math.exp(-d_s.real - r) - m_val))
    return ApproxReport(total=total, excluded=excluded, holds=holds,
                        max_equality_residual=max_resid)
