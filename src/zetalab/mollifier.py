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


@dataclass(frozen=True)
class MollifierSpec:
    prime_lo: float               # open lower bound
    prime_hi: float               # inclusive upper bound
    omega_cap: float = math.inf   # max number of prime factors per retained term

    def __post_init__(self):
        if self.prime_lo >= self.prime_hi:
            raise DomainError("empty prime range")
        if self.omega_cap < 0:
            raise DomainError("omega_cap must be >= 0")

    def primes(self, table: PrimeTable) -> np.ndarray:
        return table.slice_leq(self.prime_lo, self.prime_hi)


def mollifier_coeffs(table: PrimeTable, spec: MollifierSpec) -> dict[int, complex]:
    """Moebius coefficients {m: a(m)} of the Dirichlet polynomial
    sum a(m) m^{-s}, on squarefree m with all factors in the range.

    Depth-first product over the range primes; raises when the retained term
    count would exceed `TERM_BUDGET`.
    """
    primes = [int(p) for p in spec.primes(table)]
    terms: dict[int, complex] = {1: 1.0 + 0.0j}
    stack = [(1, 0, 0)]   # (m, next prime index, factor count)
    while stack:
        m, i, omega = stack.pop()
        if omega >= spec.omega_cap:
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
    lo = float(primes[0]) - 0.5 if len(primes) else 2.0
    hi = float(primes[-1]) if len(primes) else 3.0
    spec = MollifierSpec(prime_lo=lo, prime_hi=hi, omega_cap=omega_cap)
    poly = mollifier_coeffs(table, spec)
    additive = math.exp(-min(1e5 * window, 700.0))
    total = excluded = holds = 0
    max_resid = 0.0
    for tau in np.atleast_1d(taus):
        total += 1
        s = 0.5 + 1j * float(tau)
        d_s = partial_sum(table, k_lo, k_hi, float(tau), 0.0)
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
