"""Local Euler factors of the twisted fourth moment.

Everything is built from the divisor-like sums sigma_{z,w}(p^alpha) and the
ratio B_z(p^alpha), which has both a defining series and a closed rational
form; their agreement is one of the package's acceptance checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .primes import PrimeTable

F_WEIGHTS = (1.0, -2.0, 1.0)    # multiplicative weights at p^0, p^1, p^2


@dataclass(frozen=True)
class ShiftVector:
    z1: complex
    z2: complex
    z3: complex
    z4: complex

    @property
    def swapped(self) -> "ShiftVector":
        """The paired vector (z3, z4, z1, z2)."""
        return ShiftVector(self.z3, self.z4, self.z1, self.z2)

    @property
    def total(self) -> complex:
        return self.z1 + self.z2 + self.z3 + self.z4

    def norm(self) -> float:
        return sum(abs(z) for z in (self.z1, self.z2, self.z3, self.z4))

    def admissible_for(self, p: float, alpha: int) -> bool:
        limit = 81.0 / (alpha * math.log(p))
        return all(abs(z) <= limit for z in (self.z1, self.z2, self.z3, self.z4))


ZERO_SHIFT = ShiftVector(0, 0, 0, 0)


def sigma_zw(p, alpha: int, z: complex, w: complex):
    """sum over a + b = alpha of p^{-a z - b w}."""
    if alpha < 0:
        raise DomainError("alpha must be >= 0")
    p = np.asarray(p, dtype=float)
    out = np.zeros(p.shape, dtype=complex)
    for a in range(alpha + 1):
        out += np.exp(-(a * z + (alpha - a) * w) * np.log(p))
    return out if out.shape else complex(out)


def b_zero(p, alpha: int):
    """B at the zero shift: (1 - p^-2)^-1 (1 + a - 2a/p + (a-1)/p^2)."""
    p = np.asarray(p, dtype=float)
    if alpha == 0:
        out = np.ones(p.shape)
    else:
        out = (1.0 + alpha - 2.0 * alpha / p + (alpha - 1.0) / (p * p)) \
            / (1.0 - 1.0 / (p * p))
    return out if out.shape else float(out)


def b_series(p: float, alpha: int, z: ShiftVector, terms: int | None = None) -> complex:
    """B as the ratio of the two defining series, truncated geometrically."""
    if alpha == 0:
        return 1.0 + 0.0j
    zmax = max(abs(x.real) for x in (z.z1, z.z2, z.z3, z.z4))
    if p ** (4.0 * zmax - 1.0) >= 0.7:
        raise DomainError(f"series does not converge safely at p={p}, |Re z|={zmax}")
    num = 0.0j
    den = 0.0j
    j = 0
    while True:
        weight = p ** float(-j)
        num_term = sigma_zw(p, alpha + j, z.z1, z.z2) * sigma_zw(p, j, z.z3, z.z4) * weight
        den_term = sigma_zw(p, j, z.z1, z.z2) * sigma_zw(p, j, z.z3, z.z4) * weight
        num += num_term
        den += den_term
        bound = (alpha + j + 1) * (j + 1) * weight * p ** (4.0 * zmax * (alpha + 2 * j))
        if j > 3 and bound < 1e-16 * max(abs(den), 1e-30):
            break
        j += 1
        if terms is not None and j >= terms:
            break
        if j > 400:
            break
    return complex(num / den)


def _b_closed_regular(p, alpha: int, z: ShiftVector):
    # alpha couples to the (z1, z2) pair, matching the defining series
    p_arr = np.asarray(p, dtype=float)
    lp = np.log(p_arr)

    def pw(e: complex):
        return np.exp(-e * lp)

    b0 = pw(z.z1 * (alpha + 1)) - pw(z.z2 * (alpha + 1))
    b1 = (pw(z.z3) + pw(z.z4)) * pw(z.z1 + z.z2) * (pw(z.z1 * alpha) - pw(z.z2 * alpha))
    b2 = pw(z.total) * (pw(z.z2 + z.z1 * alpha) - pw(z.z1 + z.z2 * alpha))
    den = (pw(z.z1) - pw(z.z2)) * (1.0 - pw(z.total) / p_arr ** 2)
    return (b0 - b1 / p_arr + b2 / p_arr ** 2) / den


def b_closed(p, alpha: int, z: ShiftVector):
    """Closed rational-exponential form of B; z1 = z2 goes through a limit.

    The removable singularity at z1 = z2 is evaluated by a 4-point Richardson
    extrapolation in the difference variable (declared tolerance 1e-9).
    """
    if alpha == 0:
        return np.ones(np.asarray(p, dtype=float).shape) + 0j if np.asarray(p).shape else 1.0 + 0.0j
    if abs(z.z1 - z.z2) >= 1e-12:
        out = _b_closed_regular(p, alpha, z)
        return out if np.asarray(out).shape else complex(out)
    delta = 3e-3 / (alpha * math.log(np.max(np.asarray(p, dtype=float))))
    vals = []
    for d in (delta, -delta, 2 * delta, -2 * delta):
        vals.append(_b_closed_regular(p, alpha,
                                      ShiftVector(z.z1 + d, z.z2, z.z3, z.z4)))
    out = (4.0 * (vals[0] + vals[1]) - (vals[2] + vals[3])) / 6.0
    return out if np.asarray(out).shape else complex(out)


def d3(alpha: int) -> float:
    """Triple divisor function on a prime power: (a+1)(a+2)/2."""
    return 0.5 * (alpha + 1) * (alpha + 2)


def local_factor(p, v1: int, v2: int, z: ShiftVector):
    """The 3x3 twisted-moment factor at a prime with coefficient valuations.

    sum over k1, k2 in {0,1,2} of f(p^k1) f(p^k2) p^{-max(k1+v1, k2+v2)}
    B(p^{k1+v1-min}) B_swapped(p^{k2+v2-min}).
    """
    if v1 < 0 or v2 < 0:
        raise DomainError("valuations must be >= 0")
    p_arr = np.asarray(p, dtype=float)
    zero = z.norm() == 0.0
    cache: dict[tuple[str, int], np.ndarray] = {}

    def b_val(which: str, alpha: int):
        if (which, alpha) not in cache:
            if zero:
                cache[(which, alpha)] = np.asarray(b_zero(p_arr, alpha), dtype=complex)
            else:
                zz = z if which == "z" else z.swapped
                cache[(which, alpha)] = np.asarray(b_closed(p_arr, alpha, zz), dtype=complex)
        return cache[(which, alpha)]

    out = np.zeros(p_arr.shape, dtype=complex)
    for k1 in range(3):
        for k2 in range(3):
            e1, e2 = k1 + v1, k2 + v2
            m = min(e1, e2)
            weight = F_WEIGHTS[k1] * F_WEIGHTS[k2] * p_arr ** float(-max(e1, e2))
            out = out + weight * b_val("z", e1 - m) * b_val("w", e2 - m)
    return out if out.shape else complex(out)


@dataclass
class EulerProductValue:
    log_magnitude: float      # -inf when some factor vanishes exactly
    phase: float
    n_factors: int
    n_zero_factors: int

    @property
    def value(self) -> complex:
        if math.isinf(self.log_magnitude):
            return 0.0 + 0.0j
        return math.exp(self.log_magnitude) * complex(math.cos(self.phase), math.sin(self.phase))


def _valuation(c: int, p: int) -> int:
    v = 0
    while c % p == 0:
        c //= p
        v += 1
    return v


def frak_s(table: PrimeTable, lo: float, hi: float, c1: int, c2: int,
           z: ShiftVector) -> EulerProductValue:
    """Product of local factors over primes in (lo, hi], accumulated in logs."""
    primes = table.slice_leq(lo, hi)
    if len(primes) == 0:
        return EulerProductValue(0.0, 0.0, 0, 0)
    special = [int(p) for p in primes if c1 % int(p) == 0 or c2 % int(p) == 0]
    generic = primes[~np.isin(primes, special)] if special else primes
    vals = np.asarray(local_factor(generic.astype(float), 0, 0, z), dtype=complex)
    n_zero = int(np.sum(vals == 0))
    with np.errstate(divide="ignore"):
        log_mag = float(np.sum(np.log(np.abs(vals[vals != 0])), dtype=np.longdouble))
    phase = float(np.sum(np.angle(vals), dtype=np.longdouble))
    for p in special:
        v = complex(local_factor(float(p), _valuation(c1, p), _valuation(c2, p), z))
        if abs(v) < 1e-12:     # exact analytic vanishing lands here numerically
            n_zero += 1
            continue
        log_mag += math.log(abs(v))
        phase += math.atan2(v.imag, v.real)
    if n_zero:
        return EulerProductValue(-math.inf, 0.0, len(primes), n_zero)
    return EulerProductValue(log_mag, math.fmod(phase, 2.0 * math.pi), len(primes), 0)


def frak_s_bound(table: PrimeTable, lo: float, hi: float, c1: int, c2: int,
                 h_const: float, eps_const: float, scale: float) -> float:
    """Envelope prod (1 - 4/p + eps log p / (p scale) + eps / p^2)
    * h(c1') h(c2') / (r c1' c2') with h(p^a) = h_const a^2 log(p) / scale.

    Calibration constants stand in for the huge absolute constants of the
    generic estimate; the sweep reports the measured ratio.
    """
    primes = table.slice_leq(lo, hi).astype(float)
    terms = 1.0 - 4.0 / primes + eps_const * np.log(primes) / (primes * scale) \
        + eps_const / primes ** 2
    if np.any(terms <= 0):
        return math.inf
    log_prod = float(np.sum(np.log(terms), dtype=np.longdouble))
    r = math.gcd(c1, c2)
    c1p, c2p = c1 // r, c2 // r

    def h_of(c: int) -> float:
        out = 1.0
        for p in [int(q) for q in table.slice_leq(1.5, hi) if c % int(q) == 0]:
            out *= h_const * _valuation(c, p) ** 2 * math.log(p) / scale
        return out

    return math.exp(log_prod) * h_of(c1p) * h_of(c2p) / (r * c1p * c2p)
