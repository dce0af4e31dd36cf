"""Local Euler factors of the twisted fourth moment.

Everything is built from the divisor-like sums sigma_{z,w}(p^alpha) and the
ratio B_z(p^alpha), which has both a defining series and a closed rational
form; their agreement is one of the package's acceptance checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

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


ZERO_SHIFT = ShiftVector(0, 0, 0, 0)


def sigma_zw(p: float, alpha: int, z: complex, w: complex) -> complex:
    """sum over a + b = alpha of p^{-a z - b w}."""
    if alpha < 0:
        raise DomainError("alpha must be >= 0")
    lp = np.log(p)
    return complex(sum(np.exp(-(a * z + (alpha - a) * w) * lp) for a in range(alpha + 1)))


def b_zero(p: float, alpha: int) -> float:
    """B at the zero shift: (1 - p^-2)^-1 (1 + a - 2a/p + (a-1)/p^2)."""
    if alpha == 0:
        return 1.0
    return (1.0 + alpha - 2.0 * alpha / p + (alpha - 1.0) / (p * p)) / (1.0 - 1.0 / (p * p))


def b_series(p: float, alpha: int, z: ShiftVector) -> complex:
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
        if j > 400:
            break
    return complex(num / den)


def b_closed(p: float, alpha: int, z: ShiftVector) -> complex:
    """Closed form of B, regular at z1 = z2.

    With x, y = p^-z1, p^-z2 and s_m = sigma_zw(p, m, z1, z2), each bracket
    of the rational form is (x - y) times a sum (x^{m+1} - y^{m+1} = (x - y)
    s_m), so B = (s_alpha - (p^-z3 + p^-z4) xy s_{alpha-1} / p
    + p^-sum(z) xy s_{alpha-2} / p^2) / (1 - p^-sum(z) / p^2), where alpha
    couples to the (z1, z2) pair as in the defining series and s_{-1} = 0.
    """
    if alpha == 0:
        return 1.0 + 0.0j
    lp = np.log(p)

    def pw(e: complex):
        return np.exp(-e * lp)

    xy, total, p2 = pw(z.z1 + z.z2), pw(z.total), p * p
    num = sigma_zw(p, alpha, z.z1, z.z2) \
        - (pw(z.z3) + pw(z.z4)) * xy * sigma_zw(p, alpha - 1, z.z1, z.z2) / p
    if alpha >= 2:
        num += total * xy * sigma_zw(p, alpha - 2, z.z1, z.z2) / p2
    return complex(num / (1.0 - total / p2))


def local_factor(p: float, v1: int, v2: int, z: ShiftVector) -> complex:
    """The 3x3 twisted-moment factor at a prime with coefficient valuations.

    sum over k1, k2 in {0,1,2} of f(p^k1) f(p^k2) p^{-max(k1+v1, k2+v2)}
    B(p^{k1+v1-min}) B_swapped(p^{k2+v2-min}).
    """
    if v1 < 0 or v2 < 0:
        raise DomainError("valuations must be >= 0")
    out = 0j
    for k1 in range(3):
        for k2 in range(3):
            e1, e2 = k1 + v1, k2 + v2
            m = min(e1, e2)
            # the ufunc, not `**` on a scalar (C pow), keeps the bits
            weight = F_WEIGHTS[k1] * F_WEIGHTS[k2] * np.power(p, float(-max(e1, e2)))
            out = out + weight * b_closed(p, e1 - m, z) * b_closed(p, e2 - m, z.swapped)
    return complex(out)
