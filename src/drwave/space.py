"""Structure constants and the radial volume density of a Damek-Ricci space.

A space is determined by the pair (m_v, m_z): the dimensions of the
generating part and of the center of the underlying H-type algebra.
Everything downstream (spherical functions, Plancherel density, Sobolev
weights) is a function of these two integers.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, ValidationError

__all__ = ["SpaceParams", "new_space", "density", "log_density_derivative",
           "log_density_taylor"]


@dataclass(frozen=True)
class SpaceParams:
    """Damek-Ricci structure constants.

    m_v : dimension of the generating part (even, >= 2)
    m_z : dimension of the center (>= 0)
    n   : manifold dimension, m_v + m_z + 1
    Q   : homogeneous dimension, m_v/2 + m_z (kept exact as a Fraction;
          it enters every spectral weight through Q^2/4)
    """

    m_v: int
    m_z: int
    n: int
    Q: Fraction

    def __post_init__(self):
        # Q^2/4 enters every spectral weight; do the Fraction arithmetic
        # once.  Not a field, so ==, hash and repr see only the four above.
        object.__setattr__(self, "_q2_over_4", float(self.Q * self.Q / 4))

    @property
    def q2_over_4(self) -> float:
        """Q^2/4, the spectral gap of the Laplace-Beltrami operator."""
        return self._q2_over_4

    @property
    def half_sum(self) -> float:
        """(m_v + m_z)/2, the coefficient of coth(s/2) in A'/A."""
        return 0.5 * (self.m_v + self.m_z)


def new_space(m_v: int, m_z: int) -> SpaceParams:
    """Build SpaceParams from (m_v, m_z), deriving n and Q.

    Rejects odd or too-small m_v and negative m_z: the generating part of
    an H-type algebra carries a complex structure, hence is even
    dimensional.
    """
    if m_v != int(m_v) or m_z != int(m_z):
        raise ValidationError(f"m_v and m_z must be integers, got ({m_v}, {m_z})")
    m_v, m_z = int(m_v), int(m_z)
    if m_v < 2:
        raise ValidationError(f"m_v must be >= 2, got {m_v}")
    if m_v % 2 != 0:
        raise ValidationError(f"m_v must be even (H-type), got {m_v}")
    if m_z < 0:
        raise ValidationError(f"m_z must be >= 0, got {m_z}")
    return SpaceParams(m_v=m_v, m_z=m_z, n=m_v + m_z + 1, Q=Fraction(m_v, 2) + m_z)


def density(params: SpaceParams, s):
    """Volume density A(s) = 2^(m_v+m_z) sinh(s/2)^(m_v+m_z) cosh(s/2)^(m_z).

    Accepts scalars or arrays; A(0) = 0 and A ~ s^(n-1) near the origin.
    """
    s = np.asarray(s, dtype=float)
    if np.any(s < 0):
        raise DomainError("density requires s >= 0")
    k = params.m_v + params.m_z
    out = (2.0 ** k) * np.sinh(s / 2.0) ** k * np.cosh(s / 2.0) ** params.m_z
    return out if out.ndim else float(out)


def log_density_derivative(params: SpaceParams, s):
    """Logarithmic derivative A'(s)/A(s).

    Equals (m_v+m_z)/2 * coth(s/2) + m_z/2 * tanh(s/2); behaves like
    (n-1)/s as s -> 0+ and tends to Q as s -> infinity.  Below s = 1e-6
    the Laurent form (n-1)/s + g_1 s is used to avoid cancellation, with
    g_1 = (m_v+m_z)/12 + m_z/4 the first coefficient of log_density_taylor.
    """
    s = np.asarray(s, dtype=float)
    if np.any(s <= 0):
        raise DomainError("log_density_derivative requires s > 0")
    alpha = params.half_sum
    beta = 0.5 * params.m_z
    small = s < 1e-6
    half = np.where(small, 1.0, s / 2.0)  # dummy arg where the Laurent form is used
    direct = alpha / np.tanh(half) + beta * np.tanh(half)
    laurent = (params.n - 1) / s + log_density_taylor(params)[0] * s
    out = np.where(small, laurent, direct)
    return out if out.ndim else float(out)


@functools.cache
def _bernoulli(m: int) -> tuple[Fraction, ...]:
    """B_0..B_m exactly (B_1 = -1/2, odd ones above 0), from the tangent
    numbers T_k = tan^(2k-1)(0), k = 1 .. m/2, of the Knuth-Buckholtz
    recurrence (Math. Comp. 21, 1967) in Python ints:
    B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1))."""
    n = m // 2
    t = [0] * (n + 2)
    t[1] = 1
    for k in range(2, n + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    b = [Fraction(0)] * (m + 1)
    b[0] = Fraction(1)
    if m >= 1:
        b[1] = Fraction(-1, 2)
    for k in range(1, n + 1):
        b[2 * k] = Fraction((-1) ** (k - 1) * 2 * k * t[k], 4**k * (4**k - 1))
    return tuple(b)


@functools.cache
def log_density_taylor(params: SpaceParams) -> np.ndarray:
    """g_1..g_41 of A'/A = (n-1)/s + sum_k g_k s^(2k-1), for s < pi.

    With A'/A = (m_v+m_z)/2 coth(s/2) + m_z/2 tanh(s/2) and the Bernoulli
    series of coth and tanh (DLMF 4.19.5, 4.19.6) at x = s/2,
    g_k = 2 B_2k / (2k)! * ((m_v+m_z)/2 + (2^(2k) - 1) m_z/2), each
    rounded once from exact rationals.  The Laurent branch of
    log_density_derivative and the Bessel-series coefficients of
    `spherical` read these.
    """
    b = _bernoulli(82)
    half_sum, half_mz = Fraction(params.m_v + params.m_z, 2), Fraction(params.m_z, 2)
    g = np.array([float(2 * b[2 * k] / math.factorial(2 * k) * (half_sum + (4**k - 1) * half_mz))
                  for k in range(1, 42)])
    g.flags.writeable = False       # shared by every caller through the cache
    return g
