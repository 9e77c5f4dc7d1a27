"""Bessel kernels, the Harish-Chandra c-function and the Plancherel density
|c(lambda)|^-2.

script_j is the normalized kernel of one order, by scipy's jv; it is
the public kernel and the tests' oracle, and no phi route calls it (the
Bessel series sweeps its orders by recurrence, spherical._kernel_sum).
_bessel_start_pair gives sqrt(pi x / 2) J_nu(x) at two consecutive low
orders, from which the upward order recurrence reaches every order
below x.

The c-function is the four-Gamma ratio

    c(lambda) = 2^(Q-2i*lambda) Gamma(2i*lambda) / Gamma((Q+2i*lambda)/2)
                * Gamma(n/2) / Gamma((m_v + 4i*lambda + 2)/4),

Its modulus needs no log-Gamma: m_v is even, so the two Gamma factors
left in |c|^-2 have integer or half-integer real parts, and the density
is a polynomial in lambda^2 times lambda^3 coth(pi lambda), lambda^2 or
lambda tanh(pi lambda) (plancherel_density), accurate to rounding for
every lambda >= 0 and exact at the lambda^2 zero of the origin.  Its
phase is that of h(lambda) = i lambda c(lambda), which has no pole
(_h_phase, over a whole lambda array at once).
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy.special import j0, j1, jv, loggamma

from .errors import DomainError, PoleError
from .space import SpaceParams, _bernoulli

__all__ = [
    "script_j",
    "c_function",
    "plancherel_density",
]


_SERIES_TERMS = 12   # terms of _script_j_series past the first, for x < 0.1


def _script_j_series(mu: float, x):
    # 2^mu sqrt(pi) Gamma(mu+1/2) * sum_(k<=_SERIES_TERMS) (-1)^k (x/2)^(2k) / (k! Gamma(mu+k+1))
    # == script_j via the J series with the x^-mu factor cancelled analytically.
    x = np.asarray(x, dtype=float)
    pref = math.sqrt(math.pi) * math.exp(math.lgamma(mu + 0.5) - math.lgamma(mu + 1.0))
    acc = np.ones_like(x)
    term = np.ones_like(x)
    q = 0.25 * x * x
    for k in range(1, _SERIES_TERMS + 1):
        term = term * (-q) / (k * (mu + k))
        acc = acc + term
    return pref * acc


def script_j(mu: float, x):
    """Modified Bessel kernel  J_mu(x) * 2^mu sqrt(pi) Gamma(mu+1/2) / x^mu.

    The removable singularity at x = 0 is filled by the power series,
    which is also used below x = 0.1 where forming the x^-mu quotient
    would lose accuracy (or underflow for large mu).
    """
    if mu < 0:
        raise DomainError(f"script_j requires mu >= 0, got {mu}")
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    out = np.empty_like(x)
    small = x < 0.1
    if np.any(small):
        out[small] = _script_j_series(mu, x[small])
    if np.any(~small):
        xs = x[~small]
        # log-scaled prefactor: 2^mu sqrt(pi) Gamma(mu+1/2) / x^mu
        logpref = (mu * math.log(2.0) + 0.5 * math.log(math.pi) + math.lgamma(mu + 0.5)
                   - mu * np.log(xs))
        out[~small] = np.exp(logpref) * jv(mu, xs)
    return float(out[0]) if scalar else out


def _piecewise(x: np.ndarray, mask: np.ndarray, on_true, on_false) -> list:
    """Arrays that take on_true(x[mask]) where mask holds and on_false(x[~mask])
    elsewhere; each callable returns a sequence of arrays shaped like its
    argument.  A uniform mask passes x through without a copy."""
    if np.all(mask):
        return list(on_true(x))
    if not np.any(mask):
        return list(on_false(x))
    out = []
    for a, b in zip(on_true(x[mask]), on_false(x[~mask])):
        merged = np.empty_like(x)
        merged[mask], merged[~mask] = a, b
        out.append(merged)
    return out


# Beyond this x the integer start pair takes the Hankel expansion, whose
# a_8 term is below 1e-23 of the leading one there; below it, j0 and j1.
_HANKEL_X_MIN = 1e3
_HANKEL_TERMS = 8


def _hankel_sums(nu: int, x):
    """P and Q of the Hankel expansion (DLMF 10.17.3) at order nu, with
    a_0..a_7: J_nu(x) = sqrt(2/(pi x)) (P cos w - Q sin w), w = x - nu pi/2 - pi/4.
    Both are polynomials in 1/x^2, run by Horner in place."""
    a = [1.0]
    for k in range(1, _HANKEL_TERMS):
        a.append(a[-1] * (4.0 * nu * nu - (2 * k - 1) ** 2) / (8.0 * k))
    w = np.reciprocal(x)       # 1/x^2 as (1/x)^2: x^2 overflows beyond 1.3e154
    w *= w
    p, q = np.full_like(x, a[-2]), np.full_like(x, a[-1])
    for k in range(_HANKEL_TERMS // 2 - 2, -1, -1):   # a_2k (-1)^k and a_2k+1 (-1)^k
        p *= -w
        p += a[2 * k]
        q *= -w
        q += a[2 * k + 1]
    q /= x
    return p, q


def _hankel_pair(x):
    # sqrt(2) cos w and sqrt(2) sin w at order 1, w = x - 3 pi/4; at
    # order 0, w = x - pi/4 turns cos into -sin and sin into cos
    sin_x, cos_x = np.sin(x), np.cos(x)
    cos_w, sin_w = sin_x - cos_x, -sin_x - cos_x
    del sin_x, cos_x    # freed early: this branch sets the Bessel route's peak memory
    p, q = _hankel_sums(1, x)
    lo = -math.sqrt(0.5) * (p * cos_w - q * sin_w)
    p, q = _hankel_sums(0, x)
    return lo, -math.sqrt(0.5) * (p * sin_w + q * cos_w)


def _j01_pair(x):
    root = np.sqrt(0.5 * math.pi * x)
    return -root * j1(x), root * j0(x)


def _bessel_start_pair(nu0: float, x):
    """sqrt(pi x / 2) J_nu(x) at nu = nu0 - 1 and nu = nu0, for nu0 = 0 or 1/2
    and x > 0; the start of the upward order recurrence.

    For nu0 = 1/2 they are the closed forms cos x and sin x.  For nu0 = 0
    (J_-1 = -J_1) they come from scipy's j0 and j1 below x = 1e3 and from
    the Hankel expansion above it, its phase built from sin x and cos x of
    x itself (j0 and j1 lose phase accuracy at large x).
    """
    x = np.asarray(x, dtype=float)
    if nu0 == 0.5:
        return np.cos(x), np.sin(x)
    return _piecewise(x, x >= _HANKEL_X_MIN, _hankel_pair, _j01_pair)


def _gamma_shifts(params: SpaceParams) -> tuple[list[float], int]:
    """Shifts x_j and the number n_half of half-integers among Q/2 and
    (m_v+2)/4 (m_v is even): each Gamma(k + i lambda) is Gamma(k0 + i lambda)
    prod (x + i lambda) over x = k0..k-1, k0 = 1 or 1/2 (DLMF 5.5.1)."""
    shifts, n_half = [], 0
    for twice_k in (int(params.Q), params.m_v // 2 + 1):   # twice Q/2 and (m_v+2)/4
        half = twice_k % 2
        n_half += half
        shifts += [j + 0.5 * half for j in range(1 - half, twice_k // 2)]
    return shifts, n_half


# Beyond |lambda| = _RATIO_LAMBDA_MIN, _ratio_phase takes the ratio expansion
# (DLMF 5.11.13) of ln Gamma(1/2 + z) - ln Gamma(1 + z) at z = i lambda:
#     -1/2 ln z + sum_(k=1..14) (-1)^(k+1) (2^-k - 2) B_(k+1) / (k (k+1) z^k).
# Its imaginary part is -sign(lambda) pi/4 plus the odd-k terms, whose
# coefficients of lambda^-k, k = 1, 3, .., 13, are held here.
_RATIO_LAMBDA_MIN = 10.0
_RATIO_COEFFS = tuple(
    float((-1) ** ((k + 1) // 2) * (Fraction(1, 2**k) - 2) * b / (k * (k + 1)))
    for k, b in zip(range(1, 14, 2), _bernoulli(14)[2::2]))    # b = B_(k+1)


def _ratio_phase(lam):
    """Im[ln Gamma(1/2 + i lambda) - ln Gamma(1 + i lambda)] at real lambda,
    scalar or array; odd in lambda.  Each log-Gamma has an imaginary part of
    size |lambda| ln |lambda|, so their difference by loggamma loses
    1e-16 |lambda| ln |lambda|; from |lambda| = 10 on the ratio expansion
    gives it to rounding."""
    lam = np.asarray(lam, dtype=float)
    out = np.empty_like(lam)
    near = np.abs(lam) < _RATIO_LAMBDA_MIN
    x = lam[near]
    out[near] = loggamma(0.5 + 1j * x).imag - loggamma(1.0 + 1j * x).imag
    x = lam[~near]
    w = 1.0 / (x * x)
    acc = np.zeros_like(x)
    for c in reversed(_RATIO_COEFFS):
        acc = acc * w + c
    out[~near] = acc / x - np.copysign(0.25 * math.pi, x)
    return out


def _h_phase(params: SpaceParams, lam):
    """arg h(lambda) at real lambda, scalar or array, for the pole-free
    h(lambda) = i lambda c(lambda).  Legendre's duplication
    2^(-2i lambda) Gamma(1+2i lambda) = Gamma(1/2+i lambda) Gamma(1+i lambda)
    / sqrt(pi) (DLMF 5.5.5) and the shifts (_gamma_shifts) give

        h(lambda) = 2^(Q-1) Gamma(n/2) pi^(-1/2)
                    (Gamma(1/2+i lambda) / Gamma(1+i lambda))^(1-n_half)
                    / prod_j (x_j + i lambda),

    so the phase is a sum of arctangents and, unless n_half = 1, one
    log-Gamma difference near the real axis (_ratio_phase): odd, bounded,
    no pi/2.
    """
    lam = np.asarray(lam, dtype=float)
    shifts, n_half = _gamma_shifts(params)
    phase = np.zeros_like(lam)
    for x in shifts:
        phase -= np.arctan(lam / x)
    if n_half != 1:
        phase += (1 - n_half) * _ratio_phase(lam)
    return phase


def _h_phase_slope0(params: SpaceParams) -> float:
    """d arg h / d lambda at 0, Im (h'/h)(0) = -2 (1 - n_half) ln 2
    - sum_j 1/x_j, from _h_phase's form (psi(1/2) - psi(1) = -2 ln 2)."""
    shifts, n_half = _gamma_shifts(params)
    return -2.0 * (1 - n_half) * math.log(2.0) - sum(1.0 / x for x in shifts)


def _h_modulus_inv2(params: SpaceParams, lam: np.ndarray) -> np.ndarray:
    """|h(lambda)|^-2 = |c(lambda)|^-2 / lambda^2 for an array lambda >= 0,
    finite and positive at 0 (plancherel_density).  It is even in lambda,
    so a lambda whose square underflows takes the value at 0."""
    out = np.full_like(lam, math.ldexp(4.0 * math.pi / math.gamma(params.n / 2.0) ** 2,
                                       -2 * int(params.Q)))
    shifts, n_half = _gamma_shifts(params)
    lam2 = lam * lam
    for x in shifts:
        out *= x * x + lam2
    if n_half == 0:
        out *= np.divide(lam, np.tanh(math.pi * lam), out=np.full_like(lam, 1.0 / math.pi),
                         where=lam2 > 0)
    elif n_half == 2:
        out *= np.divide(np.tanh(math.pi * lam), lam, out=np.full_like(lam, math.pi),
                         where=lam2 > 0)
    return out


def c_function(params: SpaceParams, lam: float) -> complex:
    """Harish-Chandra c-function at real lambda != 0, -i h(lambda)/lambda:
    modulus from plancherel_density, phase arg h - sign(lambda) pi/2, so
    c(-lambda) = conj(c(lambda)) exactly, arg h being odd."""
    if lam == 0:
        raise PoleError("c-function has a pole at lambda = 0")
    lam = float(lam)
    return complex(-1j * math.copysign(1.0, lam) * np.exp(1j * _h_phase(params, lam))
                   / math.sqrt(plancherel_density(params, abs(lam))))


def plancherel_density(params: SpaceParams, lam):
    """Plancherel density |c(lambda)|^-2 for lambda >= 0, in closed form.

    |c|^-2 = 2^(-2Q) Gamma(n/2)^-2 |Gamma(Q/2 + i lambda)|^2
    |Gamma((m_v+2)/4 + i lambda)|^2 / |Gamma(2i lambda)|^2, and both real
    parts are integers or half-integers.  With 1/|Gamma(2i lambda)|^2 =
    2 lambda sinh(2 pi lambda)/pi, |Gamma(k + i lambda)|^2 =
    (pi lambda / sinh pi lambda) prod_(1<=j<k) (j^2 + lambda^2) and
    |Gamma(k + 1/2 + i lambda)|^2 = (pi / cosh pi lambda)
    prod_(0<=j<k) ((j + 1/2)^2 + lambda^2) (DLMF 5.4.3, 5.4.4, 5.5.1),

        |c|^-2 = 4 pi 2^(-2Q) Gamma(n/2)^-2 P(lambda^2)
                 * {lambda^3 coth(pi lambda) | lambda^2 | lambda tanh(pi lambda)}

    for two integer, one integer and no integer real part, P being the
    two finite products (_gamma_shifts); it is lambda^2 |h|^-2 for
    h = i lambda c (_h_modulus_inv2).  On H^3 it is 4 lambda^2.
    """
    lam_arr = np.asarray(lam, dtype=float)
    scalar = lam_arr.ndim == 0
    lam_arr = np.atleast_1d(lam_arr)
    if np.any(lam_arr < 0):
        raise DomainError("plancherel_density requires lambda >= 0")
    out = lam_arr * lam_arr * _h_modulus_inv2(params, lam_arr)
    return float(out[0]) if scalar else out


def plancherel_envelope_ratio(params: SpaceParams, lam):
    """|c|^-2 divided by its comparison weight lambda^2 (1+lambda)^(n-3)."""
    lam = np.asarray(lam, dtype=float)
    return plancherel_density(params, lam) / (lam**2 * (1.0 + lam) ** (params.n - 3))
