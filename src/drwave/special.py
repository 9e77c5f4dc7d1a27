"""Bessel kernels, the Harish-Chandra c-function and the Plancherel density
|c(lambda)|^-2.

script_j is the kernel of one order, by scipy's jv and, for its series
limit script_j(mu, 0), gammaln; it is the public kernel and the tests'
oracle, and no phi route calls it.  The Bessel series sweeps its orders
by recurrence (spherical._kernel_sum) on the normalized kernels
Lambda_mu(x) = script_j(mu, x) / script_j(mu, 0), which are 1 at x = 0
and need neither function; _low_pair gives them exactly at the two
lowest orders, whose values start the upward order recurrence and
normalize Miller's downward one.

The c-function is the four-Gamma ratio

    c(lambda) = 2^(Q-2i*lambda) Gamma(2i*lambda) / Gamma((Q+2i*lambda)/2)
                * Gamma(n/2) / Gamma((m_v + 4i*lambda + 2)/4),

Its modulus needs no log-Gamma: m_v is even, so the two Gamma factors
left in |c|^-2 have integer or half-integer real parts, and |h| = |lambda c|
is a closed form (_h_modulus, which c_function, plancherel_density and the
exponential series all read), accurate to rounding for every lambda >= 0.
Its phase is that of h(lambda) = i lambda c(lambda), which has no pole
(_h_phase, over a whole lambda array at once).
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy.special import gammaln, j0, j1, jv, loggamma

from .errors import DomainError, PoleError
from .space import SpaceParams, _bernoulli

__all__ = [
    "script_j",
    "c_function",
    "plancherel_density",
]


_SERIES_TERMS = 12   # terms of _script_j_series past the first, for x < 0.1


def _script_j_series(mu: float, x):
    # script_j(mu, 0) * sum_(k<=_SERIES_TERMS) (-1)^k (x/2)^(2k) Gamma(mu+1) / (k! Gamma(mu+k+1))
    # == script_j via the J series with the x^-mu factor cancelled analytically;
    # the series limit is script_j(mu, 0) = sqrt(pi) Gamma(mu + 1/2) / Gamma(mu + 1).
    x = np.asarray(x, dtype=float)
    acc, term = np.ones_like(x), np.ones_like(x)
    q = 0.25 * x * x
    for k in range(1, _SERIES_TERMS + 1):
        term = term * (-q) / (k * (mu + k))
        acc = acc + term
    return math.sqrt(math.pi) * np.exp(gammaln(mu + 0.5) - gammaln(mu + 1.0)) * acc


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
    """J_0(x) and J_1(x) by the Hankel expansion, the phases w taken from
    sin x and cos x of x itself (j0 and j1 lose phase accuracy at large x)."""
    amp = (math.pi * x) ** -0.5            # sqrt(2/(pi x)) / sqrt(2)
    sin_x, cos_x = np.sin(x), np.cos(x)
    # sqrt(2) cos w and -sqrt(2) sin w at order 1, w = x - 3 pi/4, times amp
    d, t = (sin_x - cos_x) * amp, (sin_x + cos_x) * amp
    del sin_x, cos_x, amp    # freed early: this branch sets the Bessel route's peak memory
    j_0, q = _hankel_sums(0, x)            # at order 0, d and t turn into t and -d
    j_0 *= t
    j_0 -= np.multiply(q, d, out=q)
    j_1, q = _hankel_sums(1, x)
    j_1 *= d
    j_1 += np.multiply(q, t, out=q)
    return j_0, j_1


def _low_pair(nu0: float, x):
    """Lambda_nu0(x) and Lambda_(nu0+1)(x), nu0 = 0 or 1/2, x >= 0, of the
    normalized kernel Lambda_mu(x) = Gamma(mu+1) (2/x)^mu J_mu(x) =
    script_j(mu, x) / script_j(mu, 0): sin x / x and 3 (sin x / x - cos x) / x^2,
    or J_0(x) and 2 J_1(x) / x by j0 and j1 below x = 1e3 and the Hankel
    expansion above.  Order nu0 + 1 is given from x = 1 on and is 0 below
    it, where the half-integer form cancels."""
    x = np.asarray(x, dtype=float)
    if nu0 == 0.5:
        lo = np.divide(np.sin(x), x, out=np.ones_like(x), where=x > 0)
        hi = lo - np.cos(x)
    else:
        big = x >= _HANKEL_X_MIN          # a uniform mask passes x on without a copy
        if not np.any(big):
            lo, hi = j0(x), j1(x)
        elif np.all(big):
            lo, hi = _hankel_pair(x)
        else:
            lo, hi = np.empty_like(x), np.empty_like(x)
            lo[big], hi[big] = _hankel_pair(x[big])
            lo[~big], hi[~big] = j0(x[~big]), j1(x[~big])
    inv = np.divide(1.0, x, out=np.zeros_like(x), where=x >= 1.0)    # 1/x, 0 below 1
    hi *= inv
    hi *= 3.0 * inv if nu0 == 0.5 else 2.0
    return lo, hi


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


def _h_modulus(params: SpaceParams, lam):
    """|h(lambda)| = |lambda c(lambda)| for lambda >= 0, scalar or array,
    finite and positive at 0.

    With 1/|Gamma(2i lambda)|^2 = 2 lambda sinh(2 pi lambda) / pi,
    |Gamma(k + i lambda)|^2 = (pi lambda / sinh pi lambda) prod_(1<=j<k)
    (j^2 + lambda^2) and |Gamma(k + 1/2 + i lambda)|^2 = (pi / cosh pi lambda)
    prod_(0<=j<k) ((j + 1/2)^2 + lambda^2) (DLMF 5.4.3, 5.4.4, 5.5.1),

        |h| = 2^(Q-1) Gamma(n/2) pi^(-1/2) (tanh(pi lambda) / lambda)^((1-n_half)/2)
              / prod_j hypot(x_j, lambda)

    over the shifts x_j (_gamma_shifts).  Each 1/hypot(x_j, lambda) is at
    most 1 from lambda = 1 on, so |h| never passes through |c|^-2 and reads
    0 only below the double range; tanh takes pi min(lambda, 20), where it
    is 1 already, so that pi lambda cannot overflow.
    """
    lam = np.asarray(lam, dtype=float)
    out = np.full_like(lam, math.ldexp(math.gamma(params.n / 2.0) / math.sqrt(math.pi),
                                       int(params.Q) - 1))
    shifts, n_half = _gamma_shifts(params)
    for x in shifts:
        out /= np.hypot(x, lam)
    if n_half != 1:
        # tanh(pi lambda) / lambda is pi to rounding below lambda = 1e-9
        ratio = np.divide(np.tanh(math.pi * np.minimum(lam, 20.0)), lam,
                          out=np.full_like(lam, math.pi), where=lam > 1e-9)
        root = np.sqrt(ratio)
        out = out * root if n_half == 0 else out / root
    return out


def c_function(params: SpaceParams, lam):
    """Harish-Chandra c-function at real lambda != 0, scalar or array,
    -i h(lambda)/lambda: modulus |h|/|lambda| (_h_modulus, so |c| reads 0
    only below the double range), phase arg h - sign(lambda) pi/2, so
    c(-lambda) = conj(c(lambda)) exactly, arg h being odd.  Raises
    PoleError if any lambda is 0.
    """
    lam = np.asarray(lam, dtype=float)
    if np.any(lam == 0):
        raise PoleError("c-function has a pole at lambda = 0")
    x = np.abs(lam)
    # from |lambda| ~ 1e154 on, lambda^2 in _ratio_phase passes the float
    # range (and near 1e308 lambda / x_j in _h_phase); as inf they give
    # 1/lambda^2 = 0 and arctan = pi/2
    with np.errstate(over="ignore"):
        rot = np.exp(1j * _h_phase(params, lam))
    out = -1j * np.copysign(1.0, lam) * rot * (_h_modulus(params, x) / x)
    return complex(out) if lam.ndim == 0 else out


def plancherel_density(params: SpaceParams, lam):
    """Plancherel density |c(lambda)|^-2 = (lambda / |h(lambda)|)^2 for
    lambda >= 0 (_h_modulus): a polynomial in lambda^2 times lambda^3
    coth(pi lambda), lambda^2 or lambda tanh(pi lambda) for two, one and no
    integer real parts among Q/2 and (m_v+2)/4, exactly 0 at lambda = 0.
    On H^3 it is 4 lambda^2.
    """
    lam = np.asarray(lam, dtype=float)
    if np.any(lam < 0):
        raise DomainError("plancherel_density requires lambda >= 0")
    out = (lam / _h_modulus(params, lam)) ** 2
    return float(out) if lam.ndim == 0 else out
