"""Bessel kernels, the Harish-Chandra c-function and the Plancherel density
|c(lambda)|^-2, with no scipy on any of their paths.

script_j is the kernel of one order, by scipy's jv (imported on its
first call away from x = 0) and, for its series limit script_j(mu, 0),
math.lgamma; it is the public kernel and the tests' oracle, and no phi
route calls it.  The Bessel series sweeps its orders by recurrence
(spherical._kernel_sum) on the normalized kernels
Lambda_mu(x) = script_j(mu, x) / script_j(mu, 0), which are 1 at x = 0;
_low_pair gives them exactly at the two lowest orders, where they start
the upward order recurrence: by closed forms at half-integer orders and
by the Hankel expansion at integer ones.

The c-function is the four-Gamma ratio

    c(lambda) = 2^(Q-2i*lambda) Gamma(2i*lambda) / Gamma((Q+2i*lambda)/2)
                * Gamma(n/2) / Gamma((m_v + 4i*lambda + 2)/4),

Its modulus needs no log-Gamma: m_v is even, so the two Gamma factors
left in |c|^-2 have integer or half-integer real parts, and |h| = |lambda c|
is a closed form (_h_modulus, which c_function, plancherel_density and the
exponential series all read), accurate to rounding for every lambda >= 0.
Its phase is that of h(lambda) = i lambda c(lambda), which has no pole
(_h_phase, over a whole lambda array at once): arctangents and one
log-Gamma ratio taken by its asymptotic expansion (_ratio_phase), so no
log-Gamma of a complex argument is evaluated.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

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
    return math.sqrt(math.pi) * math.exp(math.lgamma(mu + 0.5) - math.lgamma(mu + 1.0)) * acc


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
        from scipy.special import jv     # the library's one scipy call, loaded on first use

        xs = x[~small]
        # log-scaled prefactor: 2^mu sqrt(pi) Gamma(mu+1/2) / x^mu
        logpref = (mu * math.log(2.0) + 0.5 * math.log(math.pi) + math.lgamma(mu + 0.5)
                   - mu * np.log(xs))
        out[~small] = np.exp(logpref) * jv(mu, xs)
    return float(out[0]) if scalar else out


@functools.cache
def _hankel_rows(x_min: int) -> np.ndarray:
    """Horner rows of the Hankel expansion (DLMF 10.17.1, 10.17.3) at
    orders 0 and 1 for x >= x_min, the highest first: row k holds a_2k
    and a_(2k+1) at order 0, then at order 1, for powers of -1/x^2.  The
    terms run while a next a_k / x_min^k at either order is at least 1e-17
    and none has stopped falling, so that the first one left out is below
    1e-17 or is the least term of the asymptotic series (3e-17 at x = 18):
    38 terms at x = 18, 20 at 25, 14 at 50, 6 at 1e3.  _hankel_pair takes
    the rows of its smallest x for every cell of a call."""
    a = [np.ones(2)]                                    # a_k at orders 0 and 1
    while True:
        k = len(a)
        nxt = a[-1] * (np.array([0.0, 4.0]) - (2 * k - 1) ** 2) / (8.0 * k)
        if np.all(np.abs(nxt) < 1e-17 * x_min**k) or np.any(np.abs(nxt) >= np.abs(a[-1]) * x_min):
            break
        a.append(nxt)
    a = np.array(a + [np.zeros(2)] * (len(a) % 2))      # an even count, a 0 appended
    rows = a.reshape(-1, 2, 2).transpose(0, 2, 1).reshape(-1, 4)
    rows.flags.writeable = False       # shared by every caller through the cache
    return rows[::-1]


def _hankel_pair(x):
    """Lambda_0(x) = J_0(x) and Lambda_1(x) = 2 J_1(x) / x for x >= 18,
    x of any shape, by the Hankel expansion
    J_nu(x) = sqrt(2/(pi x)) (P cos w - Q sin w), w = x - nu pi/2 - pi/4,
    with P and Q polynomials in 1/x^2 (_hankel_rows at the floor of the
    smallest x, and at 1e3 beyond) run by one Horner sweep for both
    orders, and the phases w taken from sin x and cos x of x itself."""
    rows = _hankel_rows(min(math.floor(np.min(x)), 1000))
    inv = np.reciprocal(x)
    w = -inv.reshape(-1) * inv.reshape(-1)      # -1/x^2: x^2 overflows beyond 1.3e154
    acc = np.empty((4, w.size))
    acc[:] = rows[0][:, None]
    for row in rows[1:]:
        acc *= w
        acc += row[:, None]
    acc[1::2] *= inv.reshape(-1)                 # Q carries a factor 1/x
    p0, q0, p1, q1 = (r.reshape(x.shape) for r in acc)
    amp = np.sqrt(inv * (1.0 / math.pi))         # sqrt(2/(pi x)) / sqrt(2)
    sin_x, cos_x = np.sin(x), np.cos(x)
    # sqrt(2) cos w and -sqrt(2) sin w at order 1, w = x - 3 pi/4, are d and t;
    # at order 0 they turn into t and -d
    d, t = sin_x - cos_x, np.add(sin_x, cos_x, out=sin_x)
    lo = p0 * t
    lo -= np.multiply(q0, d, out=q0)
    lo *= amp
    hi = np.multiply(p1, d, out=d)
    hi += np.multiply(q1, t, out=t)
    amp *= inv
    amp *= 2.0
    hi *= amp
    return lo, hi


def _low_pair(nu0: float, x):
    """Lambda_nu0(x) and Lambda_(nu0+1)(x) of the normalized kernel
    Lambda_mu(x) = Gamma(mu+1) (2/x)^mu J_mu(x) = script_j(mu, x) /
    script_j(mu, 0): for nu0 = 1/2 and x >= 0, sin x / x and
    3 (sin x / x - cos x) / x^2, order nu0 + 1 given from x = 1 on and 0
    below it, where the form cancels; for nu0 = 0 and x >= 18, J_0(x) and
    2 J_1(x) / x by the Hankel expansion (_hankel_pair), all cells in one
    pass with the sums their smallest x needs."""
    x = np.asarray(x, dtype=float)
    if nu0 == 0.5:
        lo = np.divide(np.sin(x), x, out=np.ones_like(x), where=x > 0)
        hi = lo - np.cos(x)
        inv = np.divide(1.0, x, out=np.zeros_like(x), where=x >= 1.0)    # 1/x, 0 below 1
        hi *= inv
        hi *= 3.0 * inv
        return lo, hi
    return _hankel_pair(x)


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


# _ratio_phase takes the ratio expansion (DLMF 5.11.13) of
#     ln Gamma(1/2 + z) - ln Gamma(1 + z)
#         = -1/2 ln z + sum_(k=1..15) (2^-k - 2) B_(k+1) / (k (k+1) z^k),
# whose terms at even k vanish; _RATIO_COEFFS holds those at odd k.  At
# z = i lambda, |lambda| >= _RATIO_LAMBDA_MIN, its imaginary part is
# -sign(lambda) pi/4 plus odd powers of 1/lambda; below, z = _RATIO_SHIFT
# + i lambda, and the shift's factors are taken out (DLMF 5.5.1).
_RATIO_LAMBDA_MIN = 10.0
_RATIO_SHIFT = 12
_RATIO_COEFFS = tuple(
    float((Fraction(1, 2**k) - 2) * b / (k * (k + 1)))
    for k, b in zip(range(1, 16, 2), _bernoulli(16)[2::2]))    # b = B_(k+1)


def _ratio_phase(lam):
    """Im[ln Gamma(1/2 + i lambda) - ln Gamma(1 + i lambda)] at real lambda,
    scalar or array; odd in lambda.  Each log-Gamma has an imaginary part
    of size |lambda| ln |lambda|, so their difference is taken whole, by
    the ratio expansion (_RATIO_COEFFS): at z = i lambda from |lambda| = 10
    on, and below at z = 12 + i lambda, less the shift
    sum_(j<12) [arg(j + 1/2 + i lambda) - arg(j + 1 + i lambda)], each
    difference one arctangent of lambda / (2 (j + 1/2)(j + 1) + 2 lambda^2)."""
    lam = np.asarray(lam, dtype=float)
    out = np.empty_like(lam)
    near = np.abs(lam) < _RATIO_LAMBDA_MIN
    x = lam[near]
    w = np.reciprocal(_RATIO_SHIFT + 1j * x)      # 1/z
    phase = (_horner(_RATIO_COEFFS, w * w) * w).imag + 0.5 * np.angle(w)
    for j in range(_RATIO_SHIFT):
        phase -= np.arctan(0.5 * x / ((j + 0.5) * (j + 1.0) + x * x))
    out[near] = phase
    x = lam[~near]
    out[~near] = -_horner(_RATIO_COEFFS, -1.0 / (x * x)) / x - np.copysign(0.25 * math.pi, x)
    return out


def _horner(coeffs, w):
    """sum_i coeffs[i] w^i, w an array (real or complex)."""
    acc = np.zeros_like(w)
    for c in reversed(coeffs):
        acc = acc * w + c
    return acc


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
    for x in sorted(shifts, reverse=True):     # the smallest terms first: fewer ulps lost
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


def _cis(theta) -> np.ndarray:
    """e^(i theta) for real theta: cos and sin written straight into the
    real and imaginary parts of one complex array, with no complex product
    and no complex exp (np.exp(1j * theta) gives the same bits on numpy
    2.4)."""
    theta = np.asarray(theta, dtype=float)
    out = np.empty(theta.shape, dtype=complex)
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
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
        rot = _cis(_h_phase(params, lam))
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
