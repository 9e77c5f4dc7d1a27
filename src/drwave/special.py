"""Complex log-Gamma, Bessel kernels, the Harish-Chandra c-function and the
Plancherel density |c(lambda)|^-2.

The c-function is the four-Gamma ratio

    c(lambda) = 2^(Q-2i*lambda) Gamma(2i*lambda) / Gamma((Q+2i*lambda)/2)
                * Gamma(n/2) / Gamma((m_v + 4i*lambda + 2)/4),

evaluated through the principal-branch complex log-Gamma so that products
and quotients never overflow.  The Lanczos core of that log-Gamma takes
complex arrays, so ln c and the density run over a whole lambda array at
once; the scalar `ln_gamma_complex` and `c_function` wrap the same core.
|c(lambda)|^-2 is comparable to lambda^2 (1+lambda)^(n-3), with a
lambda^2 zero at the origin that the density evaluator fills by the
closed-form limit of |c|^-2 / lambda^2.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from scipy.special import jv

from .errors import PoleError
from .space import SpaceParams

__all__ = [
    "ln_gamma_complex",
    "bessel_j",
    "script_j",
    "c_function",
    "plancherel_density",
]


# Lanczos coefficients, g = 607/128, 15 terms (Godfrey's set).  Relative
# accuracy ~1e-14 on Re z >= 1/2, which the strips used by the c-function
# stay inside after the recurrence shift below.
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _ln_gamma_core(z):
    # Lanczos sum for Re z >= 0.5; z a complex scalar or array
    acc = _LANCZOS_C[0]
    for k in range(1, len(_LANCZOS_C)):
        acc = acc + _LANCZOS_C[k] / (z + (k - 1))
    t = z + (_LANCZOS_G - 0.5)
    return _HALF_LOG_2PI + (z - 0.5) * np.log(t) - t + np.log(acc)


def ln_gamma_complex(z: complex) -> complex:
    """Principal-branch log-Gamma on the plane cut along (-inf, 0].

    Uses the 15-term Lanczos approximation directly for Re z >= 0.5 and the
    recurrence log Gamma(z) = log Gamma(z+m) - sum_j Log(z+j) to shift
    smaller real parts into that half plane.  The recurrence preserves the
    principal branch on the whole cut plane (both sides are analytic there
    and agree on the positive axis), and unlike the reflection formula it
    never forms sin(pi z), which overflows for the large imaginary
    arguments the c-function feeds in.
    """
    z = complex(z)
    if z.imag == 0.0 and z.real <= 0.0 and z.real == int(z.real):
        raise PoleError(f"log-Gamma pole at z = {z}")
    shift = max(0, int(math.ceil(0.5 - z.real)))
    acc = sum(cmath.log(z + j) for j in range(shift))
    return complex(_ln_gamma_core(z + shift)) - acc


def bessel_j(mu: float, x):
    """Bessel function of the first kind J_mu(x) for x >= 0.

    Delegates to the AMOS implementation in scipy; the independent
    power-series oracle lives in the test suite.
    """
    return jv(mu, x)


def _script_j_series(mu: float, x, terms: int = 12):
    # 2^mu sqrt(pi) Gamma(mu+1/2) * sum_k (-1)^k (x/2)^(2k) / (k! Gamma(mu+k+1))
    # == script_j via the J series with the x^-mu factor cancelled analytically.
    x = np.asarray(x, dtype=float)
    pref = math.sqrt(math.pi) * math.exp(math.lgamma(mu + 0.5) - math.lgamma(mu + 1.0))
    acc = np.ones_like(x)
    term = np.ones_like(x)
    q = 0.25 * x * x
    for k in range(1, terms + 1):
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
        raise ValueError(f"script_j requires mu >= 0, got {mu}")
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


def _ln_c(params: SpaceParams, lam):
    """ln c(lambda) at real lambda != 0, scalar or array.

    ln Gamma(2i lambda) takes the one recurrence step into the Lanczos
    half plane, core(2i lambda + 1) - Log(2i lambda); the other complex
    arguments have real parts Q/2 and (m_v+2)/4, both >= 1/2 already.
    """
    Q = float(params.Q)
    z = 2j * np.asarray(lam, dtype=float)
    return (
        (Q - z) * math.log(2.0)
        + (_ln_gamma_core(z + 1.0) - np.log(z))
        - _ln_gamma_core((Q + z) / 2.0)
        + math.lgamma(params.n / 2.0)
        - _ln_gamma_core((params.m_v + 2.0 * z + 2.0) / 4.0)
    )


def c_function(params: SpaceParams, lam: float) -> complex:
    """Harish-Chandra c-function at real lambda != 0.

    Conjugate symmetry c(-lambda) = conj(c(lambda)) holds exactly because
    every Gamma factor satisfies Gamma(conj z) = conj Gamma(z).
    """
    if lam == 0:
        raise PoleError("c-function has a pole at lambda = 0")
    return complex(np.exp(_ln_c(params, float(lam))))


def _plancherel_limit(params: SpaceParams) -> float:
    """L = lim_{lambda->0} |c(lambda)|^-2 / lambda^2, in closed form.

    As lambda -> 0, Gamma(2i lambda) ~ 1/(2i lambda) and the other three
    Gamma factors of c tend to their values at lambda = 0, so
    L = 4 Gamma(Q/2)^2 Gamma((m_v+2)/4)^2 / (2^(2Q) Gamma(n/2)^2).
    """
    Q = float(params.Q)
    log_sqrt_l = ((1.0 - Q) * math.log(2.0) + math.lgamma(Q / 2.0)
                  + math.lgamma((params.m_v + 2.0) / 4.0) - math.lgamma(params.n / 2.0))
    return math.exp(2.0 * log_sqrt_l)


def plancherel_density(params: SpaceParams, lam):
    """Plancherel density |c(lambda)|^-2 for lambda >= 0.

    Every lambda >= 1e-4 takes one array evaluation of ln c.  Below it
    the quadratic zero is evaluated as lambda^2 * L with the closed-form
    limit constant L, sidestepping the cancellation at the
    Gamma(2 i lambda) pole.
    """
    lam_arr = np.asarray(lam, dtype=float)
    scalar = lam_arr.ndim == 0
    lam_arr = np.atleast_1d(lam_arr)
    if np.any(lam_arr < 0):
        raise ValueError("plancherel_density requires lambda >= 0")
    out = np.empty_like(lam_arr)
    small = lam_arr < 1e-4
    out[small] = _plancherel_limit(params) * lam_arr[small] ** 2
    out[~small] = np.exp(-2.0 * _ln_c(params, lam_arr[~small]).real)
    return float(out[0]) if scalar else out


def plancherel_envelope_ratio(params: SpaceParams, lam):
    """|c|^-2 divided by its comparison weight lambda^2 (1+lambda)^(n-3)."""
    lam = np.asarray(lam, dtype=float)
    return plancherel_density(params, lam) / (lam**2 * (1.0 + lam) ** (params.n - 3))
