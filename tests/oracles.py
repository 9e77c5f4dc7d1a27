"""Reference values the tests hold the library to, on no production path.

On every Damek-Ricci space phi_lambda is a Jacobi function (Koornwinder,
*Jacobi functions and analysis on noncompact semisimple Lie groups*, 1984):

    phi_lambda(s) = 2F1(Q/2 + i lambda, Q/2 - i lambda; n/2; -sinh(s/2)^2).

phi_hyp evaluates it at 30 digits with mpmath.  Above lambda = 50 it
takes the Pfaff form cosh(s/2)^(-2a) 2F1(a, c - b; c; tanh(s/2)^2)
(DLMF 15.8.1) with a raised term cap; at lambda = 1000 that sum still
hits the cap for s >= 1.9.
"""

import mpmath as mp
import numpy as np

from drwave.profiles import SpectralProfile
from drwave.special import plancherel_density


def hyp_params(params, lam: float):
    """(a, b, c) of the closed form at lambda: Q/2 + i lambda, its
    conjugate, and n/2, as mpmath numbers at the working precision."""
    a = mp.mpf(params.Q.numerator) / (2 * params.Q.denominator) + 1j * mp.mpf(lam)
    return a, mp.conj(a), mp.mpf(params.n) / 2


def phi_hyp_mp(params, lam: float, s):
    """phi_lambda(s) as an mpmath number, s an mpmath number."""
    a, b, c = hyp_params(params, lam)
    half = s / 2
    if lam <= 50:
        return mp.re(mp.hyp2f1(a, b, c, -mp.sinh(half) ** 2))
    return mp.re(mp.cosh(half) ** (-2 * a)
                 * mp.hyp2f1(a, c - b, c, mp.tanh(half) ** 2, maxterms=10**6))


def phi_hyp(params, lam: float, s: float) -> float:
    """phi_lambda(s) from the closed form at 30 digits, rounded once."""
    with mp.workdps(30):
        return float(phi_hyp_mp(params, lam, mp.mpf(s)))


def hyp_grid(params, lams, s):
    """phi_hyp on the grid product and the local amplitude
    hypot(phi, phi' / omega), omega = sqrt(lambda^2 + Q^2/4).

    Errors are measured against the amplitude: a pointwise relative
    error is meaningless at the zeros of an oscillating phi.
    """
    omega2 = np.asarray(lams, dtype=float) ** 2 + params.q2_over_4
    ref = np.empty((len(lams), len(s)))
    amp = np.empty_like(ref)
    with mp.workdps(30):
        for i, lam in enumerate(lams):
            f = lambda x: phi_hyp_mp(params, float(lam), x)  # noqa: E731
            for j, x in enumerate(s):
                x = mp.mpf(float(x))
                ref[i, j] = float(f(x))
                amp[i, j] = float(mp.sqrt(f(x) ** 2 + mp.diff(f, x) ** 2 / omega2[i]))
    return ref, amp


def plancherel_envelope_ratio(params, lam):
    """|c|^-2 divided by its comparison weight lambda^2 (1+lambda)^(n-3)."""
    lam = np.asarray(lam, dtype=float)
    return plancherel_density(params, lam) / (lam**2 * (1.0 + lam) ** (params.n - 3))


def chi_lowpass(xi):
    """chi = sigma(2-|xi|) / (sigma(2-|xi|) + sigma(|xi|-1)), sigma(x) =
    e^(-1/x) for x > 0 and 0 elsewhere: smooth, even, 1 on [-1, 1] and 0
    outside (-2, 2), the low-pass bump of which eta_dyadic is the
    difference chi(xi) - chi(2 xi)."""
    def sigma(x):
        out = np.zeros_like(x)
        pos = x > 0
        out[pos] = np.exp(-1.0 / x[pos])
        return out

    a = np.abs(np.asarray(xi, dtype=float))
    num = sigma(2.0 - a)
    den = num + sigma(a - 1.0)
    out = np.zeros_like(a)
    nz = den > 0
    out[nz] = num[nz] / den[nz]
    return out


def euclidean_spectrum(params, fh):
    """The Euclidean radial spectrum Fg with lambda^(n-1) Fg = |c|^-2 fh,
    exactly zero where fh is: the map that
    transform.euclidean_correspondence_inverse undoes."""
    lam = fh.lambda_grid
    out = np.zeros_like(fh.values)
    inside = np.abs(fh.values) > 0
    out[inside] = (plancherel_density(params, lam[inside]) * fh.values[inside]
                   / lam[inside] ** (params.n - 1))
    return SpectralProfile(lam, out, fh.support_hint)
