"""Reference values the tests hold the library to, on no production path,
and the one-at-a-time forms of library constructions that only the tests
call:

- phi_hyp and its helpers, the closed form of phi_lambda below;
- phi, phi_matrix on one cell;
- case1_family and case2_family, the one-N builds of the experiments'
  batch builders `_case1_families` and `_case2_families`;
- euclidean_correspondence_inverse and its inverse euclidean_spectrum, the
  correspondence weight lambda^(n-1) / |c|^-2 written out;
- verify_phase_asymptotics, the sweep of the phases' derivative envelopes
  behind the growth exponents (delta1, delta2);
- plancherel_envelope_ratio and chi_lowpass.

On every Damek-Ricci space phi_lambda is a Jacobi function (Koornwinder,
*Jacobi functions and analysis on noncompact semisimple Lie groups*, 1984):

    phi_lambda(s) = 2F1(Q/2 + i lambda, Q/2 - i lambda; n/2; -sinh(s/2)^2).

phi_hyp evaluates it at 30 digits with mpmath.  Above lambda = 50 it
takes the Pfaff form cosh(s/2)^(-2a) 2F1(a, c - b; c; tanh(s/2)^2)
(DLMF 15.8.1) with a raised term cap; at lambda = 1000 that sum still
hits the cap for s >= 1.9.
"""

from dataclasses import dataclass

import mpmath as mp
import numpy as np

from drwave.dispersive import PhaseKind, phase_derivs
from drwave.errors import DomainError
from drwave.experiments import _case1_families, _case2_families
from drwave.profiles import SpectralProfile
from drwave.space import SpaceParams
from drwave.special import plancherel_density
from drwave.spherical import phi_matrix


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
    exactly zero where fh is: the map that euclidean_correspondence_inverse
    undoes."""
    lam = fh.lambda_grid
    out = np.zeros_like(fh.values)
    inside = np.abs(fh.values) > 0
    out[inside] = (plancherel_density(params, lam[inside]) * fh.values[inside]
                   / lam[inside] ** (params.n - 1))
    return SpectralProfile(lam, out, fh.support_hint)


def euclidean_correspondence_inverse(params, fg: SpectralProfile) -> SpectralProfile:
    """The spectrum fh with lambda^(n-1) Fg = |c|^-2 fh of a Euclidean radial
    spectrum Fg supported away from the origin: fh = lambda^(n-1) Fg / |c|^-2
    where Fg is nonzero, exactly zero elsewhere (no division happens there)."""
    if fg.support_hint is None or fg.support_hint[0] <= 0.0:
        raise DomainError(f"the correspondence needs a support_hint bounded away from 0, "
                          f"got {fg.support_hint}")
    lam = fg.lambda_grid
    out = np.zeros_like(fg.values)
    inside = np.abs(fg.values) > 0
    out[inside] = (lam[inside] ** (params.n - 1) * fg.values[inside]
                   / plancherel_density(params, lam[inside]))
    return SpectralProfile(lam, out, fg.support_hint)


def phi(params: SpaceParams, lam: float, s: float) -> float:
    """phi_lambda(s): phi_matrix on one cell."""
    return float(phi_matrix(params, [lam], [s])[0, 0])


def _one_family(families) -> SpectralProfile:
    """The family of a one-N `_case1_families` or `_case2_families` build."""
    lam, vals, _, (lo, hi) = families
    return SpectralProfile(lam[0], vals[0], support_hint=(float(lo[0]), float(hi[0])))


def case1_family(params: SpaceParams, n_freq: int) -> SpectralProfile:
    """The case-1 family at N alone: spectrum N^(-1/2) eta(-lambda/sqrt(N) +
    sqrt(N)) |c(lambda)| on [N - sqrt(N), N + sqrt(N)].  Raises
    ValidationError for N below 16."""
    return _one_family(_case1_families(params, [n_freq]))


def case2_family(params: SpaceParams, n_freq: int) -> SpectralProfile:
    """The case-2 family at N alone: spectrum lambda^(n-1) bump_12(lambda/N)
    |c(lambda)|^2 on [N, 2N], the Euclidean bump carried to the space by
    the correspondence weight of euclidean_correspondence_inverse."""
    return _one_family(_case2_families(params, [n_freq]))


@dataclass
class PhaseAsymptoticsReport:
    """Sup/inf statistics of the normalized derivative envelopes."""

    kind_name: str
    delta1: float
    delta2: float
    sup_low: float          # sup |psi'| / lambda^(delta1-1) on (0,1)
    sup_high: float         # sup |psi'| / lambda^(delta2-1) on [1, 1e4]
    dd_ratio_min: float     # inf |psi''| / lambda^(delta2-2) on [1, 1e4]
    dd_ratio_max: float
    passed: bool


# the upper-bound envelopes only need a finite constant; the psi'' envelope
# is two sided, so its normalized ratio must stay within a bounded band
_SUP_CAP = 1e6
_DD_BAND = 100.0
_N_LOW, _N_HIGH = 200, 400


def verify_phase_asymptotics(kind: PhaseKind, params: SpaceParams) -> PhaseAsymptoticsReport:
    """Sweep the envelopes on (1e-3, 1) and [1, 1e4] log grids of _N_LOW, _N_HIGH points."""
    lam_low = np.logspace(-3, 0, _N_LOW, endpoint=False)
    lam_high = np.logspace(0, 4, _N_HIGH)
    d1_low, _ = phase_derivs(kind, params, lam_low)
    d1_high, d2_high = phase_derivs(kind, params, lam_high)
    sup_low = float(np.max(np.abs(d1_low) / lam_low ** (kind.delta1 - 1.0)))
    sup_high = float(np.max(np.abs(d1_high) / lam_high ** (kind.delta2 - 1.0)))
    dd = np.abs(d2_high) / lam_high ** (kind.delta2 - 2.0)
    dd_min, dd_max = float(np.min(dd)), float(np.max(dd))
    passed = (
        sup_low < _SUP_CAP
        and sup_high < _SUP_CAP
        and dd_min > 0.0
        and dd_max / dd_min < _DD_BAND
    )
    return PhaseAsymptoticsReport(
        kind_name=kind.name, delta1=kind.delta1, delta2=kind.delta2,
        sup_low=sup_low, sup_high=sup_high,
        dd_ratio_min=dd_min, dd_ratio_max=dd_max, passed=passed,
    )
