"""phi_lambda against its hypergeometric closed form, zone by zone.

On every Damek-Ricci space phi_lambda is a Jacobi function (Koornwinder,
*Jacobi functions and analysis on noncompact semisimple Lie groups*, 1984):

    phi_lambda(s) = 2F1(Q/2 + i lambda, Q/2 - i lambda; n/2; -sinh(s/2)^2).

phi_hyp evaluates it at 30 digits with mpmath.  Above lambda = 50 it
takes the Pfaff form cosh(s/2)^(-2a) 2F1(a, c - b; c; tanh(s/2)^2)
(DLMF 15.8.1) with a raised term cap; at lambda = 1000 that sum still
hits the cap for s >= 1.9, so the strip cases stop below it.
"""

import mpmath as mp
import numpy as np
import pytest

from drwave.space import new_space
from drwave.spherical import phi, phi_matrix


def _phi_hyp_mp(params, lam: float, s):
    a = mp.mpf(params.Q.numerator) / (2 * params.Q.denominator) + 1j * mp.mpf(lam)
    b = mp.conj(a)
    c = mp.mpf(params.n) / 2
    half = s / 2
    if lam <= 50:
        return mp.re(mp.hyp2f1(a, b, c, -mp.sinh(half) ** 2))
    return mp.re(mp.cosh(half) ** (-2 * a)
                 * mp.hyp2f1(a, c - b, c, mp.tanh(half) ** 2, maxterms=10**6))


def phi_hyp(params, lam: float, s: float) -> float:
    with mp.workdps(30):
        return float(_phi_hyp_mp(params, lam, mp.mpf(s)))


def _hyp_grid(params, lams, s):
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
            f = lambda x: _phi_hyp_mp(params, float(lam), x)  # noqa: E731
            for j, x in enumerate(s):
                x = mp.mpf(float(x))
                ref[i, j] = float(f(x))
                amp[i, j] = float(mp.sqrt(f(x) ** 2 + mp.diff(f, x) ** 2 / omega2[i]))
    return ref, amp


def test_phi_hyp_reproduces_h3_closed_form():
    # phi_lambda(s) = sin(lambda s) / (2 lambda sinh(s/2)) on H^3
    params = new_space(2, 0)
    for lam, s in ((3.0, 0.5), (60.0, 0.3), (300.0, 1.5), (1000.0, 1.0)):
        exact = np.sin(lam * s) / (2.0 * lam * np.sinh(s / 2.0))
        assert phi_hyp(params, lam, s) == pytest.approx(exact, rel=1e-14)


@pytest.mark.parametrize("m_v,m_z", [(2, 0), (2, 1), (4, 3), (4, 7), (6, 2), (8, 1), (16, 7)])
def test_bessel_zone_matches_hypergeometric(m_v, m_z):
    # s <= 0.75: the Bessel series, lambda from 0 to 2000, where lambda s
    # passes 1e3 from s = 0.55 on
    params = new_space(m_v, m_z)
    lams = np.array([0.0, 0.5, 3.0, 17.0, 100.0, 317.0, 1000.0, 2000.0])
    s = np.linspace(0.05, 0.75, 8)
    ref, amp = _hyp_grid(params, lams, s)
    got = phi_matrix(params, lams, s)
    assert np.max(np.abs(got - ref) / amp) <= 1e-12


@pytest.mark.parametrize("m_v,m_z", [(2, 0), (2, 1), (4, 3), (4, 7), (6, 2), (8, 1), (16, 7)])
def test_strip_matches_hypergeometric(m_v, m_z):
    # 0.75 < s < 2: the Bessel series, up to just below its s = 2 boundary
    params = new_space(m_v, m_z)
    lams = np.array([0.0, 0.5, 17.0, 300.0])
    s = np.array([0.8, 1.2, 1.6, 1.9, 1.99, 1.999])
    ref, amp = _hyp_grid(params, lams, s)
    got = phi_matrix(params, lams, s)
    assert np.max(np.abs(got - ref) / amp) <= 1e-12


@pytest.mark.parametrize("lam", [300.0, 1000.0])
@pytest.mark.parametrize("m_v,m_z", [(2, 1), (4, 7)])
def test_strip_matches_hypergeometric_at_high_frequency(m_v, m_z, lam):
    # 0.75 < s < 2 at high frequency: the Bessel series, whose cost per
    # cell does not grow with lambda
    params = new_space(m_v, m_z)
    s = np.array([0.8, 1.0, 1.2, 1.45, 1.7, 1.85])
    if lam < 1000.0:
        s = np.append(s, 1.95)
    ref, amp = _hyp_grid(params, [lam], s)
    got = phi_matrix(params, np.array([lam]), s)
    assert np.max(np.abs(got - ref) / amp) <= 1e-7


def test_dispatcher_strip_matches_hypergeometric(space21):
    # phi() takes the Bessel series in the strip, as phi_matrix() does
    s = np.array([0.9, 1.6])
    ref, amp = _hyp_grid(space21, [300.0], s)
    got = np.array([phi(space21, 300.0, x) for x in s])
    assert np.max(np.abs(got - ref[0]) / amp[0]) <= 1e-7


_SERIES_LAMS = [0.0, 1e-8, 1e-4, 0.1, 0.5, 0.99, 3.0]
_SERIES_S = np.array([2.0, 2.5, 3.0, 4.0, 6.0, 12.0])


@pytest.mark.parametrize("m_v,m_z", [(2, 0), (2, 1), (4, 3), (4, 7), (6, 2), (8, 1), (16, 7)])
def test_series_zone_matches_hypergeometric(m_v, m_z):
    # s >= 2: the exponential series at every lambda, lambda = 0 and
    # lambda -> 0 included, by phi_matrix() and by phi() cell by cell
    params = new_space(m_v, m_z)
    ref, amp = _hyp_grid(params, _SERIES_LAMS, _SERIES_S)
    tol = np.full(ref.shape, 1e-12)
    if (m_v, m_z) == (16, 7):
        # below lambda = 1 the series' large terms round near s = 2.  One
        # RK4 pass, the route these cells took before the series, read
        # 1.50e-9 to 2.46e-9 on them (1.85e-9 to 1.95e-9 at s = 2)
        low = np.array(_SERIES_LAMS) < 1.0
        tol[low] = 1e-9
        tol[low, _SERIES_S < 2.2] = 3.9e-9
    got = phi_matrix(params, np.array(_SERIES_LAMS), _SERIES_S)
    assert np.all(np.abs(got - ref) <= tol * amp)
    one = np.array([[phi(params, lam, x) for x in _SERIES_S] for lam in _SERIES_LAMS])
    assert np.all(np.abs(one - ref) <= tol * amp)
