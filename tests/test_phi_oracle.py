"""phi_lambda against its hypergeometric closed form, zone by zone.

phi_hyp (tests/oracles.py) evaluates the Jacobi-function closed form at
30 digits with mpmath.  At lambda = 1000 its Pfaff sum hits the term cap
for s >= 1.9, so the strip cases stop below it.
"""

import mpmath as mp
import numpy as np
import pytest

from drwave.space import new_space
from drwave.spherical import phi, phi_matrix
from oracles import hyp_grid, hyp_params, phi_hyp, phi_hyp_mp


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
    ref, amp = hyp_grid(params, lams, s)
    got = phi_matrix(params, lams, s)
    assert np.max(np.abs(got - ref) / amp) <= 1e-12


@pytest.mark.parametrize("m_v,m_z", [(2, 0), (2, 1), (4, 3), (4, 7), (6, 2), (8, 1), (16, 7)])
def test_strip_matches_hypergeometric(m_v, m_z):
    # 0.75 < s < 2: the Bessel series, up to just below its s = 2 boundary
    params = new_space(m_v, m_z)
    lams = np.array([0.0, 0.5, 17.0, 300.0])
    s = np.array([0.8, 1.2, 1.6, 1.9, 1.99, 1.999])
    ref, amp = hyp_grid(params, lams, s)
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
    ref, amp = hyp_grid(params, [lam], s)
    got = phi_matrix(params, np.array([lam]), s)
    assert np.max(np.abs(got - ref) / amp) <= 1e-7


def test_dispatcher_strip_matches_hypergeometric(space21):
    # phi() takes the Bessel series in the strip, as phi_matrix() does
    s = np.array([0.9, 1.6])
    ref, amp = hyp_grid(space21, [300.0], s)
    got = np.array([phi(space21, 300.0, x) for x in s])
    assert np.max(np.abs(got - ref[0]) / amp[0]) <= 1e-7


_SERIES_LAMS = [0.0, 1e-8, 1e-4, 0.1, 0.5, 0.99, 3.0, 10.0, 50.0]
_SERIES_S = np.array([2.0, 2.5, 3.0, 4.0, 6.0, 12.0])


@pytest.mark.parametrize("m_v,m_z", [(2, 0), (2, 1), (4, 3), (4, 7), (6, 2), (8, 1), (16, 7)])
def test_series_zone_matches_hypergeometric(m_v, m_z):
    # s >= 2: the exponential series at every lambda, lambda = 0 and
    # lambda -> 0 included, by phi_matrix() and by phi() cell by cell
    params = new_space(m_v, m_z)
    ref, amp = hyp_grid(params, _SERIES_LAMS, _SERIES_S)
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


@pytest.mark.parametrize("m_v,m_z", [(2, 0), (2, 1)])
def test_series_far_out_matches_hypergeometric(m_v, m_z):
    # the density A passes the float range from s ~ 355 on (2, 1); the
    # series' prefactor A^(-1/2) is formed without it, so phi keeps its
    # small value: within 1e-12 of phi_0(s), which bounds every |phi_lambda(s)|
    params = new_space(m_v, m_z)
    lams, s = [0.0, 0.5, 3.0], [200.0, 700.0]
    got = phi_matrix(params, lams, s)
    ref = np.array([[phi_hyp(params, lam, x) for x in s] for lam in lams])
    assert np.all(ref[0] > 0)
    assert np.all(np.abs(got - ref) <= 1e-12 * ref[0])


def _ode_residual(params, lam: float, s: float):
    """|phi'' + (A'/A) phi' + (lambda^2 + Q^2/4) phi| of phi_hyp at s > 0,
    and (lambda^2 + Q^2/4) hypot(phi, phi'/omega), the scale it is held to.

    phi itself is phi_hyp's value; its derivatives come from DLMF 15.5.1,
    d/dz 2F1(a, b; c; z) = (ab/c) 2F1(a+1, b+1; c+1; z), through
    z = -sinh(s/2)^2, z' = -sinh(s)/2, z'' = -cosh(s)/2.  ab is
    lambda^2 + Q^2/4.
    """
    with mp.workdps(30):
        a, b, c = hyp_params(params, lam)
        s = mp.mpf(s)
        z = -mp.sinh(s / 2) ** 2
        dz, d2z = -mp.sinh(s) / 2, -mp.cosh(s) / 2
        f1 = a * b / c * mp.hyp2f1(a + 1, b + 1, c + 1, z)
        f2 = a * b * (a + 1) * (b + 1) / (c * (c + 1)) * mp.hyp2f1(a + 2, b + 2, c + 2, z)
        d1 = mp.re(f1 * dz)
        d2 = mp.re(f2 * dz**2 + f1 * d2z)
        val = phi_hyp_mp(params, lam, s)
        drift = (mp.mpf(params.m_v + params.m_z) / 2 / mp.tanh(s / 2)
                 + mp.mpf(params.m_z) / 2 * mp.tanh(s / 2))
        omega2 = mp.re(a * b)
        res = d2 + drift * d1 + omega2 * val
        return float(abs(res)), float(omega2 * mp.sqrt(val**2 + d1**2 / omega2))


@pytest.mark.parametrize("m_v,m_z", [(2, 1), (4, 7), (16, 7)])
def test_phi_hyp_solves_the_radial_equation(m_v, m_z):
    # the closed form against the equation that defines phi, on spaces with
    # a center, both below lambda = 50 and in the Pfaff form above it
    params = new_space(m_v, m_z)
    for lam in (0.0, 0.5, 7.0, 60.0):
        assert phi_hyp(params, lam, 0.0) == 1.0
        for s in (0.4, 1.9, 3.5):
            res, scale = _ode_residual(params, lam, s)
            assert res <= 1e-20 * scale
