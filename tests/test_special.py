import math
import sys
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.special import jv

from drwave.errors import PoleError
from drwave.space import new_space
from drwave.special import (
    _cis,
    _low_pair,
    _ratio_phase,
    c_function,
    plancherel_density,
    script_j,
)
from oracles import plancherel_envelope_ratio

mp.mp.dps = 50


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def oracle_c_function(m_v: int, m_z: int, lam: float) -> complex:
    """Direct high-precision product of the four Gamma factors."""
    n = m_v + m_z + 1
    q = mp.mpf(m_v) / 2 + m_z
    il = 2j * mp.mpf(lam)
    val = (
        mp.mpf(2) ** (q - il)
        * mp.gamma(il)
        / mp.gamma((q + il) / 2)
        * mp.gamma(mp.mpf(n) / 2)
        / mp.gamma((m_v + 2 * il + 2) / 4)
    )
    return complex(val)


# ---------------------------------------------------------------------------
# Bessel kernels
# ---------------------------------------------------------------------------

_LOW_PAIR_X = [0.0, 1e-300, 0.3, 1.0, math.pi / 2, 2.404825557695773, 37.5, 999.0, 1e3,
               1.3e5, 2e5]
# the integer pair starts the upward recurrence alone, at x > mu0 + 17 >= 18:
# both sides of the Hankel term counts' steps, which one call takes at its smallest x
_LOW_PAIR_X_INTEGER = [18.0 + 1e-9, 18.5, 20.0, 25.0, 37.5, 40.0 - 1e-9, 40.0, 50.0, 999.0,
                       1e3, 1.3e5, 2e5]


@pytest.mark.parametrize("nu0", [0.0, 0.5])
def test_low_pair_matches_mpmath(nu0):
    # Lambda_mu(x) = Gamma(mu+1) (2/x)^mu J_mu(x) at mu = nu0 and nu0 + 1,
    # all x in one call and each alone: within 1e-15 of the amplitude
    # min(1, Gamma(mu+1) (2/x)^mu sqrt(2/(pi x))), on the half-integer
    # closed forms from x = 0 and on the integer pair's Hankel expansion
    # over its domain x > 18; below x = 1 order nu0 + 1 is 0, as
    # _low_pair states
    xs = _LOW_PAIR_X_INTEGER if nu0 == 0.0 else _LOW_PAIR_X
    calls = [np.array(xs)] + [np.array([x]) for x in xs]
    with mp.workdps(40):
        for x in calls:
            for mu, got in zip((nu0, nu0 + 1.0), _low_pair(nu0, x)):
                for xi, g in zip(x, got):
                    if mu > nu0 and xi < 1.0:
                        assert g == 0.0
                        continue
                    ref, amp = mp.mpf(1), 1.0
                    if xi > 0:
                        xm = mp.mpf(float(xi))
                        pref = mp.gamma(mu + 1) * (2 / xm) ** mu
                        ref = pref * mp.besselj(mu, xm)
                        amp = min(1.0, float(pref * mp.sqrt(2 / (mp.pi * xm))))
                    assert abs(g - ref) <= 1e-15 * amp, (mu, float(xi))


def test_ratio_phase_matches_mpmath():
    # Im[ln Gamma(1/2 + i lambda) - ln Gamma(1 + i lambda)] on 1,001 lambda
    # in [0, 10] and both sides of the switch at 10, against 40-digit
    # log-Gammas: within 2e-15, and odd in lambda
    lam = np.concatenate([np.linspace(0.0, 10.0, 1001), [10.0 - 1e-12, 10.0 + 1e-12, 12.0]])
    with mp.workdps(40):
        ref = np.array([float(mp.im(mp.loggamma(mp.mpf(0.5) + 1j * mp.mpf(x))
                                    - mp.loggamma(1 + 1j * mp.mpf(x)))) for x in lam])
    assert np.max(np.abs(_ratio_phase(lam) - ref)) <= 2e-15
    assert np.max(np.abs(_ratio_phase(-lam) + ref)) <= 2e-15


def test_cis_is_the_complex_exponential():
    # cos + i sin in place of np.exp(1j * theta), its reference: within one
    # rounding of it, on a scalar and a 2-D array, 0, tiny, pi and huge
    # arguments included
    theta = np.array([[0.0, -1e-300, 1e-8, math.pi], [-2.5, 40.0, 1e15, -3e300]])
    for arg in (theta, theta[1, 2]):
        got, ref = _cis(arg), np.exp(1j * np.asarray(arg))
        assert got.shape == ref.shape and got.dtype == complex
        assert np.max(np.abs(got - ref)) <= 2.0**-52


def test_bessel_at_zero():
    # at x = 0 every order of the normalized kernel Lambda_mu(x) =
    # script_j(mu, x) / script_j(mu, 0) is 1
    from drwave.spherical import _kernel_sum

    for mu0 in (0.5, 1.0, 11.0):
        for l in range(17):
            kernel = _kernel_sum(mu0, np.zeros(3), np.eye(17)[l][:, None])
            np.testing.assert_allclose(kernel, 1.0, rtol=1e-13)


def test_script_j_limits():
    # series limit of the defining ratio at x = 0
    assert script_j(0.5, 0.0) == pytest.approx(2.0, rel=1e-13)
    assert script_j(1.0, 0.0) == pytest.approx(math.pi / 2.0, rel=1e-13)


def test_script_j_matches_direct_ratio():
    # consistency with 2^mu sqrt(pi) Gamma(mu+1/2) J_mu(x) / x^mu beyond 1e-3
    for mu in (0.5, 1.0, 3.0, 11.5):
        pref = 2.0**mu * math.sqrt(math.pi) * float(mp.gamma(mu + 0.5))
        for x in (2e-3, 0.05, 0.7, 4.0, 55.0):
            direct = pref * jv(mu, x) / x**mu
            assert script_j(mu, x) == pytest.approx(direct, rel=1e-10)


def test_script_j_large_argument_envelope(space21):
    # cosine asymptotic: |script_j_mu(x)| x^((2 mu + 1)/2) stays bounded
    mu = (space21.n - 2) / 2.0
    x = np.geomspace(10.0, 1e4, 300)
    vals = np.abs(script_j(mu, x)) * x ** ((2 * mu + 1) / 2.0)
    assert np.max(vals) < 20.0


# ---------------------------------------------------------------------------
# c-function and Plancherel density
# ---------------------------------------------------------------------------

def test_c_function_conjugate_symmetry(space21, rng):
    for lam in rng.uniform(0.1, 100.0, 25):
        c_plus = complex(c_function(space21, float(lam)))
        c_minus = complex(c_function(space21, -float(lam)))
        assert abs(c_minus - c_plus.conjugate()) <= 1e-12 * abs(c_plus)


def test_c_function_vs_high_precision_oracle(space21):
    got = complex(c_function(space21, 1.0))
    ref = oracle_c_function(2, 1, 1.0)
    assert abs(got - ref) <= 1e-10 * abs(ref)


@pytest.mark.parametrize("m_v,m_z", [(2, 0), (2, 1), (4, 3), (4, 7), (6, 2), (8, 1), (16, 7)])
def test_c_function_to_rounding_vs_oracle(m_v, m_z):
    # the phase keeps no lambda log lambda cancellation: c within 1e-14
    # relative of the 50-digit four-Gamma product from 1e-6 to 1e5
    params = new_space(m_v, m_z)
    lam = np.geomspace(1e-6, 1e5, 34)
    err = [abs(c_function(params, float(x)) / oracle_c_function(m_v, m_z, x) - 1.0)
           for x in lam]
    assert max(err) <= 1e-14


@pytest.mark.parametrize("lam", [1e154, 1e200, 1e300])
def test_c_function_at_huge_lambda(all_spaces, lam):
    # |c|^-2 passes the float range here; c takes its limit without an
    # overflow warning, stays finite and no larger than at 1e100
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for params in all_spaces:
            c = c_function(params, lam)
            assert np.isfinite(c.real) and np.isfinite(c.imag)
            assert abs(c) <= abs(c_function(params, 1e100))
            assert c_function(params, -lam) == c.conjugate()


@pytest.mark.parametrize("m_v,m_z,lam", [(2, 0, 1e154), (2, 0, 1e300), (2, 1, 1e120),
                                         (2, 1, 1e154), (4, 3, 1e50), (4, 3, 1e80),
                                         (16, 7, 1e20), (16, 7, 1e25),
                                         (2, 1, 1e-300), (16, 7, 1e-300)])
def test_c_function_where_the_density_leaves_the_float_range(m_v, m_z, lam):
    # |c|^-2 overflows (or, at 1e-300, underflows) here while |c| is a
    # normal double: c within 1e-14 relative of the four-Gamma product.
    # The factors' phases (about lambda ln lambda each) cancel, so at large
    # lambda the oracle carries log10(lambda) more digits
    with mp.workdps(40 + max(0, int(math.log10(lam)))):
        ref = oracle_c_function(m_v, m_z, lam)
    assert sys.float_info.min < abs(ref) < sys.float_info.max
    assert abs(c_function(new_space(m_v, m_z), lam) / ref - 1.0) <= 1e-14


def test_c_function_pole_at_zero(space21):
    with pytest.raises(PoleError):
        c_function(space21, 0.0)


@pytest.mark.parametrize("m_v,m_z", [(2, 0), (2, 1), (4, 3), (6, 2), (8, 1), (16, 7)])
def test_c_function_array_matches_elementwise(m_v, m_z):
    # an array of lambda, both signs and up to 1e300, gives its per-element
    # calls within np.spacing, and c(-lambda) = conj c(lambda) exactly
    params = new_space(m_v, m_z)
    lam = np.concatenate([np.geomspace(0.01, 1e5, 300), [1e154, 1e300]])
    lam = np.concatenate([lam, -lam])
    got = c_function(params, lam)
    ref = np.array([c_function(params, float(x)) for x in lam])
    for part in ("real", "imag"):
        g, r = getattr(got, part), getattr(ref, part)
        assert np.all(np.abs(g - r) <= np.spacing(np.abs(r))), part
    half = lam.size // 2
    assert np.array_equal(got[half:], np.conj(got[:half]))


@pytest.mark.parametrize("lam", [[1.0, 0.0, 2.0], [-0.0], [[3.0, -1.0], [0.0, 5.0]]])
def test_c_function_pole_anywhere_in_an_array(space21, lam):
    with pytest.raises(PoleError):
        c_function(space21, np.array(lam))


def test_plancherel_zero(space21):
    assert plancherel_density(space21, 0.0) == 0.0


def test_plancherel_consistency_with_c(space21):
    c = complex(c_function(space21, 10.0))
    assert plancherel_density(space21, 10.0) == pytest.approx(1.0 / abs(c) ** 2, rel=1e-10)


def test_plancherel_positive_and_envelope(all_spaces):
    lam = np.geomspace(0.01, 100.0, 400)
    for p in all_spaces:
        ratio = plancherel_envelope_ratio(p, lam)
        assert np.all(ratio > 0)
        assert np.max(ratio) / np.min(ratio) < 50.0


def test_plancherel_derivative_envelopes(all_spaces):
    # |d^j/dlambda^j |c|^-2| <= C_j (1+lambda)^(n-1-j), j = 1, 2
    lam = np.geomspace(1.0, 100.0, 120)
    h = 1e-3
    for p in all_spaces:
        pd = lambda x: plancherel_density(p, x)
        d1 = (pd(lam + h) - pd(lam - h)) / (2 * h)
        d2 = (pd(lam + h) - 2 * pd(lam) + pd(lam - h)) / h**2
        r1 = np.abs(d1) / (1 + lam) ** (p.n - 2)
        r2 = np.abs(d2) / (1 + lam) ** (p.n - 3)
        assert np.max(r1) < 50.0
        assert np.max(r2) < 50.0


def test_plancherel_small_lambda_quadratic(space43):
    # the lambda^2 zero is filled smoothly across the 1e-4 switch point
    below = plancherel_density(space43, 9.9e-5) / 9.9e-5**2
    above = plancherel_density(space43, 1.01e-4) / 1.01e-4**2
    assert below == pytest.approx(above, rel=1e-6)


@pytest.mark.parametrize("m_v,m_z", [(2, 0), (2, 1), (4, 3), (8, 1), (6, 2), (16, 7)])
def test_plancherel_limit_closed_form_vs_richardson(m_v, m_z):
    # L = lim |c|^-2 / lambda^2 from the closed-form density at lambda = 1e-6
    # against Richardson extrapolation in lambda^2 of the 50-digit
    # |c(lambda)|^-2 / lambda^2 at lambda = 1e-4 and 5e-5
    params = new_space(m_v, m_z)
    r1, r2 = (1.0 / abs(oracle_c_function(m_v, m_z, lam)) ** 2 / lam**2 for lam in (1e-4, 5e-5))
    richardson = (4.0 * r2 - r1) / 3.0
    assert plancherel_density(params, 1e-6) / 1e-12 == pytest.approx(richardson, rel=1e-12)


def test_plancherel_limit_h3():
    # c(lambda) = 1/(2 i lambda) on real hyperbolic 3-space, so L = 4
    assert plancherel_density(new_space(2, 0), 1e-6) / 1e-12 == pytest.approx(4.0, rel=1e-14)


@pytest.mark.parametrize("m_v,m_z", [(2, 0), (2, 1), (4, 3), (6, 2), (8, 1), (4, 7), (6, 0)])
def test_plancherel_density_closed_form_vs_oracle(m_v, m_z):
    # the closed form against the 50-digit four-Gamma product, lambda from
    # 1e-6 to 1e5, and 4 lambda^2 exactly on H^3
    params = new_space(m_v, m_z)
    lam = np.geomspace(1e-6, 1e5, 34)
    ref = np.array([1.0 / abs(oracle_c_function(m_v, m_z, x)) ** 2 for x in lam])
    assert np.max(np.abs(plancherel_density(params, lam) / ref - 1.0)) <= 1e-14
    h3 = new_space(2, 0)
    assert np.max(np.abs(plancherel_density(h3, lam) / (4.0 * lam**2) - 1.0)) <= 1e-14


@pytest.mark.parametrize("m_v,m_z", [(2, 1), (4, 3)])
def test_plancherel_density_array_matches_pointwise(m_v, m_z):
    params = new_space(m_v, m_z)
    lam = np.geomspace(1e-4, 1e5, 200)
    point = np.array([1.0 / abs(c_function(params, float(x))) ** 2 for x in lam])
    assert np.max(np.abs(plancherel_density(params, lam) / point - 1.0)) <= 1e-12
    # against the 50-digit oracle up to lambda = 1e3; beyond, the log-Gamma
    # sum cancels terms of size ~pi lambda, and double precision keeps
    # about 1e-16 pi lambda of the result
    lam = np.array([1e-4, 0.37, 1.0, 7.3, 100.0, 1e3])
    ref = np.array([1.0 / abs(oracle_c_function(m_v, m_z, x)) ** 2 for x in lam])
    assert np.max(np.abs(plancherel_density(params, lam) / ref - 1.0)) <= 1e-12


def test_plancherel_rejects_negative(space21):
    with pytest.raises(ValueError):
        plancherel_density(space21, -1.0)
