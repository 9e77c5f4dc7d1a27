import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import jv

from drwave.errors import PoleError
from drwave.space import new_space
from drwave.special import (
    _bessel_start_pair,
    c_function,
    plancherel_density,
    plancherel_envelope_ratio,
    script_j,
)

mp.mp.dps = 50


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def oracle_bessel_series(mu: float, x: float, terms: int = 200) -> float:
    """Power-series oracle for J_mu(x): sum_k (-1)^k (x/2)^(mu+2k) / (k! Gamma(mu+k+1))."""
    half = mp.mpf(x) / 2
    acc = mp.mpf(0)
    for k in range(terms):
        acc += (-1) ** k * half ** (mu + 2 * k) / (mp.factorial(k) * mp.gamma(mu + k + 1))
    return float(acc)


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

def test_bessel_half_integer_closed_form():
    # sqrt(pi x / 2) J_(-1/2) = cos x and sqrt(pi x / 2) J_(1/2) = sin x
    x = math.pi / 2
    lo, hi = _bessel_start_pair(0.5, x)
    root = math.sqrt(2.0 / (math.pi * x))
    assert root * hi == pytest.approx(2.0 / math.pi, rel=1e-15)
    assert abs(root * lo) <= 1e-16
    x = np.array([2.0, 37.5, 1e3, 2e5])
    lo, hi = _bessel_start_pair(0.5, x)
    for nu, got in ((-0.5, lo), (0.5, hi)):
        ref = [float(mp.sqrt(mp.pi * v / 2) * mp.besselj(nu, v)) for v in x]
        np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-15)


def test_bessel_at_zero():
    # at x = 0 every kernel order is its series limit
    # script_j_mu(0) = sqrt(pi) Gamma(mu+1/2) / Gamma(mu+1)
    from drwave.spherical import _kernel_sum

    for mu0 in (0.5, 1.0, 11.0):
        for l in range(17):
            kernel = _kernel_sum(mu0, np.zeros(3), np.eye(17)[l][:, None])
            mu = mu0 + l
            limit = math.sqrt(math.pi) * math.exp(math.lgamma(mu + 0.5) - math.lgamma(mu + 1.0))
            np.testing.assert_allclose(kernel, limit, rtol=1e-13)


def test_bessel_vs_series_oracle():
    # the start pairs sqrt(pi x / 2) (J_(nu0-1), J_nu0) against the power
    # series, on the j0/j1 branch of nu0 = 0 and the closed forms of 1/2
    for x in (2.5, 5.0, 37.5):
        root = math.sqrt(0.5 * math.pi * x)
        lo, hi = _bessel_start_pair(0.0, x)
        assert lo == pytest.approx(-root * oracle_bessel_series(1.0, x), rel=1e-13)
        assert hi == pytest.approx(root * oracle_bessel_series(0.0, x), rel=1e-13)
        lo, hi = _bessel_start_pair(0.5, x)
        assert lo == pytest.approx(root * oracle_bessel_series(-0.5, x), rel=1e-13)
        assert hi == pytest.approx(root * oracle_bessel_series(0.5, x), rel=1e-13)


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


def test_c_function_pole_at_zero(space21):
    with pytest.raises(PoleError):
        c_function(space21, 0.0)


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
