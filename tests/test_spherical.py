import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from drwave import spherical
from drwave.errors import (
    DomainError,
    PhiBoundError,
    ResolutionError,
    StepSizeError,
)
from drwave.space import density, log_density_derivative, new_space
from drwave.special import script_j
from drwave.spherical import (
    _TAYLOR_S0,
    _auto_step,
    _bessel_matrix,
    _bessel_table,
    _gamma_matrix,
    _hc_matrix,
    _hc_mu_for,
    _kernel_orders,
    _ode_refined,
    _ode_values,
    _taylor_coeffs,
    _transfer_coeffs,
    c0_constant,
    liouville_potential,
    omega_coeffs,
    phi,
    phi_matrix,
    phi_ode_oracle,
    phi_with_method,
)


# ---------------------------------------------------------------------------
# ODE oracle
# ---------------------------------------------------------------------------

def test_ode_normalization_and_evenness(space21):
    prof = phi_ode_oracle(space21, 3.0, 1.0, 1e-3)
    assert prof.values[0] == 1.0
    # zero slope at the origin: the first two interior samples bracket 1
    assert abs(prof.values[1] - 1.0) < 1e-5
    assert abs(prof.values[1] - prof.values[2]) < 1e-4


def test_ode_lambda_zero_positive(space21):
    prof = phi_ode_oracle(space21, 0.0, 1.0, 1e-3)
    val = prof.values[-1]
    assert 0.0 < val <= 1.0


def test_ode_self_convergence(space21):
    # Richardson self-check: halving the step moves phi(3) by < 1e-9
    coarse = phi_ode_oracle(space21, 10.0, 3.0, 5e-4)
    fine = phi_ode_oracle(space21, 10.0, 3.0, 2.5e-4)
    i_c = np.searchsorted(coarse.s_grid, 3.0 - 1e-12)
    i_f = np.searchsorted(fine.s_grid, 3.0 - 1e-12)
    assert abs(coarse.values[i_c] - fine.values[i_f]) < 1e-9


def test_ode_step_rejection(space21):
    with pytest.raises(StepSizeError):
        phi_ode_oracle(space21, 100.0, 1.0, 1e-3)


# ---------------------------------------------------------------------------
# exact oracle on real hyperbolic 3-space, (m_v, m_z) = (2, 0)
# ---------------------------------------------------------------------------

# On H^3, A(s) = (2 sinh(s/2))^2 and phi_lambda(s) = sin(lambda s) /
# (2 lambda sinh(s/2)), with phi_0(s) = s / (2 sinh(s/2)).  Every route
# is held to 1e-9 of it: RK4 at its default tolerance reaches about
# 1e-10 at lambda = 50, the Bessel series about 1e-13.
H3_TOL = 1e-9


@pytest.fixture(scope="module")
def space20():
    return new_space(2, 0)


def _phi_h3(lam, s):
    s = np.asarray(s, dtype=float)
    out = np.ones_like(s)
    pos = s > 0
    num = np.sin(lam * s[pos]) / lam if lam else s[pos]
    out[pos] = num / (2.0 * np.sinh(s[pos] / 2.0))
    return out


def test_phi_matrix_exact_on_h3(space20):
    # both routes: Bessel (s < 2) and the exponential series (s >= 2),
    # lambda = 0 included; s descends, so each route must put its values
    # back in their columns
    lams = np.array([0.0, 0.5, 2.0, 10.0, 50.0])
    s = np.linspace(6.0, 0.0, 241)
    mat = phi_matrix(space20, lams, s)
    for i, lam in enumerate(lams):
        assert np.max(np.abs(mat[i] - _phi_h3(lam, s))) < H3_TOL


def test_phi_ode_oracle_exact_on_h3(space20):
    for lam in (0.0, 0.5, 2.0, 10.0):
        step = min(1e-3, 0.05 / math.sqrt(lam * lam + space20.q2_over_4))
        prof = phi_ode_oracle(space20, lam, 6.0, step)
        assert np.max(np.abs(prof.values - _phi_h3(lam, prof.s_grid))) < H3_TOL


def test_ode_refined_exact_on_h3(space20):
    s = np.array([_TAYLOR_S0, 0.3, 1.0, 2.5, 6.0])
    for lam in (0.0, 0.5, 2.0, 10.0, 50.0):
        assert np.max(np.abs(_ode_refined(space20, lam, s) - _phi_h3(lam, s))) < H3_TOL


@pytest.mark.parametrize("lam,s,method", [
    (2.0, 0.3, "bessel"), (40.0, 0.7, "bessel"),
    (2.0, 1.2, "bessel"), (0.5, 4.0, "hc"), (30.0, 1.9, "bessel"),
    (2.0, 3.0, "hc"), (25.0, 6.0, "hc"),
])
def test_dispatcher_exact_on_h3(space20, lam, s, method):
    ref = _phi_h3(lam, np.array([s]))[0]
    val, got_method = phi_with_method(space20, lam, s)
    assert got_method == method
    assert abs(val - ref) < H3_TOL
    assert abs(phi(space20, lam, s) - ref) < H3_TOL


# ---------------------------------------------------------------------------
# RK4 transfer matrices
# ---------------------------------------------------------------------------

def _rk4_stage_step(p1, p2, p4, nu, y, yp, h):
    """One classical RK4 step of the radial equation, stage by stage."""
    k1y, k1p = yp, -p1 * yp - nu * y
    y2, yp2 = y + 0.5 * h * k1y, yp + 0.5 * h * k1p
    k2y, k2p = yp2, -p2 * yp2 - nu * y2
    y3, yp3 = y + 0.5 * h * k2y, yp + 0.5 * h * k2p
    k3y, k3p = yp3, -p2 * yp3 - nu * y3
    y4, yp4 = y + h * k3y, yp + h * k3p
    k4y, k4p = yp4, -p4 * yp4 - nu * y4
    return (y + h / 6.0 * (k1y + 2.0 * k2y + 2.0 * k3y + k4y),
            yp + h / 6.0 * (k1p + 2.0 * k2p + 2.0 * k3p + k4p))


@settings(max_examples=200, deadline=None)
@given(
    m_v=st.integers(1, 8).map(lambda k: 2 * k),
    m_z=st.integers(0, 8).map(lambda k: 2 * k),
    nu_excess=st.floats(0.0, 2500.0),
    s0=st.floats(_TAYLOR_S0, 8.0),
    step_frac=st.floats(1e-3, 1.0),
    yp_ratio=st.floats(-1.0, 1.0),
)
def test_transfer_step_matches_stage_rk4(m_v, m_z, nu_excess, s0, step_frac, yp_ratio):
    # steps as the integrator takes them: h resolves the frequency and
    # does not exceed the distance from the origin
    params = new_space(m_v, m_z)
    nu = params.q2_over_4 + nu_excess
    omega = math.sqrt(nu)
    h = step_frac * min(0.05 / omega, s0)
    p1, p2, p4 = (float(log_density_derivative(params, x)) for x in (s0, s0 + 0.5 * h, s0 + h))
    c = _transfer_coeffs(np.array([h]), np.array([p1]), np.array([p2]), np.array([p4]))[0]
    y, yp = 1.0, yp_ratio * omega
    got = c[0:2] @ [y, yp] + nu * (c[2:4] @ [y, yp]) + nu * nu * (c[4:6] @ [y, yp])
    want = _rk4_stage_step(p1, p2, p4, nu, y, yp, h)
    # relative in the norm that weighs y' by 1/omega, the scale of a
    # solution oscillating at frequency omega
    err = math.hypot(got[0] - want[0], (got[1] - want[1]) / omega)
    assert err <= 1e-13 * math.hypot(want[0], want[1] / omega)


def test_ode_values_targets_below_taylor_start(space43):
    nu = np.array([space43.q2_over_4, 40.0])
    s = np.array([0.0, 5e-4, _TAYLOR_S0, 0.5])
    h = _auto_step(math.sqrt(nu.max()), 0.5)
    vals = _ode_values(space43, nu, s, h)
    _, c2, c4 = _taylor_coeffs(space43, nu)[:3]
    assert np.all(vals[:, 0] == 1.0)
    assert np.allclose(vals[:, 1], 1.0 + c2 * s[1] ** 2 + c4 * s[1] ** 4, rtol=0, atol=1e-15)
    assert np.allclose(vals[:, 2], 1.0 + c2 * s[2] ** 2 + c4 * s[2] ** 4, rtol=0, atol=1e-15)
    # neither Taylor target adds a step to the march to 0.5
    assert np.array_equal(vals[:, 3], _ode_values(space43, nu, s[3:], h)[:, 0])


def test_ode_values_repeated_targets(space43):
    nu = np.array([space43.q2_over_4, 40.0])
    h = _auto_step(math.sqrt(nu.max()), 1.0)
    vals = _ode_values(space43, nu, np.array([0.5, 0.5, 1.0, 1.0]), h)
    once = _ode_values(space43, nu, np.array([0.5, 1.0]), h)
    assert np.array_equal(vals, once[:, [0, 0, 1, 1]])


def test_ode_values_single_target(space20):
    nu = np.array([2.0**2 + space20.q2_over_4])
    vals = _ode_values(space20, nu, np.array([1.3]), 1e-3)
    assert vals.shape == (1, 1)
    assert abs(vals[0, 0] - _phi_h3(2.0, 1.3)) < H3_TOL


def test_ode_values_mixed_frequency_block(space20):
    # the gap nu = Q^2/4 (lambda = 0) shares a step with nu ~ 2500
    nu = np.array([space20.q2_over_4, 2500.0])
    s = np.linspace(0.8, 2.0, 7)
    h = _auto_step(math.sqrt(nu.max()), float(s[-1]))
    vals = _ode_values(space20, nu, s, h)
    for row, n in zip(vals, nu):
        lam = math.sqrt(n - space20.q2_over_4)
        assert np.max(np.abs(row - _phi_h3(lam, s))) < H3_TOL
        alone = _ode_values(space20, np.array([n]), s, h)[0]
        assert np.max(np.abs(row - alone)) < 1e-14


# ---------------------------------------------------------------------------
# exponential-series machinery
# ---------------------------------------------------------------------------

def test_omega_matches_liouville_potential(all_spaces):
    # mandatory gate: the closed-form omega_k reproduce the potential
    for p in all_spaces:
        om = omega_coeffs(p, 60)
        for s in (1.0, 2.0, 3.5):
            q = math.exp(-s)
            series = sum(om[k - 1] * q**k for k in range(1, 61))
            assert series == pytest.approx(liouville_potential(p, s), abs=1e-12)


def test_omega_convolution_equals_the_double_loop(all_spaces):
    # every c_k is an integer, so the convolution is exact in any order
    for p in all_spaces:
        alpha, beta, Q = 0.5 * (p.m_v + p.m_z), 0.5 * p.m_z, float(p.Q)
        c = [alpha + (1 if k % 2 == 0 else -1) * beta for k in range(1, 81)]
        ref = [(Q - k) * c[k - 1] + sum(c[j - 1] * c[k - j - 1] for j in range(1, k))
               for k in range(1, 81)]
        assert np.array_equal(omega_coeffs(p, 80), ref)


def test_omega_vanishes_for_real_hyperbolic():
    p = new_space(2, 0)
    assert np.max(np.abs(omega_coeffs(p, 40))) == 0.0


def test_gamma_zeroth_is_one(space21):
    assert np.all(_gamma_matrix(space21, np.array([0.5, 5.0, 80.0]), 5)[:, 0] == 1.0)


def test_gamma_first_hand_recursion(space21):
    # (1 - 2 i lam) Gamma_1 = omega_1
    lam = 5.0
    om1 = omega_coeffs(space21, 1)[0]
    expected = om1 / (1.0 - 2j * lam)
    assert _gamma_matrix(space21, np.array([lam]), 1)[0, 1] == pytest.approx(expected, rel=1e-14)


def test_gamma_coefficient_decay(space21):
    # |Gamma_mu(lam)| <= C mu^d (1+lam)^-1: fit d on the computed range and
    # verify one constant covers the whole sweep
    mu = np.arange(1, 61)
    best_d, best_c = 0.0, math.inf
    samples = []
    for lam in np.geomspace(1.0, 100.0, 12):
        gam = np.abs(_gamma_matrix(space21, np.array([lam]), 60)[0, 1:]) * (1.0 + lam)
        samples.append(gam)
    samples = np.array(samples)
    # envelope regression of log max-over-lam against log mu
    env = samples.max(axis=0)
    d_fit = float(np.polyfit(np.log(mu), np.log(env + 1e-300), 1)[0])
    d_fit = max(d_fit, 0.0)
    ratios = samples / mu[None, :] ** d_fit
    assert np.isfinite(ratios).all()
    assert np.max(ratios) < 100.0


def test_gamma_at_negative_lambda_is_conjugate(space21):
    # omega is real, so the exponential series takes Gamma_mu(-lam) as
    # the conjugate of Gamma_mu(lam)
    lams = np.array([0.3, 2.0, 17.0])
    g = _gamma_matrix(space21, lams, 40)
    assert np.array_equal(_gamma_matrix(space21, -lams, 40), np.conj(g))


def _series(params, lam: float, s: np.ndarray, mu_max: int | None = None) -> np.ndarray:
    """The exponential series at one lambda, as phi_matrix runs it beyond s = 2."""
    lams = np.array([abs(lam)])
    if mu_max is None:
        mu_max = _hc_mu_for(params, lams, float(np.min(s)))
    return _hc_matrix(params, lams, s, _gamma_matrix(params, lams, mu_max))[0]


def test_phi_hc_vs_ode(space21):
    got = phi_matrix(space21, np.array([3.0]), np.array([2.0]))[0, 0]
    ref = _ode_refined(space21, 3.0, np.array([2.0]))[0]
    assert abs(got - ref) <= 1e-6 * abs(ref)


def test_phi_hc_vs_bessel_overlap(space21):
    hc = _series(space21, 3.0, np.array([1.5]), mu_max=60)[0]
    bes = _bessel_matrix(space21, np.array([3.0]), np.array([1.5]))[0, 0]
    assert abs(hc - bes) <= 1e-5 * max(abs(hc), 1e-3)


def test_hc_pointwise_decay_bound(space21):
    # |phi_lambda(s)| lambda^((n-1)/2) e^(Q s/2) bounded on the far region
    lam = np.geomspace(1.0, 100.0, 16)
    s = np.linspace(1.0, 5.0, 40)
    mat = phi_matrix(space21, lam, s)
    weight = np.exp(0.5 * float(space21.Q) * s)[None, :] * lam[:, None] ** (
        (space21.n - 1) / 2.0
    )
    assert np.max(np.abs(mat) * weight) < 1e3


# ---------------------------------------------------------------------------
# Bessel series
# ---------------------------------------------------------------------------

def test_phi_bessel_at_zero(space43):
    assert _bessel_matrix(space43, np.array([7.3]), np.array([0.0]))[0, 0] == 1.0


def test_phi_bessel_vs_ode(space21):
    val = phi(space21, 2.0, 0.5)
    ref = _ode_refined(space21, 2.0, np.array([0.5]))[0]
    assert abs(val - ref) <= 1e-6 * abs(ref)


def test_phi_bessel_bound_high_frequency(space21):
    val = _bessel_matrix(space21, np.array([20.0]), np.array([1.0]))[0, 0]
    assert abs(val) <= 1.0 + 1e-9


def test_c0_constant_real_hyperbolic():
    # for m_z = 0 the reduced constant coincides with the literature value
    p = new_space(2, 0)
    assert c0_constant(p) == pytest.approx(0.5, rel=1e-13)


class _WeightedTable:
    """A space's coefficient table with each order l's a_l scaled by weight[l]."""

    def __init__(self, tab, weight):
        self.mu0 = tab.mu0
        self._tab, self._weight = tab, np.asarray(weight, dtype=float)

    def a_values(self, s):
        return self._weight[:, None] * self._tab.a_values(s)


@pytest.mark.parametrize("m", [0, 1, 2, 16])
@pytest.mark.parametrize("m_v,m_z", [(2, 0), (2, 1), (4, 3), (6, 2)])
def test_bessel_matrix_matches_per_order_sum(m_v, m_z, m, monkeypatch):
    # the order recurrence against one script_j call per order, over
    # x = lambda s from 0 through x < 0.1 and x ~ mu up to x = 1e5; a table
    # cut after order m < 16 isolates the sweep's lowest orders, which the
    # downward recurrence reaches last
    params = new_space(m_v, m_z)
    tab = _bessel_table(params)
    lams = np.array([0.0, 0.5, 9.0, 30.0, 1.4e5])
    s = np.array([0.0, 1e-3, 0.05, 0.2, 0.4, 0.75])
    cut = _WeightedTable(tab, np.arange(17) <= m)
    monkeypatch.setattr(spherical, "_bessel_table", lambda p: cut)
    got = _bessel_matrix(params, lams, s)
    assert np.all(got[:, 0] == 1.0)
    sp = s[1:]
    a = tab.a_values(sp)
    pref = c0_constant(params) * np.sqrt(sp ** (params.n - 1) / density(params, sp))
    for i, lam in enumerate(lams):
        ref = pref * sum(a[l] * sp ** (2 * l) * script_j(tab.mu0 + l, lam * sp)
                         for l in range(m + 1))
        assert np.max(np.abs(got[i, 1:] - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("mu0", [0.5, 1.0, 3.5, 11.0, 14.5])
def test_kernel_orders_upward_path_matches_mpmath(mu0):
    # cells with x > mu0 + m + 1 take the upward recurrence from the start
    # pair: just above that switch, on both sides of the Hankel switch at
    # 1e3 and up to 2e5; every order within 2e-13 of the kernel's amplitude
    # sqrt(2/(pi x)) 2^mu sqrt(pi) Gamma(mu+1/2) / x^mu
    m = 16
    x = np.concatenate([mu0 + m + 1.0 + np.array([1e-9, 1e-3, 0.5, 3.0]),
                        [60.0, 999.0, 999.999, 1000.0, 1000.5, 3e4, 1.3e5, 2e5]])
    with mp.workdps(30):
        for l, kernel in _kernel_orders(mu0, x):
            mu = mp.mpf(mu0 + l)
            for xi, got in zip(x, kernel):
                xm = mp.mpf(float(xi))
                pref = 2**mu * mp.sqrt(mp.pi) * mp.gamma(mu + 0.5) / xm**mu
                ref = pref * mp.besselj(mu, xm)
                amp = pref * mp.sqrt(2 / (mp.pi * xm))
                assert abs(got - ref) <= 2e-13 * amp, (float(mu), float(xi))


@pytest.mark.parametrize("m", [1, 16])
@pytest.mark.parametrize("m_v,m_z", [(2, 0), (2, 1), (4, 3), (16, 7)])
def test_bessel_matrix_per_order_sum_across_upward_switch(m_v, m_z, m, monkeypatch):
    # one call whose cells lie on both sides of x = mu0 + 17, against
    # one script_j call per order; a table cut after order m = 1 checks the
    # two lowest orders alone on both sides
    params = new_space(m_v, m_z)
    tab = _bessel_table(params)
    s = np.array([0.1, 0.5, 0.75, 1.3, 1.9])
    lams = (tab.mu0 + 17.0) / 0.5 * np.array([0.9, 0.999, 1.001, 1.1, 4.0, 3e3])
    cut = _WeightedTable(tab, np.arange(17) <= m)
    monkeypatch.setattr(spherical, "_bessel_table", lambda p: cut)
    got = _bessel_matrix(params, lams, s)
    a = tab.a_values(s)
    pref = c0_constant(params) * np.sqrt(s ** (params.n - 1) / density(params, s))
    for i, lam in enumerate(lams):
        ref = pref * sum(a[l] * s ** (2 * l) * script_j(tab.mu0 + l, lam * s)
                         for l in range(m + 1))
        assert np.max(np.abs(got[i] - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_bessel_series_small_s_normalization(all_spaces):
    for p in all_spaces:
        val = phi_matrix(p, [1.0], np.array([1e-3]))[0, 0]
        ref = _ode_refined(p, 1.0, np.array([1e-3]))[0]
        assert val == pytest.approx(ref, rel=1e-10)


# ---------------------------------------------------------------------------
# dispatcher
# ---------------------------------------------------------------------------

def test_phi_at_identity(space21):
    assert phi(space21, 17.0, 0.0) == 1.0


def test_phi_methods(space21):
    assert phi_with_method(space21, 2.0, 0.3)[1] == "bessel"
    assert phi_with_method(space21, 2.0, 3.0)[1] == "hc"
    assert phi_with_method(space21, 2.0, 1.2)[1] == "bessel"
    assert phi_with_method(space21, 0.5, 4.0)[1] == "hc"


def test_phi_boundary_continuity(space21):
    # s = 2: Bessel against the exponential series at every lambda
    for lam in (0.5, 1.0, 5.0, 25.0):
        left, left_method = phi_with_method(space21, lam, 2.0 - 1e-9)
        right, right_method = phi_with_method(space21, lam, 2.0 + 1e-9)
        assert (left_method, right_method) == ("bessel", "hc")
        assert abs(left - right) < 1e-6


def test_phi_never_reaches_rk4(space43, monkeypatch):
    # RK4 is only the oracle: phi_matrix and phi() run without it on a grid
    # that crosses s = 2, at lambda = 0, lambda -> 0 and negative lambda
    lams = np.array([0.0, 1e-8, -0.5, 0.5, -3.0])
    s = np.array([0.0, 0.3, 1.9, 2.0, 2.5, 7.0])
    ref = np.array([_ode_refined(space43, lam, s) for lam in lams])

    def no_rk4(*args, **kwargs):
        raise AssertionError("RK4 reached from phi")

    monkeypatch.setattr(spherical, "_ode_values", no_rk4)
    got = phi_matrix(space43, lams, s)
    one = np.array([[phi(space43, lam, x) for x in s] for lam in lams])
    assert np.max(np.abs(got - ref)) <= 1e-8
    assert np.max(np.abs(one - ref)) <= 1e-8


def test_phi_matches_ode_mid_regime(space43):
    got = phi(space43, 7.0, 3.0)
    ref = _ode_refined(space43, 7.0, np.array([3.0]))[0]
    assert got == pytest.approx(ref, rel=1e-6)


def test_phi_evenness(space21, rng):
    for _ in range(8):
        lam = float(rng.uniform(0.2, 40.0))
        s = float(rng.uniform(0.0, 5.0))
        a, b = phi(space21, lam, s), phi(space21, -lam, s)
        assert abs(a - b) <= 1e-10 * max(abs(a), 1e-300)


def test_phi_bound_sweep(space21, rng):
    for _ in range(30):
        lam = float(rng.uniform(0.0, 80.0))
        s = float(rng.uniform(0.0, 8.0))
        assert abs(phi(space21, lam, s)) <= 1.0 + 1e-9


def test_phi_rejects_negative_s(space21):
    with pytest.raises(DomainError):
        phi(space21, 1.0, -0.1)
    for lam in (math.inf, math.nan):          # and a lambda that is not finite
        with pytest.raises(DomainError):
            phi_matrix(space21, np.array([1.0, lam]), np.array([1.0, 3.0]))


def test_three_way_agreement_overlap(space21):
    # Bessel / exponential-series / ODE pairwise within 1e-5 on the strip
    s = np.array([0.8, 1.1, 1.4, 1.7])
    for lam in (1.5, 3.0, 8.0):
        ode = _ode_refined(space21, lam, s)
        bes = phi_matrix(space21, [lam], s)[0]
        hc = _series(space21, lam, s)
        scale = np.maximum(np.abs(ode), 1e-2)
        assert np.max(np.abs(bes - ode) / scale) < 1e-5
        assert np.max(np.abs(hc - ode) / scale) < 1e-5
        assert np.max(np.abs(hc - bes) / scale) < 1e-5


@settings(max_examples=25, deadline=None)
@given(
    m_v=st.integers(1, 4).map(lambda k: 2 * k),
    m_z=st.integers(0, 7),
    lam=st.floats(0.0, 200.0),
    s=st.lists(st.floats(0.0, 6.0), min_size=1, max_size=4),
)
@example(m_v=2, m_z=0, lam=5.723467190405921e-291, s=[2.0])   # lambda^2 underflows
def test_phi_matrix_even_and_bounded(m_v, m_z, lam, s):
    # s crosses the route boundary at 2
    params = new_space(m_v, m_z)
    plus = phi_matrix(params, np.array([lam]), np.array(s))
    minus = phi_matrix(params, np.array([-lam]), np.array(s))
    assert np.max(np.abs(plus - minus)) <= 1e-12
    assert np.max(np.abs(plus)) <= 1.0 + 1e-9


def test_phi_matrix_consistency(space21):
    lam = np.array([0.4, 2.0, 9.0])
    s = np.array([0.2, 1.1, 2.6])
    mat = phi_matrix(space21, lam, s)
    for i, l in enumerate(lam):
        for j, x in enumerate(s):
            assert mat[i, j] == pytest.approx(phi(space21, float(l), float(x)), rel=5e-7)


def test_phi_matrix_bound_guard(space21, monkeypatch):
    # doubled coefficients put the Bessel zone near 2
    doubled = _WeightedTable(_bessel_table(space21), np.full(17, 2.0))
    monkeypatch.setattr(spherical, "_bessel_table", lambda params: doubled)
    with pytest.raises(PhiBoundError):
        phi_matrix(space21, np.array([1.0, 3.0]), np.array([0.1, 0.5, 3.0]))


def test_hc_mu_for_raises_at_cap(space21, monkeypatch):
    lams = np.array([1.0, 4.0])
    assert _hc_mu_for(space21, lams, 0.5) == 80
    with pytest.raises(ResolutionError):
        _hc_mu_for(space21, lams, 0.05)          # needs more than 320
    monkeypatch.setattr(spherical, "_HC_MU_CAP", 80)
    assert _hc_mu_for(space21, lams, 0.5) == 80  # converged at the cap
    with pytest.raises(ResolutionError):
        _hc_mu_for(space21, lams, 0.3)           # needs 160


def test_phi_matrix_profile_shape(space21):
    mat = phi_matrix(space21, np.linspace(0, 5, 7), np.linspace(0, 4, 9))
    assert mat.shape == (7, 9)
    assert np.allclose(mat[:, 0], 1.0)
