import itertools
import math

import mpmath as mp
import numpy as np
import pytest
from numpy.polynomial import polynomial
from scipy.special import gammaln
from hypothesis import example, given, settings
from hypothesis import strategies as st

from drwave import spherical
from drwave.errors import DomainError, PhiBoundError, ResolutionError
from drwave.space import density, log_density_derivative, new_space
from drwave.special import script_j
from drwave.spherical import (
    _bessel_coeffs,
    _bessel_matrix,
    _BesselColumns,
    _gamma_matrix,
    _HCSeries,
    _hc_mu_for,
    _kernel_sum,
    omega_coeffs,
    phi,
    phi_matrix,
)
from oracles import phi_hyp


# ---------------------------------------------------------------------------
# exact oracle on real hyperbolic 3-space, (m_v, m_z) = (2, 0)
# ---------------------------------------------------------------------------

# On H^3, A(s) = (2 sinh(s/2))^2 and phi_lambda(s) = sin(lambda s) /
# (2 lambda sinh(s/2)), with phi_0(s) = s / (2 sinh(s/2)).  Both series
# routes are held to 1e-9 of it; the Bessel series reaches about 1e-13.
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


@pytest.mark.parametrize("lam,s,method", [
    (2.0, 0.3, "bessel"), (40.0, 0.7, "bessel"),
    (2.0, 1.2, "bessel"), (0.5, 4.0, "hc"), (30.0, 1.9, "bessel"),
    (2.0, 3.0, "hc"), (25.0, 6.0, "hc"),
])
def test_dispatcher_exact_on_h3(space20, lam, s, method):
    ref = _phi_h3(lam, np.array([s]))[0]
    val = phi(space20, lam, s)
    assert val == _route(space20, lam, s, method)
    assert abs(val - ref) < H3_TOL


# ---------------------------------------------------------------------------
# exponential-series machinery
# ---------------------------------------------------------------------------

def _liouville_potential(params, s: float) -> float:
    """V(s) = (A'/A)^2/4 + (A'/A)'/2 - Q^2/4, the independent check on
    omega_k, with (A'/A)' = -(m_v+m_z)/(4 sinh(s/2)^2) + m_z/(4 cosh(s/2)^2)."""
    p = log_density_derivative(params, s)
    pp = (-params.half_sum / (2.0 * math.sinh(s / 2.0) ** 2)
          + params.m_z / (4.0 * math.cosh(s / 2.0) ** 2))
    return 0.25 * p * p + 0.5 * pp - params.q2_over_4


def test_omega_matches_liouville_potential(all_spaces):
    # mandatory gate: the closed-form omega_k reproduce the potential
    for p in all_spaces:
        om = omega_coeffs(p, 60)
        for s in (1.0, 2.0, 3.5):
            q = math.exp(-s)
            series = sum(om[k - 1] * q**k for k in range(1, 61))
            assert series == pytest.approx(_liouville_potential(p, s), abs=1e-12)


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
    return _HCSeries(params, lams, s, mu_max).block(slice(None))[0]


def _bessel(params, lams, s) -> np.ndarray:
    """The Bessel series on the grid product, as phi_matrix runs it below s = 2."""
    cols = _BesselColumns(params, np.asarray(s, dtype=float))
    return _bessel_matrix(cols, np.asarray(lams, dtype=float))


def _route(params, lam: float, s: float, method: str) -> float:
    """phi_lambda(s) from the route `method` alone: "bessel" or "hc"."""
    if method == "bessel":
        return _bessel(params, [abs(lam)], [s])[0, 0]
    return _series(params, lam, np.array([s]))[0]


def _kernels(mu0: float, x: np.ndarray):
    """(l, Lambda_(mu0 + l)(x)) for l = 16..0, each order from its own
    _kernel_sum with that order's weight 1 and every other 0."""
    for l in range(16, -1, -1):
        yield l, _kernel_sum(mu0, x, np.eye(17)[l][:, None])


def test_phi_hc_vs_hyp(space21):
    got = phi_matrix(space21, np.array([3.0]), np.array([2.0]))[0, 0]
    ref = phi_hyp(space21, 3.0, 2.0)
    assert abs(got - ref) <= 1e-6 * abs(ref)


def test_phi_hc_vs_bessel_overlap(space21):
    hc = _series(space21, 3.0, np.array([1.5]), mu_max=60)[0]
    bes = _bessel(space21, np.array([3.0]), np.array([1.5]))[0, 0]
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
    assert _bessel(space43, np.array([7.3]), np.array([0.0]))[0, 0] == 1.0


def test_phi_bessel_vs_hyp(space21):
    val = phi(space21, 2.0, 0.5)
    ref = phi_hyp(space21, 2.0, 0.5)
    assert abs(val - ref) <= 1e-6 * abs(ref)


def test_phi_bessel_bound_high_frequency(space21):
    val = _bessel(space21, np.array([20.0]), np.array([1.0]))[0, 0]
    assert abs(val) <= 1.0 + 1e-9


def _a_values(params, s):
    """a_l(s) for l = 0..16, shape (17, n_s), from the space's coefficients."""
    return polynomial.polyval(s * s, _bessel_coeffs(params).T)


def _scale_orders(monkeypatch, params, weight):
    """Patch the Bessel series' coefficients to the space's, each order l's
    row scaled by weight[l]."""
    scaled = _bessel_coeffs(params) * np.asarray(weight, dtype=float)[:, None]
    monkeypatch.setattr(spherical, "_bessel_coeffs", lambda p: scaled)


@pytest.mark.parametrize("m", [0, 1, 2, 16])
@pytest.mark.parametrize("m_v,m_z", [(2, 0), (2, 1), (4, 3), (6, 2)])
def test_bessel_matrix_matches_per_order_sum(m_v, m_z, m, monkeypatch):
    # the order recurrence against Lambda_mu(x) = script_j(mu, x) /
    # script_j(mu, 0), one script_j pair per order, over
    # x = lambda s from 0 through x < 0.1 and x ~ mu up to x = 1e5; a table
    # cut after order m < 16 isolates the sweep's lowest orders, which the
    # downward recurrence reaches last
    params = new_space(m_v, m_z)
    mu0 = (params.n - 2) / 2
    lams = np.array([0.0, 0.5, 9.0, 30.0, 1.4e5])
    s = np.array([0.0, 1e-3, 0.05, 0.2, 0.4, 0.75])
    sp = s[1:]
    a = _a_values(params, sp)
    _scale_orders(monkeypatch, params, np.arange(17) <= m)
    got = _bessel(params, lams, s)
    assert np.all(got[:, 0] == 1.0)
    pref = np.sqrt(sp ** (params.n - 1) / density(params, sp))
    for i, lam in enumerate(lams):
        ref = pref * sum(a[l] * sp ** (2 * l) * _lambda_oracle(mu0 + l, lam * sp)
                         for l in range(m + 1))
        assert np.max(np.abs(got[i, 1:] - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("mu0", [0.5, 1.0, 3.5, 11.0, 14.5])
def test_kernel_orders_upward_path_matches_mpmath(mu0):
    # cells with x > mu0 + m + 1 take the upward recurrence from the start
    # pair: just above that switch, on both sides of the Hankel switch at
    # 1e3 and up to 2e5; every order within 2e-13 of the kernel's amplitude
    # sqrt(2/(pi x)) Gamma(mu+1) (2/x)^mu
    m = 16
    x = np.concatenate([mu0 + m + 1.0 + np.array([1e-9, 1e-3, 0.5, 3.0]),
                        [60.0, 999.0, 999.999, 1000.0, 1000.5, 3e4, 1.3e5, 2e5]])
    with mp.workdps(30):
        for l, kernel in _kernels(mu0, x):
            mu = mp.mpf(mu0 + l)
            for xi, got in zip(x, kernel):
                xm = mp.mpf(float(xi))
                pref = mp.gamma(mu + 1) * (2 / xm)**mu
                ref = pref * mp.besselj(mu, xm)
                amp = pref * mp.sqrt(2 / (mp.pi * xm))
                assert abs(got - ref) <= 2e-13 * amp, (float(mu), float(xi))


def _lambda_oracle(mu, x):
    """Lambda_mu(x) = script_j(mu, x) / script_j(mu, 0), the normalized kernel."""
    return script_j(mu, x) / script_j(mu, 0.0)


def _kernel_amplitude(mu, x):
    """The amplitude of Lambda_mu(x): its value 1 at x = 0, which bounds
    it, or the envelope sqrt(2/(pi x)) Gamma(mu+1) (2/x)^mu of its
    oscillation, whichever is smaller."""
    mu = np.asarray(mu, dtype=float)[..., None, None]
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore"):
        log_env = gammaln(mu + 1.0) + mu * np.log(2.0 / x) + 0.5 * np.log(2.0 / (math.pi * x))
    return np.exp(np.minimum(0.0, log_env))


def _bessel_amplitude(params, lams, s):
    """The amplitude of the Bessel series on the grid product, s > 0:
    (s^(n-1)/A)^(1/2) sum_l |a_l(s)| s^(2l) times each kernel's amplitude."""
    l = np.arange(17)
    weights = np.abs(_a_values(params, s)) * s ** (2 * l)[:, None]
    amp = _kernel_amplitude((params.n - 2) / 2 + l, np.outer(lams, s))   # (17, n_lam, n_s)
    pref = np.sqrt(s ** (params.n - 1) / density(params, s))
    return pref * np.einsum("ls,lis->is", weights, amp)


_MILLER_X = [0.0, 1e-300, 1e-8, 0.3, 2.404825557695773, math.pi, 2.0 * math.pi]


@pytest.mark.parametrize("mu0", [0.5, 1.0, 3.0, 3.5, 11.0, 30.0])
def test_miller_kernels_match_mpmath(mu0):
    # cells with x <= mu0 + 17 start the sweep by Miller's algorithm: at
    # x = 0, x << 1, the zeros of J_0 (2.4048...) and of sin x (pi, 2 pi)
    # that the normalizing pairs cross, and just below mu0 + 17, where
    # mu0 = 30 reaches past the start's bracket table; each x alone, so
    # that each takes the start its own size selects, and all together;
    # every order within 2e-13 of the kernel's amplitude
    top_x = [mu0 + 17.0 - 1e-9, mu0 + 17.0]
    calls = [np.array([x]) for x in _MILLER_X + top_x] + [np.array(_MILLER_X + top_x)]
    with mp.workdps(30):
        for x in calls:
            for l, kernel in _kernels(mu0, x):
                mu = mp.mpf(mu0 + l)
                amp = _kernel_amplitude(mu0 + l, x)[0]
                for xi, got, a in zip(x, kernel, amp):
                    xm = mp.mpf(float(xi))
                    if xi == 0.0:
                        ref = mp.mpf(1)
                    else:
                        ref = mp.gamma(mu + 1) * (2 / xm)**mu * mp.besselj(mu, xm)
                    assert abs(got - ref) <= 2e-13 * a, (float(mu), float(xi))


@pytest.mark.parametrize("m_v,m_z", [(2, 0), (2, 1), (16, 7)])
def test_neumann_normalized_sweep_matches_mpmath(m_v, m_z):
    # the Miller sweep is normalized by Neumann's sum over its even orders
    # nu0 + 2k: at a block's largest Miller x = mu0 + 17, alone and beside
    # x = 0 and upward cells, every order is within 1e-14 of the kernel's
    # amplitude; and the sum with the library's gamma_k, cut at the sweep's
    # start (K = 34 on (16, 7)), is 1 to 1e-15 in 30-digit kernels
    mu0 = (new_space(m_v, m_z).n - 2) / 2
    nu0, top = mu0 % 1.0, mu0 + 16.0
    x_top = mu0 + 17.0
    with mp.workdps(30):
        for x in (np.array([x_top]), np.array([0.0, x_top, x_top + 0.5, 300.0])):
            for l, kernel in _kernels(mu0, x):
                mu = mp.mpf(mu0 + l)
                xm = mp.mpf(x_top)
                ref = mp.gamma(mu + 1) * (2 / xm)**mu * mp.besselj(mu, xm)
                amp = _kernel_amplitude(mu0 + l, [x_top])[0, 0]
                assert abs(kernel[x == x_top][0] - ref) <= 1e-14 * amp, float(mu)
        start = top + spherical._miller_extra(top, x_top)
        k_max = int((start - nu0) // 2)
        gam = list(itertools.islice(spherical._neumann_coeffs(nu0), k_max + 1))
        xm = mp.mpf(x_top)
        total = mp.fsum(g * (xm * xm / 4)**k * mp.gamma(nu0 + 2 * k + 1) * (2 / xm)**(nu0 + 2 * k)
                        * mp.besselj(nu0 + 2 * k, xm) for k, g in enumerate(gam))
    assert abs(total - 1) <= 1e-15
    if (m_v, m_z) == (16, 7):
        assert k_max == 34


@pytest.mark.parametrize("m_v,m_z", [(2, 0), (2, 1), (4, 3), (6, 2), (16, 7)])
def test_bessel_matrix_lambda_zero_row(m_v, m_z):
    # a call whose one row is lambda = 0 sweeps x = 0 only: each order is
    # its value Lambda_mu(0) = 1, and the row equals the lambda = 0 row of a call
    # whose other rows take the upward start
    params = new_space(m_v, m_z)
    s = np.array([0.0, 1e-3, 0.3, 1.0, 1.9])
    got = _bessel(params, [0.0], s)[0]
    sp = s[1:]
    weights = _a_values(params, sp) * sp ** (2 * np.arange(17))[:, None]
    pref = np.sqrt(sp ** (params.n - 1) / density(params, sp))
    ref = pref * weights.sum(axis=0)
    amp = pref * np.abs(weights).sum(axis=0)
    assert got[0] == 1.0
    assert np.all(np.abs(got[1:] - ref) <= 2e-13 * amp)
    mixed = _bessel(params, [0.0, 5.0, 1e4], s)
    assert np.all(np.abs(mixed[0] - got) <= 2e-13 * np.concatenate([[1.0], amp]))


@pytest.mark.parametrize("m_v,m_z", [(2, 0), (2, 1), (4, 3), (6, 2), (16, 7)])
def test_miller_start_converged_at_bracket_edges(m_v, m_z, monkeypatch):
    # the Miller start's extra orders are chosen from the largest x of the
    # call; at each bracket edge of that rule, and at the last Miller cell
    # x = mu0 + 17, eight more orders move phi by under 1e-14 of the
    # series' amplitude
    params = new_space(m_v, m_z)
    mu0 = (params.n - 2) / 2
    s = np.linspace(0.05, 1.9, 40)
    base = spherical._miller_extra
    for edge in [e for e, _ in spherical._MILLER_EXTRA] + [mu0 + 17.0]:
        lam_top = edge / s[-1]
        while lam_top * s[-1] > edge:
            lam_top = np.nextafter(lam_top, 0.0)
        lams = np.linspace(0.0, lam_top, 60)
        got = phi_matrix(params, lams, s)
        monkeypatch.setattr(spherical, "_miller_extra", lambda top, x_max: base(top, x_max) + 8)
        more = phi_matrix(params, lams, s)
        monkeypatch.setattr(spherical, "_miller_extra", base)
        assert np.all(np.abs(got - more) <= 1e-14 * _bessel_amplitude(params, lams, s)), edge


def test_miller_start_clears_the_debye_bound():
    # beyond the last _MILLER_EXTRA edge the rule's floor is 16 orders, and
    # Neumann's reach puts the start past Debye's x_max + 8 x_max^(1/3), for every
    # mu0 = 1/2, 1, .., 90 and x_max up to its last Miller cell mu0 + 17
    # (107 at most: the reach's terms pass the float range near 107.8); the
    # start clears it below that edge too, and at every top order mu0 + L,
    # L = 0..16, that the series may keep
    for mu0 in np.arange(1, 181) / 2:
        x_top = min(mu0 + 17.0, 107.0)
        for top in mu0 + np.arange(17):
            for x_max in np.concatenate([np.geomspace(1e-3, 10.0, 9), np.linspace(10.0, x_top, 41)[1:]]):
                start = top + spherical._miller_extra(top, x_max)
                assert start >= x_max + 8.0 * x_max ** (1.0 / 3.0), (mu0, top, x_max)


@pytest.mark.parametrize("m_v,m_z", [(2, 0), (2, 1), (4, 3), (6, 2), (16, 7)])
def test_truncated_series_matches_the_full_sum(m_v, m_z):
    # phi_matrix sums only the orders and the Horner terms its largest s
    # needs; against the whole table, 17 orders to degree 40 in s^2, every
    # cell is within 1e-15 of the series' amplitude, at lambda up to 2e4 and
    # on both sides of the upward switch x = mu0 + 17
    params = new_space(m_v, m_z)
    mu0 = (params.n - 2) / 2
    l = np.arange(17)
    for s_max in (0.01, 0.05, 0.1, 0.5, 1.0, 1.9):
        s = np.linspace(0.0, s_max, 9)[1:]
        lams = np.concatenate([[0.0, 1.0], (mu0 + 17.0) / s_max * np.array([0.5, 0.999, 1.001, 3.0]),
                               [2e4]])
        x = np.outer(lams, s)
        assert np.any(x <= mu0 + 17.0) and np.any(x > mu0 + 17.0)
        full = _a_values(params, s) * s ** (2 * l)[:, None] * spherical._bessel_pref(params, s)
        ref = _kernel_sum(mu0, x, full)
        got = phi_matrix(params, lams, s)
        assert np.all(np.abs(got - ref) <= 1e-15 * _bessel_amplitude(params, lams, s)), s_max


def _kept_orders(params, s_max):
    return _BesselColumns(params, np.linspace(0.0, s_max, 5)).weights.shape[0]


def test_series_keeps_the_orders_its_largest_s_needs(monkeypatch):
    # the case-1 and case-2 columns (s <= 0.1) keep 4 to 6 of the 17 orders;
    # columns up to 1.9 keep all 17 on (2, 1) and (16, 7); H^3's series is
    # its order 0 alone, every other row being 0
    params = new_space(2, 1)
    kept = [_kept_orders(params, s_max) for s_max in (0.01, 0.05, 0.1, 0.5, 1.0, 1.9)]
    assert kept == sorted(kept) and kept[2] <= 6 and kept[-1] == 17
    assert _kept_orders(new_space(16, 7), 0.1) <= 6 and _kept_orders(new_space(16, 7), 1.9) == 17
    assert _kept_orders(new_space(2, 0), 1.9) == 1
    # a table cut after order m keeps m + 1 orders, as
    # test_bessel_matrix_matches_per_order_sum runs it (s up to 0.75)
    for m_v, m_z in [(2, 1), (4, 3), (6, 2)]:
        space = new_space(m_v, m_z)
        for m in (0, 1, 2):
            _scale_orders(monkeypatch, space, np.arange(17) <= m)
            assert _kept_orders(space, 0.75) == m + 1
            monkeypatch.undo()


@pytest.mark.parametrize("m_v,m_z,s_max", [(2, 0, 5.0), (2, 1, 5.0), (4, 3, 5.0), (6, 2, 5.0),
                                           (16, 7, 1.95)])
def test_phi_matrix_blocks_match_rows(m_v, m_z, s_max):
    # 600 lambda, 0 included, in shuffled order, so that the blocks of
    # phi_matrix mix Miller and upward cells and take different Miller
    # starts; every row matches its own one-row call to 1e-13 of the
    # amplitude: the Bessel series' for s < 2 and phi_0(s), which bounds
    # every |phi_lambda(s)|, beyond.  (16, 7) is held to s < 2: its
    # exponential series near s = 2 rounds at ~1e-9 of phi_0 at small
    # lambda, whatever the blocking.
    params = new_space(m_v, m_z)
    rng = np.random.default_rng(600)
    lams = rng.permutation(np.concatenate([[0.0], np.geomspace(0.01, 400.0, 599)]))
    s = np.concatenate([np.linspace(0.0, 1.95, 100), np.linspace(2.0, s_max, 20)])
    s = s[s <= s_max]
    got = phi_matrix(params, lams, s)
    assert got.size > 2 * spherical._BLOCK_CELLS
    rows = np.vstack([phi_matrix(params, [lam], s) for lam in lams])
    near = (s > 0) & (s < 2.0)
    amp = np.ones_like(got)
    amp[:, near] = _bessel_amplitude(params, lams, s[near])
    amp[:, s >= 2.0] = phi_matrix(params, [0.0], s[s >= 2.0])[0]
    assert np.all(np.abs(got - rows) <= 1e-13 * amp)


@pytest.mark.parametrize("m_v,m_z", [(2, 0), (2, 1), (4, 3), (6, 2), (16, 7)])
def test_phi_matrix_at_huge_lambda(m_v, m_z):
    # lambda s up to 1.7e308 on both routes: lambda^2 and x^2 overflow
    # there, and a kernel sweep that formed x^2 made 0 * inf = NaN, which
    # the bound check reported as |phi| = nan.  Every call returns finite
    # values within the bound, or raises DomainError exactly where
    # lambda s itself overflows
    params = new_space(m_v, m_z)
    for lam in (1e154, 1e200, 1e300, 1.7e308):
        for s in ([0.3], [1.9], [0.0, 0.3, 1.9], [2.5], [2.5, 7.0], [0.3, 2.5]):
            lams = np.array([lam, -lam, 0.0, 1.0])
            if math.isinf(lam * max(s)):
                with pytest.raises(DomainError, match="lambda"):
                    phi_matrix(params, lams, s)
                continue
            got = phi_matrix(params, lams, s)
            assert np.all(np.isfinite(got)) and np.all(np.abs(got) <= 1.0 + 1e-9)
            assert np.array_equal(got[0], got[1])


@pytest.mark.parametrize("m", [1, 16])
@pytest.mark.parametrize("m_v,m_z", [(2, 0), (2, 1), (4, 3), (16, 7)])
def test_bessel_matrix_per_order_sum_across_upward_switch(m_v, m_z, m, monkeypatch):
    # one call whose cells lie on both sides of x = mu0 + 17, against
    # Lambda_mu = script_j(mu, .) / script_j(mu, 0) per order; a table cut
    # after order m = 1 checks the
    # two lowest orders alone on both sides
    params = new_space(m_v, m_z)
    mu0 = (params.n - 2) / 2
    s = np.array([0.1, 0.5, 0.75, 1.3, 1.9])
    lams = (mu0 + 17.0) / 0.5 * np.array([0.9, 0.999, 1.001, 1.1, 4.0, 3e3])
    a = _a_values(params, s)
    _scale_orders(monkeypatch, params, np.arange(17) <= m)
    got = _bessel(params, lams, s)
    pref = np.sqrt(s ** (params.n - 1) / density(params, s))
    for i, lam in enumerate(lams):
        ref = pref * sum(a[l] * s ** (2 * l) * _lambda_oracle(mu0 + l, lam * s)
                         for l in range(m + 1))
        assert np.max(np.abs(got[i] - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("m_v,m_z", [(2, 0), (2, 1), (4, 3), (16, 7)])
def test_kernel_sum_mixed_block_equals_its_parts(m_v, m_z):
    # a block whose cells straddle x = mu0 + 17, x = 0 and x ~ 1e300
    # included, is bit for bit its Miller cells and its upward cells each
    # summed alone, with weights per column and with one weight per order
    params = new_space(m_v, m_z)
    mu0 = (params.n - 2) / 2
    s = np.array([0.0, 0.1, 0.5, 1.0, 1.9])
    lams = np.array([0.0, 3.0, 2.0 * mu0, (mu0 + 17.0) / 0.5, np.nextafter((mu0 + 17.0) / 0.5, 1e3),
                     50.0, 1e3, 1e300])
    x = np.outer(lams, s)
    miller = x <= mu0 + 17.0
    assert np.any(miller) and not np.all(miller) and np.max(x) >= 1e300
    cols = np.broadcast_to(np.arange(s.size), x.shape)
    per_column = _BesselColumns(params, s).weights
    per_order = 1.0 / np.arange(1.0, 18.0)[:, None]
    for weights, part in ((per_column, lambda m: per_column[:, cols[m]]),
                          (per_order, lambda m: per_order)):
        got = _kernel_sum(mu0, x, weights)
        for cells in (miller, ~miller):
            assert np.array_equal(got[cells], _kernel_sum(mu0, x[cells], part(cells)))


def test_bessel_series_small_s_normalization(all_spaces):
    for p in all_spaces:
        val = phi_matrix(p, [1.0], np.array([1e-3]))[0, 0]
        ref = phi_hyp(p, 1.0, 1e-3)
        assert val == pytest.approx(ref, rel=1e-10)


# ---------------------------------------------------------------------------
# dispatcher
# ---------------------------------------------------------------------------

def test_phi_at_identity(space21):
    assert phi(space21, 17.0, 0.0) == 1.0


def test_phi_methods(space21):
    # below s = 2 phi is the Bessel series' value, from s = 2 on the
    # exponential series', bit for bit
    for lam, s, method in [(2.0, 0.3, "bessel"), (2.0, 3.0, "hc"), (2.0, 1.2, "bessel"),
                           (0.5, 4.0, "hc"), (2.0, 2.0, "hc")]:
        assert phi(space21, lam, s) == _route(space21, lam, s, method)


def test_phi_boundary_continuity(space21):
    # s = 2: Bessel against the exponential series at every lambda
    for lam in (0.5, 1.0, 5.0, 25.0):
        left, right = phi(space21, lam, 2.0 - 1e-9), phi(space21, lam, 2.0 + 1e-9)
        assert left == _route(space21, lam, 2.0 - 1e-9, "bessel")
        assert right == _route(space21, lam, 2.0 + 1e-9, "hc")
        assert abs(left - right) < 1e-6


def test_phi_never_reaches_rk4(space43):
    # the two series alone cover a grid that crosses s = 2, at lambda = 0,
    # lambda -> 0 and negative lambda, held to the closed form
    lams = np.array([0.0, 1e-8, -0.5, 0.5, -3.0])
    s = np.array([0.0, 0.3, 1.9, 2.0, 2.5, 7.0])
    ref = np.array([[phi_hyp(space43, lam, x) for x in s] for lam in lams])
    got = phi_matrix(space43, lams, s)
    one = np.array([[phi(space43, lam, x) for x in s] for lam in lams])
    assert np.max(np.abs(got - ref)) <= 1e-8
    assert np.max(np.abs(one - ref)) <= 1e-8


def test_phi_matches_hyp_mid_regime(space43):
    got = phi(space43, 7.0, 3.0)
    ref = phi_hyp(space43, 7.0, 3.0)
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
    for s in (math.inf, math.nan):            # or an s
        with pytest.raises(DomainError):
            phi_matrix(space21, np.array([0.0, 1.0]), np.array([1.0, s]))


def test_three_way_agreement_overlap(space21):
    # Bessel / exponential-series / closed form pairwise within 1e-5 on the strip
    s = np.array([0.8, 1.1, 1.4, 1.7])
    for lam in (1.5, 3.0, 8.0):
        hyp = np.array([phi_hyp(space21, lam, x) for x in s])
        bes = phi_matrix(space21, [lam], s)[0]
        hc = _series(space21, lam, s)
        scale = np.maximum(np.abs(hyp), 1e-2)
        assert np.max(np.abs(bes - hyp) / scale) < 1e-5
        assert np.max(np.abs(hc - hyp) / scale) < 1e-5
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


@pytest.mark.parametrize("s,contiguous", [
    (np.linspace(0.0, 4.0, 9), True),                     # ascending, 2 on the grid
    (np.linspace(4.0, 0.0, 9), True),                     # descending
    (np.array([2.5, 0.5, 2.0, 1.999, 0.0, 3.0, 1.0]), False),    # shuffled
    (np.array([0.0, 0.3, 1.2, 1.999]), True),             # every s below 2
    (np.array([2.0, 2.5, 4.0]), True),                    # every s at or above 2
    (np.array([2.0]), True),
], ids=["ascending", "descending", "shuffled", "below", "above", "at-2"])
def test_route_plan_counts_the_cells_each_route_writes(space21, monkeypatch, s, contiguous):
    # over several lambda blocks, each route returns n_lambda times its
    # plan's columns; the plan sends s < 2 to the Bessel series and the
    # rest to the exponential series, as slices where s is sorted
    written = {}
    bessel_matrix, hc_block = spherical._bessel_matrix, _HCSeries.block

    def count(name, got):
        written[name] = written.get(name, 0) + got.size
        return got

    monkeypatch.setattr(spherical, "_bessel_matrix",
                        lambda cols, lams: count("bessel", bessel_matrix(cols, lams)))
    monkeypatch.setattr(_HCSeries, "block", lambda self, rows: count("hc", hc_block(self, rows)))
    monkeypatch.setattr(spherical, "_BLOCK_CELLS", 4 * s.size)
    lams = np.linspace(0.0, 30.0, 11)
    plan = spherical._route_plan(s)
    phi_matrix(space21, lams, s)
    assert written == {name: lams.size * s[cells].size for name, cells in plan}
    routes = {name: np.arange(s.size)[cells].tolist() for name, cells in plan}
    assert routes == {name: cols.tolist() for name, cols in (("bessel", np.flatnonzero(s < 2.0)),
                                                             ("hc", np.flatnonzero(s >= 2.0)))
                      if cols.size}
    assert all(isinstance(cells, slice) == contiguous for _, cells in plan)


def test_phi_matrix_consistency(space21):
    lam = np.array([0.4, 2.0, 9.0])
    s = np.array([0.2, 1.1, 2.6])
    mat = phi_matrix(space21, lam, s)
    for i, l in enumerate(lam):
        for j, x in enumerate(s):
            assert mat[i, j] == pytest.approx(phi(space21, float(l), float(x)), rel=5e-7)


def test_phi_matrix_bound_guard(space21, monkeypatch):
    # doubled coefficients put the Bessel zone near 2
    _scale_orders(monkeypatch, space21, np.full(17, 2.0))
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
