"""Spherical functions phi_lambda(s) by two routes, checked by an ODE oracle.

phi_lambda is the radial eigenfunction of the Laplace-Beltrami operator,

    phi'' + (A'/A) phi' + (lambda^2 + Q^2/4) phi = 0,    phi(0) = 1,

evaluated by

* a Bessel-kernel series for s < 2, whose coefficients a_l(s) are
  polynomials in s^2 that follow exactly, once per space, from the
  Taylor series of the radial equation's potential by a triangular
  recursion (_BesselCoeffs) and summed to the fixed order M = 16; its
  kernels script_j of orders mu0..mu0+16 come from one downward sweep
  of the order recurrence (Abramowitz & Stegun 9.1.27, _kernel_sum),
  started where lambda s <= mu0+17 by Miller's algorithm a few orders
  higher and scaled once per cell to closed forms at the two lowest
  orders, and where lambda s exceeds every order at the top two orders
  of the upward recurrence from a cheap start pair at orders below 1;
  no Bessel function of high order is called, and the cost per cell
  does not depend on lambda;
* an exponential series for s >= 2 at every lambda, lambda = 0
  included: the Harish-Chandra expansion written through
  h(lambda) = i lambda c(lambda), which has no pole (_hc_matrix), and
  the Gamma_mu recursion whose omega_k coefficients come from expanding
  the Liouville potential of the radial equation in powers of e^(-s).

phi_matrix() is the one way into both series, and phi() is phi_matrix()
on one cell, so both take the same route by s alone and both enforce
the global bound |phi| <= 1.  phi_matrix builds each series' parts
that do not change along a row once per call, and runs both in blocks
of lambda rows that keep their temporaries small.  A fixed-step RK4
integration of the radial equation from a 30-term Taylor start
(phi_ode_oracle, _ode_refined) is the independent check on both series
and is on no production path; each step is applied as a precomputed
transfer matrix, quadratic in lambda^2 + Q^2/4, to a whole block of
frequencies at once.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from numpy.polynomial import polynomial
from scipy.special import gammaln, j0, j1

from .errors import DomainError, PhiBoundError, ResolutionError, StepSizeError
from .profiles import RadialProfile
from .space import (SpaceParams, density, log_density_derivative, log_density_derivative_prime,
                    log_density_taylor)
from .special import _bessel_start_pair, _h_modulus_inv2, _h_phase, _h_phase_slope0

__all__ = [
    "phi",
    "phi_ode_oracle",
    "omega_coeffs",
    "phi_matrix",
]

# The Bessel series converges absolutely for s < 2 and takes every
# lambda there; the exponential series takes every lambda beyond it.
S_HC_MIN = 2.0
# No route boundary sits at these any more; only bench/tracing.py reads them.
LAMBDA_HC_MIN = 1.0
S_BESSEL_MAX = 0.75

_TAYLOR_S0 = 1e-3
_TAYLOR_TERMS = 30
_BESSEL_M = 16          # the Bessel series sums orders 0..M
_HC_MU_START = 40
_HC_MU_CAP = 320
_PHI_BOUND_TOL = 1e-9
_BLOCK_CELLS = 2**14    # cells per lambda block in phi_matrix: 128 kB per array
_ODE_TOL = 1e-8  # relative phase error of the RK4 step (_auto_step)


# ---------------------------------------------------------------------------
# ODE oracle
# ---------------------------------------------------------------------------

def _taylor_coeffs(params: SpaceParams, nu: np.ndarray) -> np.ndarray:
    """c_0..c_29 of the even Taylor series phi = sum_j c_j s^(2j).

    Shape (30,) + nu.shape.  Putting the series and A'/A = (n-1)/s +
    sum_k g_k s^(2k-1) (log_density_taylor) into the radial equation
    gives c_0 = 1 and
    c_j = -(nu c_(j-1) + sum_(1<=k<j) 2(j-k) g_k c_(j-k)) / (2j(2j+n-2)).
    """
    g = log_density_taylor(params)
    nu = np.asarray(nu, dtype=float)
    c = np.empty((_TAYLOR_TERMS,) + nu.shape)
    c[0] = 1.0
    for j in range(1, _TAYLOR_TERMS):
        drift = np.tensordot(2.0 * np.arange(j - 1, 0, -1) * g[:j - 1], c[j - 1:0:-1], axes=1)
        c[j] = -(nu * c[j - 1] + drift) / (2.0 * j * (2.0 * j + params.n - 2.0))
    return c


def _taylor_eval(c: np.ndarray, s):
    """Values and slopes of the series c (_taylor_coeffs) at s, each
    shape c.shape[1:] + s.shape."""
    j = np.arange(c.shape[0])
    s2j = np.power.outer(np.asarray(s, dtype=float), 2 * j)    # s.shape + (n_terms,)
    val = np.tensordot(c, s2j, axes=(0, -1))
    slope = np.tensordot(c[1:], 2 * j[1:] * s2j[..., :-1], axes=(0, -1)) * s
    return val, slope


def _transfer_coeffs(hh, p1, p2, p4) -> np.ndarray:
    """RK4 transfer matrices of the radial equation, one per step.

    A classical RK4 step of y' = y1, y1' = -p(s) y1 - nu y maps (y, y1)
    linearly, and its 2x2 matrix is exactly quadratic in nu:
    T(nu) = C0 + nu C1 + nu^2 C2.  hh, p1, p2, p4 hold each step's size
    and the drift A'/A at its start, midpoint and end.  The stages are
    run on linear forms in (y, y1) whose coefficients are polynomials in
    nu, shape (3 powers, 2 components, n_steps).  Returns shape
    (n_steps, 6, 2): rows 2j and 2j+1 are the rows of C_j.
    """
    one_y = np.zeros((3, 2, hh.size))
    one_y[0, 0] = 1.0
    one_p = np.zeros_like(one_y)
    one_p[0, 1] = 1.0

    def nu_times(form):  # the stages keep every y-form below degree 2
        out = np.zeros_like(form)
        out[1:] = form[:-1]
        return out

    half = 0.5 * hh
    k1y, k1p = one_p, -p1 * one_p - nu_times(one_y)
    y2, yp2 = one_y + half * k1y, one_p + half * k1p
    k2y, k2p = yp2, -p2 * yp2 - nu_times(y2)
    y3, yp3 = one_y + half * k2y, one_p + half * k2p
    k3y, k3p = yp3, -p2 * yp3 - nu_times(y3)
    y4, yp4 = one_y + hh * k3y, one_p + hh * k3p
    k4y, k4p = yp4, -p4 * yp4 - nu_times(y4)
    sixth = hh / 6.0
    row_y = one_y + sixth * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
    row_p = one_p + sixth * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
    return np.stack([row_y, row_p], axis=1).transpose(3, 0, 1, 2).reshape(hh.size, 6, 2)


_STEP_CHUNK = 4096  # steps whose transfer matrices are held at once


def _ode_values(params: SpaceParams, nu: np.ndarray, s_targets: np.ndarray, h: float):
    """phi at each target s for every nu; shape (n_nu, n_s).

    RK4 from the Taylor start at s = 1e-3, visiting the targets in
    ascending order.  Each gap between consecutive targets is cut into equal steps of at most h, and the step starts
    accumulate as s += step.  The drift A'/A is evaluated in one
    vectorized call at every step's start, midpoint and end; each step
    is then the transfer matrix C0 + nu C1 + nu^2 C2 (_transfer_coeffs),
    applied to all nu by one (6,2)@(2,n_nu) product and a Horner update.
    Targets below 1e-3 take the Taylor values.
    """
    nu = np.atleast_1d(np.asarray(nu, dtype=float))
    order = np.argsort(s_targets, kind="stable")
    s_targets = np.asarray(s_targets, dtype=float)[order]
    # step layout: per gap, its accumulated nodes (the starts plus the end)
    nodes, steps, sizes, gap_of = [], [], [], []
    s_cur = _TAYLOR_S0
    for s_t in s_targets:
        if s_t > s_cur:
            m = max(1, int(math.ceil((s_t - s_cur) / h - 1e-12)))
            step = (s_t - s_cur) / m
            nodes.append(np.cumsum(np.concatenate([[s_cur], np.full(m, step)])))
            steps.append(m)
            sizes.append(step)
            s_cur = s_t
        gap_of.append(len(steps))
    # y after each gap, row 0 at the Taylor start
    y_at = np.empty((len(steps) + 1, nu.size))
    taylor = _taylor_coeffs(params, nu)
    v = np.array(_taylor_eval(taylor, _TAYLOR_S0))
    y_at[0] = v[0]
    if steps:
        nodes = np.concatenate(nodes)
        is_start = np.ones(nodes.size, dtype=bool)
        is_start[np.cumsum(np.array(steps) + 1) - 1] = False
        i_start = np.flatnonzero(is_start)
        hh = np.repeat(sizes, steps)
        drift = log_density_derivative(
            params, np.concatenate([nodes, nodes[i_start] + 0.5 * hh]))
        p1, p2, p4 = drift[i_start], drift[nodes.size:], drift[i_start + 1]
        gap_ends = np.cumsum(steps).tolist() + [-1]
        w = np.empty((6, nu.size))
        w0, w1, w2 = w[0:2], w[2:4], w[4:6]
        g = 0
        for a in range(0, hh.size, _STEP_CHUNK):
            b = min(a + _STEP_CHUNK, hh.size)
            for k, c in enumerate(_transfer_coeffs(hh[a:b], p1[a:b], p2[a:b], p4[a:b]), a + 1):
                np.dot(c, v, out=w)             # rows: C0 v, C1 v, C2 v
                w2 *= nu                        # Horner in nu, in place
                w2 += w1
                w2 *= nu
                np.add(w0, w2, out=v)
                if k == gap_ends[g]:
                    g += 1
                    y_at[g] = v[0]
    vals = y_at[gap_of].T
    small = s_targets < _TAYLOR_S0
    if np.any(small):
        vals[:, small] = _taylor_eval(taylor, s_targets[small])[0]
    out = np.empty((nu.size, s_targets.size))
    out[:, order] = vals
    return out


def _auto_step(omega_max: float, s_span: float, tol: float = 1e-9) -> float:
    """Step targeting a given relative phase error for the RK4 scheme.

    The accumulated phase error scales like s_span * omega^5 * h^4, so the
    step shrinks like omega^(-5/4) at large frequency.
    """
    omega = max(omega_max, 1.0)
    h = (tol * 120.0 / (max(s_span, 0.1) * omega**5)) ** 0.25
    return float(min(1e-3, h, 0.04 / omega))


def _ode_refined(params: SpaceParams, lam: float, s_targets):
    """Richardson-extrapolated oracle values (error ~ h^6) at the targets."""
    s_targets = np.atleast_1d(np.asarray(s_targets, dtype=float))
    nu = np.array([lam * lam + params.q2_over_4])
    h = _auto_step(math.sqrt(nu[0]), float(s_targets[-1]), tol=_ODE_TOL)
    v1 = _ode_values(params, nu, s_targets, h)[0]
    v2 = _ode_values(params, nu, s_targets, h / 2.0)[0]
    return (16.0 * v2 - v1) / 15.0


def phi_ode_oracle(params: SpaceParams, lam: float, s_max: float, step: float) -> RadialProfile:
    """Integrate the radial eigen-equation and sample phi on [0, s_max].

    The integration starts from the 30-term Taylor series (_taylor_coeffs)
    at s = 1e-3 (the drift coefficient A'/A is singular at 0) and proceeds
    with classical RK4 at fixed step, each step applied as its transfer
    matrix (see _ode_values).  The step must resolve the local
    frequency: step * sqrt(lambda^2 + Q^2/4) <= 0.05.
    """
    nu = lam * lam + params.q2_over_4
    if step <= 0:
        raise StepSizeError("step must be positive")
    if step * math.sqrt(nu) > 0.05:
        raise StepSizeError(
            f"step {step} too large: step*sqrt(lambda^2+Q^2/4) = "
            f"{step * math.sqrt(nu):.3g} > 0.05"
        )
    if s_max <= 0:
        raise DomainError("s_max must be positive")
    n_pts = int(round(s_max / step)) + 1
    grid = np.linspace(0.0, n_pts * step - step, n_pts)
    vals = np.empty(n_pts)
    vals[0] = 1.0
    inner = _ode_values(params, np.array([nu]), grid[1:], step)
    vals[1:] = inner[0]
    return RadialProfile(grid, vals)


# ---------------------------------------------------------------------------
# exponential series away from the identity
# ---------------------------------------------------------------------------

def omega_coeffs(params: SpaceParams, k_max: int) -> np.ndarray:
    """Coefficients omega_k of the recursion, k = 1..k_max.

    Substituting phi = A^(-1/2) u turns the radial equation into
    u'' + (lambda^2 - V(s)) u = 0 with the Liouville potential
    V = (A'/A)^2/4 + (A'/A)'/2 - Q^2/4.  Writing A'/A through
    coth(s/2), tanh(s/2) and expanding in q = e^(-s) gives

        V(s) = sum_k [ (Q - k) c_k + sum_{j<k} c_j c_{k-j} ] q^k,

    with c_k = (m_v+m_z)/2 + (-1)^k m_z/2, and omega_k is that
    coefficient.  (For real hyperbolic space, m_z = 0, every omega_k
    vanishes and the series terminates at Gamma_0.)
    """
    alpha = 0.5 * (params.m_v + params.m_z)
    beta = 0.5 * params.m_z
    Q = float(params.Q)
    k = np.arange(1, k_max + 1)
    c = alpha + np.where(k % 2 == 0, beta, -beta)
    omega = (Q - k) * c
    omega[1:] += np.convolve(c, c)[:k_max - 1]     # sum_(j<k) c_j c_(k-j), exact in integers
    return omega


def liouville_potential(params: SpaceParams, s):
    """V(s) = (A'/A)^2/4 + (A'/A)'/2 - Q^2/4, the independent check on omega_k."""
    p = log_density_derivative(params, s)
    pp = log_density_derivative_prime(params, s)
    return 0.25 * p * p + 0.5 * pp - params.q2_over_4


def _gamma_matrix(params: SpaceParams, lams: np.ndarray, mu_max: int) -> np.ndarray:
    """Gamma_mu(lam) for every lam, shape (n_lam, mu_max+1); recursion
    vectorized over the spectral grid."""
    omega = omega_coeffs(params, mu_max)
    gam = np.zeros((lams.size, mu_max + 1), dtype=complex)
    gam[:, 0] = 1.0
    for mu in range(1, mu_max + 1):
        div = mu * mu - 2j * mu * lams
        rhs = gam[:, :mu] @ omega[mu - 1 :: -1][:mu]
        gam[:, mu] = rhs / div
    return gam


def _gamma_slope0(params: SpaceParams, gam0: np.ndarray) -> np.ndarray:
    """Im Gamma'_mu(0) from the real Gamma_mu(0).  Differentiating the
    recursion in lam gives (mu^2 - 2 i mu lam) Gamma'_mu =
    sum_(j<mu) omega_(mu-j) Gamma'_j + 2 i mu Gamma_mu, Gamma'_0 = 0, so
    every Gamma'_mu(0) is imaginary."""
    omega = omega_coeffs(params, gam0.size - 1)
    slope = np.zeros(gam0.size)
    for mu in range(1, gam0.size):
        slope[mu] = (slope[:mu] @ omega[mu - 1::-1] + 2.0 * mu * gam0[mu]) / (mu * mu)
    return slope


class _HCSeries:
    """The exponential series on the grid product for lam >= 0, real, shape
    (n_lam, n_s), block by block of rows.

    The Harish-Chandra expansion phi = pref (c(lam) Phi_lam +
    c(-lam) Phi_-lam), Phi_lam = e^(i lam s) sum_mu Gamma_mu(lam) e^(-mu s),
    pref = 2^(-m_z/2) A^(-1/2), has Gamma_mu(-lam) = conj Gamma_mu(lam)
    (omega is real), so one product Gamma @ e^(-mu s) gives every sum.
    At the pole of c, Re c = |c| cos(arg c) with arg c -> -pi/2 would
    carry an error eps/lam; the series is written instead through

        h(lam) = i lam c(lam) = 2^(Q-2i lam) Gamma(1+2i lam) Gamma(n/2)
                 / (2 Gamma(Q/2+i lam) Gamma((m_v+2)/4+i lam)),

    analytic, and real and positive at 0 (special._h_modulus_inv2, _h_phase):

        phi = 2 pref Im(h Phi_lam) / lam
            = 2 pref (|h|/lam) Im(e^(i(arg h + lam s)) sum_mu Gamma_mu e^(-mu s)).

    phi is even in lam, so where lam^2 underflows its limit at 0 is exact:

        phi_0 = 2 pref Im(h(0) [(h'/h)(0) Phi_0 + d/dlam Phi_lam|_0])
              = 2 pref h(0) [(a + s) sum_mu Gamma_mu(0) e^(-mu s)
                             + sum_mu Im Gamma'_mu(0) e^(-mu s)],

    a = Im (h'/h)(0) (special._h_phase_slope0).  Gamma_mu(0) is real and
    Gamma'_mu(0) (_gamma_slope0) imaginary, so a lam = 0 row of the product
    carries their sum and returns both sums as its real and imaginary parts.

    The Gamma rows (_gamma_matrix to mu_max), h's phase and |h|/lam per
    lam, and e^(-mu s) and the prefactor per s are built once; block()
    only slices them.
    """

    def __init__(self, params: SpaceParams, lams: np.ndarray, s: np.ndarray, mu_max: int):
        gam = _gamma_matrix(params, lams, mu_max)
        self.lams, self.s = lams, s
        # lam^2 and |h|^-2 pass the float range at large lam; as inf they
        # give the limits: lam is not 0, and |h| is 0 to double precision
        with np.errstate(over="ignore"):
            self.zero = lams * lams == 0
            h_mod = 1.0 / np.sqrt(_h_modulus_inv2(params, lams))
            lp = lams[~self.zero]
            self.phase = np.zeros_like(lams)
            self.phase[~self.zero] = _h_phase(params, lp)
        self.scale = h_mod
        self.scale[~self.zero] /= lp
        if np.any(self.zero):
            gam[self.zero] += 1j * _gamma_slope0(params, gam[np.argmax(self.zero)].real)
            self.slope0 = _h_phase_slope0(params)
        self.gam_re, self.gam_im = np.ascontiguousarray(gam.real), np.ascontiguousarray(gam.imag)
        self.decay = np.exp(-np.outer(np.arange(mu_max + 1), s))        # (mu, n_s)
        self.pref = 2.0 ** (1.0 - 0.5 * params.m_z) / np.sqrt(density(params, s))

    def block(self, rows: slice) -> np.ndarray:
        """Rows `rows` of the series, shape (n_rows, n_s)."""
        sums_re = self.gam_re[rows] @ self.decay
        sums_im = self.gam_im[rows] @ self.decay
        theta = np.outer(self.lams[rows], self.s)
        theta += self.phase[rows, None]
        out = np.sin(theta) * sums_re
        out += np.cos(theta) * sums_im            # Im(e^(i theta) sums)
        zero = self.zero[rows]
        if np.any(zero):
            out[zero] = (self.slope0 + self.s) * sums_re[zero] + sums_im[zero]
        out *= self.scale[rows, None]
        out *= self.pref
        return out


def _hc_mu_for(params: SpaceParams, lams: np.ndarray, s_min: float) -> int:
    """Truncation order with every lam's tail below 1e-12; raises
    ResolutionError when even mu_max = _HC_MU_CAP leaves it above.  The
    tail is largest at the smallest |lam|, which may be 0."""
    mu_max = _HC_MU_START
    lam_probe = np.array([np.min(np.abs(lams))])
    while True:
        gam_tail = abs(_gamma_matrix(params, lam_probe, mu_max)[0, mu_max])
        tail = gam_tail * math.exp(-mu_max * s_min)
        if tail < 1e-12:
            return mu_max
        if mu_max >= _HC_MU_CAP:
            raise ResolutionError(
                f"exponential series tail {tail:.2e} above 1e-12 at the order cap "
                f"{_HC_MU_CAP} (lambda={lam_probe[0]}, s={s_min})")
        mu_max *= 2


# ---------------------------------------------------------------------------
# Bessel series near the identity
# ---------------------------------------------------------------------------

@functools.cache
def c0_constant(params: SpaceParams) -> float:
    """Normalizing constant of the Bessel expansion, once per space.

    pi^(-1/2) Gamma(n/2) / Gamma((n-1)/2): fixed so that the leading
    term alone satisfies phi_lambda(0) = 1 exactly (the l = 0 kernel has
    script_j_{(n-2)/2}(0) = sqrt(pi) Gamma((n-1)/2)/Gamma(n/2)).
    """
    n = params.n
    return math.exp(math.lgamma(n / 2.0) - math.lgamma((n - 1) / 2.0)
                    - 0.5 * math.log(math.pi))


def _bessel_pref(params: SpaceParams, s):
    """c0 (s^(n-1)/A)^(1/2), the Bessel series' prefactor, for s > 0.

    Since A = (2 sinh(s/2))^(n-1) cosh(s/2)^m_z, it is taken as
    c0 (s e^(s/2) / expm1(s))^((n-1)/2) cosh(s/2)^(-m_z/2), which neither
    underflows nor divides 0 by 0 at small s.
    """
    ratio = s * np.exp(0.5 * s) / np.expm1(s)
    return (c0_constant(params) * ratio ** (0.5 * (params.n - 1))
            * np.cosh(0.5 * s) ** (-0.5 * params.m_z))


class _BesselCoeffs:
    """Exact coefficients of the Bessel series, one set per space.

    With phi = c0 (s^(n-1)/A)^(1/2) w, the radial equation becomes
    w'' + ((n-1)/s) w' + lambda^2 w = D w, where D = V - (n-1)(n-3)/(4s^2)
    is even and analytic at 0 and V is the Liouville potential.  The
    series is w = sum_l f_l(s) S_(mu_l)(lambda s), S = script_j,
    mu_l = (n-2)/2 + l and f_l = s^(2l) a_l.  Since
    s dS_mu/ds = (2mu - 1) S_(mu-1) - 2mu S_mu, free of lambda, matching
    the coefficient of each S_(mu_l) makes f_l = sum_j e_j^(l) s^(2j)
    triangular (the rank-one case of Stanton and Tomas, Acta Math. 140,
    1978):

        e^(0) = delta_j0,
        e_j^(l+1) = R_l[j-1] / ((n-1+2l)(4j-2l-2)),   j >= l+1,
        R_l[m] = sum_(k<=m) d_k e_(m-k)^(l)
                 - (2(m+1)(2m+n) - 2 mu_l (4m+4-2l)) e_(m+1)^(l),

    where D = sum_k d_k s^(2k) comes from the g_k of A'/A
    (log_density_taylor):
    d_m = (n+2m)/2 g_(m+1) + 1/4 sum_(i+j=m+1) g_i g_j - [m = 0] Q^2/4.
    Orders 0..M = 16 are kept.
    """

    def __init__(self, params: SpaceParams):
        g = log_density_taylor(params)          # g_1..g_41: D and every f_l to s^80
        n, big_j = params.n, g.size - 1
        k = np.arange(big_j + 1)
        d = 0.5 * (n + 2 * k) * g
        d[1:] += 0.25 * np.convolve(g, g)[:big_j]
        d[0] -= params.q2_over_4
        self.mu0 = (n - 2) / 2.0
        e = np.zeros((_BESSEL_M + 1, big_j + 1))
        e[0, 0] = 1.0
        m = k[:-1]
        for l in range(_BESSEL_M):
            r = (np.convolve(d, e[l])[:big_j]
                 - (2 * (m + 1) * (2 * m + n) - 2 * (self.mu0 + l) * (4 * m + 4 - 2 * l)) * e[l, 1:])
            j = np.arange(l + 1, big_j + 1)
            e[l + 1, l + 1:] = r[l:] / ((n - 1 + 2 * l) * (4 * j - 2 * l - 2))
        # a_l(s) = sum_i e_(l+i)^(l) s^(2i): row l shifted left by l
        self.a_coeffs = np.zeros_like(e)
        for l in range(_BESSEL_M + 1):
            self.a_coeffs[l, :big_j + 1 - l] = e[l, l:]

    def a_values(self, s: np.ndarray) -> np.ndarray:
        """a_l(s) for l = 0..16, shape (17, n_s)."""
        return polynomial.polyval(s * s, self.a_coeffs.T)


def _upward_top_kernels(mu0: float, x: np.ndarray):
    """script_j at orders mu0 + 16 and mu0 + 15, for x > mu0 + 17.

    Every order is below x there, so the upward recurrence
    J_(nu+1) = (2 nu / x) J_nu - J_(nu-1) is stable.  It runs on
    u_nu = sqrt(pi x / 2) J_nu from the start pair at orders nu0 - 1 and
    nu0, nu0 = mu0 mod 1 (_bessel_start_pair), up to the top two orders,
    which script_j's normalization turns into
    script_j(mu, x) = Gamma(mu + 1/2) (2/x)^(mu + 1/2) u_mu.
    """
    top = mu0 + _BESSEL_M
    nu0 = mu0 % 1.0
    u_lo, u_hi = _bessel_start_pair(nu0, x)
    for nu in np.arange(nu0, top):
        u_lo, u_hi = u_hi, (2.0 * nu / x) * u_hi - u_lo
    scale = math.gamma(top + 0.5) * np.power(2.0 / x, top + 0.5)
    return scale * u_hi, (scale * x / (2.0 * top - 1.0)) * u_lo


def _kernel_at_zero(mu):
    """script_j(mu, 0) = sqrt(pi) Gamma(mu + 1/2) / Gamma(mu + 1), the
    series limit, for a scalar or an array mu."""
    return math.sqrt(math.pi) * np.exp(gammaln(mu + 0.5) - gammaln(mu + 1.0))


# Extra orders above mu0 + 16 at which the Miller sweep starts, by the
# largest x of its cells: (x_max bracket edge, extra orders).  Beyond the
# last edge the start is x_max + 8 x_max^(1/3), at least 16 above mu0 + 16.
# A scan against mpmath (mu0 from 1/2 to 30) put every kernel order within
# 1e-14 of its amplitude with these.
_MILLER_EXTRA = ((0.5, 4), (2.0, 6), (5.0, 8), (10.0, 12))


def _miller_extra(top: float, x_max: float) -> int:
    """Orders above top at which the Miller sweep of cells with x <= x_max
    starts.

    The start N must sit far enough above both top and x that the
    discarded dominant solution has died out by the orders that are
    summed.  Above x, J_N(x) falls like
    exp(-(2 sqrt(2)/3) (N - x)^(3/2) / N^(1/2)) (Debye's expansion), so
    at a fixed accuracy N - x grows like x^(1/3).
    """
    for edge, extra in _MILLER_EXTRA:
        if x_max <= edge:
            return extra
    return max(16, math.ceil(x_max + 8.0 * x_max ** (1.0 / 3.0) - top))


def _down(mu: float, x: np.ndarray, hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """Lambda_(mu-1) = Lambda_mu - x^2 Lambda_(mu+1) / (4 mu (mu+1)) from
    hi = Lambda_(mu+1) and lo = Lambda_mu, written over hi and returned.
    x^2 is applied as x (x hi), which cannot overflow where hi is small."""
    hi *= x
    hi *= x
    hi *= 0.25 / (mu * (mu + 1.0))
    return np.subtract(lo, hi, out=hi)


def _miller_factor(nu0: float, x: np.ndarray, t0: np.ndarray, t1: np.ndarray) -> np.ndarray:
    """k that brings the swept pair (t0, t1) at orders nu0 and nu0 + 1 closest,
    in least squares, to the true Lambda_nu0(x) and Lambda_(nu0+1)(x).

    Those are J_0(x) and 2 J_1(x)/x for nu0 = 0, and sin x/x and
    3 (sin x - x cos x)/x^3 for nu0 = 1/2; both pairs are 1 at x = 0 and
    cannot vanish together.  Below x = 1, where the second form cancels
    and neither first one has a zero, order nu0 is matched alone.
    """
    far = x >= 1.0
    if nu0 == 0.0:
        v0 = j0(x)
        v1 = np.divide(2.0 * j1(x), x, out=np.zeros_like(x), where=far)
    else:
        sin_x, cos_x = np.sin(x), np.cos(x)
        v0 = np.divide(sin_x, x, out=np.ones_like(x), where=x > 0)
        v1 = np.divide(3.0 * (sin_x - x * cos_x), x * x * x, out=np.zeros_like(x), where=far)
    t1 = np.where(far, t1, 0.0)
    return (t0 * v0 + t1 * v1) / (t0 * t0 + t1 * t1)


def _kernel_sum(mu0: float, x: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum over l = 0..16 of weights[l] script_j(mu0 + l, x), for x >= 0.

    weights has shape (17, n_s) or (17, 1); each row broadcasts against
    x.  The sum is accumulated during one downward sweep of the order,
    run on the normalized kernels

        Lambda_mu(x) = script_j(mu, x) / script_j(mu, 0) = Gamma(mu+1) (2/x)^mu J_mu(x),

    for which Abramowitz & Stegun 9.1.27, J_(mu-1) + J_(mu+1) =
    (2 mu/x) J_mu, becomes the three-term
    Lambda_(mu-1) = Lambda_mu - x^2 Lambda_(mu+1) / (4 mu (mu+1)) (_down).
    Run downward, J is the growing solution of the recurrence where
    mu > x and neither solution grows where mu < x.

    The sweep starts per cell from x:
    * where x <= mu0 + 17, by Miller's algorithm (Gautschi, SIAM Review 9,
      1967; DLMF 3.6(iii)): from (0, 1) at orders N + 1 and N, N above
      mu0 + 16 by _miller_extra of the largest such x, the sweep gives every
      order up to one common factor per cell.  It runs on to the orders
      nu0 = mu0 mod 1 and nu0 + 1, whose closed forms fix that factor
      (_miller_factor), and the sum, linear in the kernels, is scaled once;
    * beyond it, where every order is below x, from the exact top two
      orders of the upward recurrence (_upward_top_kernels).
    At x = 0 the sweep is the ratio of the series limits.  Two orders are
    held at a time.
    """
    top = mu0 + _BESSEL_M
    nu0 = mu0 % 1.0
    w = _kernel_at_zero(mu0 + np.arange(_BESSEL_M + 1))[:, None] * weights
    miller = x <= top + 1.0
    n_miller = int(np.count_nonzero(miller))
    hi, lo = np.zeros_like(x), np.ones_like(x)                  # orders N + 1, N
    if n_miller:
        # cells of the upward start sweep x = 0 here, and are overwritten
        x_m = x if n_miller == x.size else np.where(miller, x, 0.0)
        for mu in top + np.arange(_miller_extra(top, float(np.max(x_m))), -1, -1):
            hi, lo = lo, _down(mu, x_m, hi, lo)
    if n_miller < x.size:
        up = ~miller
        up_hi, up_lo = _upward_top_kernels(mu0, x[up])
        hi[up], lo[up] = up_hi / _kernel_at_zero(top), up_lo / _kernel_at_zero(top - 1.0)
    total = w[_BESSEL_M] * hi
    term = w[_BESSEL_M - 1] * lo
    total += term
    for l in range(_BESSEL_M - 1, 0, -1):
        hi, lo = lo, _down(mu0 + l, x, hi, lo)
        np.multiply(w[l - 1], lo, out=term)
        total += term
    if n_miller:
        for mu in mu0 - np.arange(round(mu0 - nu0)):
            hi, lo = lo, _down(mu, x, hi, lo)
        if n_miller == x.size:
            total *= _miller_factor(nu0, x, lo, hi)
        else:
            total[miller] *= _miller_factor(nu0, x[miller], lo[miller], hi[miller])
    return total


@functools.cache
def _bessel_table(params: SpaceParams) -> _BesselCoeffs:
    """The space's coefficients, built once."""
    return _BesselCoeffs(params)


class _BesselColumns:
    """The Bessel series' parts that depend on s alone, built once per
    phi_matrix call: each order's weight a_l(s) s^(2l) and the prefactor
    c0 (s^(n-1)/A)^(1/2) (_bessel_pref), on the columns s > 0."""

    def __init__(self, params: SpaceParams, s: np.ndarray):
        tab = _bessel_table(params)
        self.mu0 = tab.mu0
        self.pos = s > 0
        sp = s[self.pos]
        self.sp = sp
        self.weights = tab.a_values(sp) * sp ** (2.0 * np.arange(_BESSEL_M + 1))[:, None]
        self.pref = _bessel_pref(params, sp)


def _bessel_matrix(cols: _BesselColumns, lams: np.ndarray) -> np.ndarray:
    """Bessel-series values on the product of lams >= 0 and cols' s grid,
    shape (n_lam, n_s).

    The sum over l <= 16 of a_l(s) s^(2l) script_j(mu0 + l, lambda s) is
    one downward sweep of the kernel order (_kernel_sum), vectorized over
    the (lambda, s) product; s = 0 columns return exactly 1.  The series
    converges absolutely for s < 2 only; phi_matrix() is its one caller,
    block by block, and sends it no other column.
    """
    total = _kernel_sum(cols.mu0, np.outer(lams, cols.sp), cols.weights)
    total *= cols.pref
    if np.all(cols.pos):
        return total
    out = np.ones((lams.size, cols.pos.size))
    out[:, cols.pos] = total
    return out


# ---------------------------------------------------------------------------
# dispatcher
# ---------------------------------------------------------------------------

def phi(params: SpaceParams, lam: float, s: float) -> float:
    """phi_lambda(s): phi_matrix on one cell."""
    return phi_with_method(params, lam, s)[0]


def phi_with_method(params: SpaceParams, lam: float, s: float) -> tuple[float, str]:
    """phi value, as phi_matrix on one cell, plus the name of its route:
    "bessel" for s < 2 and "hc" beyond."""
    val = float(phi_matrix(params, [lam], [s])[0, 0])
    return val, "bessel" if s < S_HC_MIN else "hc"


def phi_matrix(params: SpaceParams, lams, s) -> np.ndarray:
    """phi_{lambda_i}(s_j) over the grid product, shape (n_lam, n_s).

    Two routes, chosen by s alone: the Bessel series (_bessel_matrix) for
    s < 2 and the exponential series (_HCSeries) for s >= 2, each at every
    lambda.  Their parts that depend on s alone, and the exponential
    series' Gamma rows and h per lambda, are built once; both routes then
    run in blocks of lambda rows of about _BLOCK_CELLS cells, so that
    their temporaries stay small.  Raises DomainError where lambda s is
    not finite, and PhiBoundError if any |phi| exceeds 1 + 1e-9.
    """
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    s = np.atleast_1d(np.asarray(s, dtype=float))
    if not np.all((s >= 0) & np.isfinite(s)):
        raise DomainError("phi_matrix requires finite s >= 0")
    if not np.all(np.isfinite(lams)):
        raise DomainError("phi_matrix requires finite lambda")
    lams_abs = np.abs(lams)
    out = np.empty((lams.size, s.size))
    if out.size == 0:
        return out
    i_max = int(np.argmax(lams_abs))
    if not math.isfinite(float(lams_abs[i_max]) * float(np.max(s))):
        raise DomainError(f"lambda * s overflows at lambda = {lams[i_max]} (s up to {np.max(s)})")
    near = s < S_HC_MIN
    routes = []
    if np.any(near):
        cols = _BesselColumns(params, s[near])
        routes.append((near, lambda rows: _bessel_matrix(cols, lams_abs[rows])))
    if not np.all(near):
        s_far = s[~near]
        mu_max = _hc_mu_for(params, lams_abs, float(np.min(s_far)))
        routes.append((~near, _HCSeries(params, lams_abs, s_far, mu_max).block))
    step = max(1, _BLOCK_CELLS // s.size)
    for i in range(0, lams.size, step):
        rows = slice(i, i + step)
        for where, block in routes:
            out[rows, where] = block(rows)
        _check_bound(out[rows], lams[rows], s)
    return out


def _check_bound(out: np.ndarray, lams: np.ndarray, s: np.ndarray) -> None:
    """Raise PhiBoundError unless |phi| <= 1 + 1e-9 on every cell of out,
    a block of phi_matrix rows (NaN fails), in one vectorized check."""
    bad = ~(np.abs(out) <= 1.0 + _PHI_BOUND_TOL)
    if np.any(bad):
        i, j = np.argwhere(bad)[0]
        raise PhiBoundError(
            f"|phi_{lams[i]}({s[j]})| = {abs(out[i, j])} violates the bound 1 + 1e-9 "
            f"(phi_matrix, {np.count_nonzero(bad)} cells in its block of {lams.size} rows)")
