"""Spherical functions phi_lambda(s) by two series routes.

phi_lambda is the radial eigenfunction of the Laplace-Beltrami operator,

    phi'' + (A'/A) phi' + (lambda^2 + Q^2/4) phi = 0,    phi(0) = 1,

evaluated by

* a Bessel-kernel series for s < 2 in the normalized kernels
  Lambda_mu = script_j(mu, .) / script_j(mu, 0) = Gamma(mu+1) (2/x)^mu J_mu,
  each 1 at x = 0, so that phi(0) = 1 holds with no normalizing
  constant; its coefficients a_l(s) are polynomials in s^2 that follow
  exactly, once per space, from the Taylor series of the radial
  equation's potential by a triangular recursion (_bessel_coeffs) and
  are summed to the order L <= 16 that the call's largest s needs
  (_series_size); its kernels of orders mu0..mu0+L are summed during
  one sweep per cell of the order recurrence (Abramowitz & Stegun
  9.1.27, _kernel_sum): where lambda s <= mu0+17 downward by Miller's
  algorithm from some orders higher, divided once per cell by Neumann's sum over its even orders,
  which is 1 for the exact kernels, and where lambda s exceeds every
  order upward from the exact pair at the two lowest orders
  (special._low_pair); no Bessel function of high order is called, and
  the cost per cell does not depend on lambda;
* an exponential series for s >= 2 at every lambda, lambda = 0
  included: the Harish-Chandra expansion written through
  h(lambda) = i lambda c(lambda), which has no pole (_HCSeries), and
  the Gamma_mu recursion whose omega_k coefficients come from expanding
  the Liouville potential of the radial equation in powers of e^(-s).

phi_matrix() is the one way into both series, and phi() is phi_matrix()
on one cell, so both take the same route by s alone and both enforce
the global bound |phi| <= 1.  The route plan (_route_plan) is the one
place where that rule is written: it gives each route its columns, as
a slice where they are contiguous (s sorted either way).  phi_matrix
builds each series' parts that do not change along a row once per
call on its columns, and runs both in blocks of lambda rows that keep
their temporaries small, each route writing its own columns of the
block.  Both series are
checked against the exact closed form, the Jacobi function
phi_lambda(s) = 2F1(Q/2 + i lambda, Q/2 - i lambda; n/2; -sinh(s/2)^2)
(Koornwinder, 1984), which the tests evaluate with mpmath.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np
from numpy.polynomial import polynomial

from .errors import DomainError, PhiBoundError, ResolutionError
from .space import SpaceParams, log_density_taylor
from .special import _h_modulus, _h_phase, _h_phase_slope0, _low_pair

__all__ = [
    "phi",
    "omega_coeffs",
    "phi_matrix",
]

# The Bessel series converges absolutely for s < 2 and takes every
# lambda there; the exponential series takes every lambda beyond it.
S_HC_MIN = 2.0
# No route boundary sits at these any more; only bench/tracing.py reads them.
LAMBDA_HC_MIN = 1.0
S_BESSEL_MAX = 0.75

_BESSEL_M = 16          # the Bessel series sums orders 0..L, L <= M
# The Bessel series is cut where what it drops stays below this share of
# its order-0 weight (s^(n-1)/A)^(1/2) (a_0 = 1): every |Lambda_mu(x)| <= 1
# for real x and mu >= -1/2 (DLMF 10.14.4), so the orders above the top
# and the Horner terms past the degree (_series_size) move phi by at most
# twice this times that weight.
_BESSEL_TAIL = 1e-18
_HC_MU_START = 40
_HC_MU_CAP = 320
_PHI_BOUND_TOL = 1e-9
_BLOCK_CELLS = 2**14    # cells per lambda block in phi_matrix: 128 kB per array


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

    analytic, and real and positive at 0 (special._h_modulus, _h_phase):

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
        # lam^2 passes the float range at large lam; as inf it gives the
        # limits: lam is not 0, and _h_phase's 1/lam^2 is 0
        with np.errstate(over="ignore"):
            self.zero = lams * lams == 0
            lp = lams[~self.zero]
            self.phase = np.zeros_like(lams)
            self.phase[~self.zero] = _h_phase(params, lp)
        self.scale = _h_modulus(params, lams)
        self.scale[~self.zero] /= lp
        if np.any(self.zero):
            gam[self.zero] += 1j * _gamma_slope0(params, gam[np.argmax(self.zero)].real)
            self.slope0 = _h_phase_slope0(params)
        self.gam_re, self.gam_im = np.ascontiguousarray(gam.real), np.ascontiguousarray(gam.imag)
        self.decay = np.exp(-np.outer(np.arange(mu_max + 1), s))        # (mu, n_s)
        # 2^(1 - m_z/2) A^(-1/2) = 2 e^(-Q s/2) (1 - e^-s)^(-k/2) (1 + e^-s)^(-m_z/2),
        # k = m_v + m_z, e^(-Q s/2) as (e^(-s/4))^(2Q): A itself passes the float
        # range from s ~ 355 on, and exp(-Q s/2) would carry the rounding of Q s/2
        k = params.m_v + params.m_z
        self.pref = 2.0 * np.exp(-0.25 * s) ** (k + params.m_z)
        self.pref *= (-np.expm1(-s)) ** (-0.5 * k) * (1.0 + np.exp(-s)) ** (-0.5 * params.m_z)

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

def _bessel_pref(params: SpaceParams, s):
    """(s^(n-1)/A)^(1/2), the Bessel series' prefactor, for s >= 0.

    Since A = (2 sinh(s/2))^(n-1) cosh(s/2)^m_z, it is taken as
    (s e^(s/2) / expm1(s))^((n-1)/2) cosh(s/2)^(-m_z/2), which neither
    underflows nor divides 0 by 0 at small s; at s = 0 the ratio is its
    limit 1, and so is the prefactor.
    """
    ratio = np.divide(s * np.exp(0.5 * s), np.expm1(s), out=np.ones_like(s), where=s > 0)
    return ratio ** (0.5 * (params.n - 1)) * np.cosh(0.5 * s) ** (-0.5 * params.m_z)


@functools.cache
def _bessel_coeffs(params: SpaceParams) -> np.ndarray:
    """Exact coefficients of the Bessel series, one read-only set per space,
    shape (17, 41): a_l(s) = sum_i row_l[i] s^(2i), l = 0..16.

    With phi = (s^(n-1)/A)^(1/2) w, the radial equation becomes
    w'' + ((n-1)/s) w' + lambda^2 w = D w, where D = V - (n-1)(n-3)/(4s^2)
    is even and analytic at 0 and V is the Liouville potential.  The
    series is w = sum_l f_l(s) Lambda_(mu_l)(lambda s) in the normalized
    kernels Lambda_mu = script_j(mu, .) / script_j(mu, 0), mu_l =
    (n-2)/2 + l and f_l = s^(2l) a_l.  Since
    s dLambda_mu/ds = 2mu (Lambda_(mu-1) - Lambda_mu), free of lambda,
    matching the coefficient of each Lambda_(mu_l) makes
    f_l = sum_j e_j^(l) s^(2j) triangular (the rank-one case of Stanton
    and Tomas, Acta Math. 140, 1978):

        e^(0) = delta_j0,
        e_j^(l+1) = R_l[j-1] / ((n+2l)(4j-2l-2)),   j >= l+1,
        R_l[m] = sum_(k<=m) d_k e_(m-k)^(l)
                 - (2(m+1)(2m+n) - 2 mu_l (4m+4-2l)) e_(m+1)^(l),

    where D = sum_k d_k s^(2k) comes from the g_k of A'/A
    (log_density_taylor):
    d_m = (n+2m)/2 g_(m+1) + 1/4 sum_(i+j=m+1) g_i g_j - [m = 0] Q^2/4.
    The table holds orders 0..M = 16 to degree 40 in s^2; a phi_matrix
    call sums its leading rows and terms only, as far as its largest s
    needs (_series_size).  Lambda_mu(0) = 1 and a_0 = 1 give phi(0) = 1.
    (Written in script_j, as Stanton and Tomas write it, the
    recursion divides by n-1+2l instead; its rows differ from these by
    the exact ratios script_j(mu_l, 0) / script_j(mu_0, 0) =
    prod_(j<l) (mu_0+j+1/2) / (mu_0+j+1).)
    """
    g = log_density_taylor(params)          # g_1..g_41: D and every f_l to s^80
    n, big_j = params.n, g.size - 1
    k = np.arange(big_j + 1)
    d = 0.5 * (n + 2 * k) * g
    d[1:] += 0.25 * np.convolve(g, g)[:big_j]
    d[0] -= params.q2_over_4
    mu0 = (n - 2) / 2.0
    e = np.zeros((_BESSEL_M + 1, big_j + 1))
    e[0, 0] = 1.0
    m = k[:-1]
    for l in range(_BESSEL_M):
        r = (np.convolve(d, e[l])[:big_j]
             - (2 * (m + 1) * (2 * m + n) - 2 * (mu0 + l) * (4 * m + 4 - 2 * l)) * e[l, 1:])
        j = np.arange(l + 1, big_j + 1)
        e[l + 1, l + 1:] = r[l:] / ((n + 2 * l) * (4 * j - 2 * l - 2))
    # a_l(s) = sum_i e_(l+i)^(l) s^(2i): row l shifted left by l, its l leading zeros wrapping
    for l in range(1, _BESSEL_M + 1):
        e[l] = np.roll(e[l], -l)
    e.flags.writeable = False       # shared by every caller through the cache
    return e


# Extra orders above the top order mu0 + L at which the Miller sweep
# starts, by the largest x of its cells: (x_max bracket edge, extra
# orders), and 16 beyond the last edge.  A scan against mpmath (mu0 from
# 1/2 to 30, L = 16) put every kernel order within 1e-14 of its amplitude
# with these; at every L the start clears Debye's bound below.  Neumann's
# sum may ask for more, and beyond the last edge it always does: there its
# reach passes Debye's bound x_max + 8 x_max^(1/3) (_miller_extra).
_MILLER_EXTRA = ((0.5, 4), (2.0, 6), (5.0, 8), (10.0, 12))


def _neumann_coeffs(nu0: float):
    """gamma_0, gamma_1, .. of Neumann's sum
    1 = sum_k gamma_k (x^2/4)^k Lambda_(nu0 + 2k)(x), for every x:
    (x/2)^nu = sum_k (nu + 2k) Gamma(nu + k) / k! J_(nu + 2k)(x)
    (DLMF 10.23.2 at nu = nu0, and 10.23.3) in the normalized kernels,
    gamma_0 = 1 and gamma_k = Gamma(nu0 + k) / (k! Gamma(nu0 + 2k)) beyond."""
    gam, k = 1.0, 0
    while True:
        yield gam
        gam *= (nu0 + k) / ((k + 1) * (nu0 + 2 * k) * (nu0 + 2 * k + 1)) if k else 1.0 / (nu0 + 1)
        k += 1


def _miller_extra(top: float, x_max: float) -> int:
    """Orders above top at which the Miller sweep of cells with x <= x_max
    starts.

    The start N must sit far enough above both top and x that the
    discarded dominant solution has died out by the orders that are
    summed.  Above x, J_N(x) falls like
    exp(-(2 sqrt(2)/3) (N - x)^(3/2) / N^(1/2)) (Debye's expansion), so
    at a fixed accuracy N - x grows like x^(1/3): N >= x_max + 8 x_max^(1/3).
    N must also reach past the terms of Neumann's sum (_neumann_coeffs)
    that matter: to the first order nu0 + 2K whose term
    gamma_K (x_max^2/4)^K is below 1e-18 (nu0 + 2K = 54 at x_max = 18 and
    nu0 = 0).  That reach grows like (e/2) x_max, and beyond the last
    _MILLER_EXTRA edge (x_max > 10) it clears Debye's bound by 11 orders
    or more, so there the rule itself asks for no more than a floor of 16.
    Raises ResolutionError where a term of the reach passes the float
    range (x_max above about 107.8), where the search could not end.
    """
    for edge, extra in _MILLER_EXTRA:
        if x_max <= edge:
            break
    else:
        extra = 16
    nu0, y_k = top % 1.0, 1.0                    # y_k = (x_max^2/4)^k
    for k, gam in enumerate(_neumann_coeffs(nu0)):
        term = gam * y_k
        if term < 1e-18:
            return max(extra, round(nu0 + 2 * k - top))
        if not math.isfinite(term):
            raise ResolutionError(
                f"the Miller start's Neumann sum passes the float range at lambda s = {x_max:g}; "
                f"the Bessel series takes lambda s up to about 107.8 on its Miller cells")
        y_k *= 0.25 * x_max * x_max


def _miller_sum(mu0: float, x: np.ndarray, weights: np.ndarray, cols=None) -> np.ndarray:
    """_kernel_sum for cells with x <= mu0 + 17, by Miller's algorithm
    (Gautschi, SIAM Review 9, 1967; DLMF 3.6(iii)); cols, if given, holds
    each cell's column of weights.

    From (0, 1) at orders N + 1 and N, N above the top order mu0 + L
    (L + 1 weight rows) by _miller_extra of the largest x, the downward
    recurrence Lambda_(mu-1) = Lambda_mu - (x^2/4) Lambda_(mu+1) / (mu (mu+1))
    gives every order down to nu0 = mu0 mod 1 up to one common factor per
    cell.  On the way the weighted orders mu0..mu0+L are summed, and
    Neumann's sum over the even orders nu0 + 2k (_neumann_coeffs), which
    is 1 for the exact kernels, by Horner in x^2/4; the sum, linear in the
    kernels, is divided by it once.
    """
    top_l = weights.shape[0] - 1
    top = mu0 + top_l
    nu0 = mu0 % 1.0
    low = round(mu0 - nu0)                       # mu0 = nu0 + low
    k_start = round(top + _miller_extra(top, float(np.max(x))) - nu0)
    gam = list(itertools.islice(_neumann_coeffs(nu0), k_start // 2 + 1))
    y = 0.25 * x * x
    hi, lo = np.zeros_like(x), np.ones_like(x)   # orders N + 1, N
    total, neumann, term = np.zeros_like(x), np.zeros_like(x), np.empty_like(x)
    for k in range(k_start, -1, -1):             # lo holds order nu0 + k
        if 0 <= k - low <= top_l:
            w = weights[k - low] if cols is None else weights[k - low].take(cols)
            np.multiply(w, lo, out=term)
            total += term
        if not k % 2:
            np.multiply(lo, gam[k // 2], out=term)
            neumann *= y
            neumann += term
        if k:
            mu = nu0 + k
            hi *= y
            hi *= 1.0 / (mu * (mu + 1.0))
            hi, lo = lo, np.subtract(lo, hi, out=hi)
    total /= neumann
    return total


def _upward_sum(mu0: float, x: np.ndarray, weights: np.ndarray, cols=None) -> np.ndarray:
    """_kernel_sum for cells with x > mu0 + 17; cols as in _miller_sum.

    Every order is below x there, so the recurrence run upward from the
    exact pair at orders nu0 = mu0 mod 1 and nu0 + 1 (special._low_pair),
    Lambda_(mu+1) = 4 mu (mu+1) (Lambda_mu - Lambda_(mu-1)) (1/x)^2, is
    stable; the weighted orders mu0..mu0+L (L + 1 weight rows) are summed
    as it passes them.  x^2, which would overflow beyond 1.3e154, is never
    formed.
    """
    top_l = weights.shape[0] - 1
    nu0 = mu0 % 1.0
    lo, hi = _low_pair(nu0, x)                   # orders nu0, nu0 + 1
    inv2 = np.reciprocal(x)
    inv2 *= inv2
    total, term = np.zeros_like(x), np.empty_like(x)
    for l in range(round(nu0 - mu0), top_l + 1):        # lo holds order mu0 + l
        if l >= 0:
            w = weights[l] if cols is None else weights[l].take(cols)
            np.multiply(w, lo, out=term)
            total += term
        if l < top_l - 1:                       # over lo: order mu0 + l + 2
            mu = mu0 + l + 1.0
            lo = np.subtract(hi, lo, out=lo)
            lo *= 4.0 * mu * (mu + 1.0)
            lo *= inv2
        lo, hi = hi, lo
    return total


def _kernel_sum(mu0: float, x: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum over l = 0..L of weights[l] Lambda_(mu0 + l)(x), for x >= 0, in
    the normalized kernels

        Lambda_mu(x) = script_j(mu, x) / script_j(mu, 0) = Gamma(mu+1) (2/x)^mu J_mu(x).

    weights has shape (L + 1, n_s) or (L + 1, 1), L <= 16; each row
    broadcasts against x.  Abramowitz & Stegun 9.1.27,
    J_(mu-1) + J_(mu+1) = (2 mu/x) J_mu, is a three-term recurrence in
    the order; J is its growing solution
    downward where mu > x, and neither solution grows where mu < x.  So
    each cell takes one sweep of it that sums the weighted orders as it
    passes them: downward by Miller's algorithm where x <= mu0 + 17
    (_miller_sum), upward beyond (_upward_sum).  A block on both sides
    is split by cell, each side's weight rows read at its cells' columns,
    and the two sums put back.  At x = 0 every Lambda is 1.
    """
    miller = x <= mu0 + _BESSEL_M + 1.0
    if np.all(miller):
        return _miller_sum(mu0, x, weights)
    if not np.any(miller):
        return _upward_sum(mu0, x, weights)
    total = np.empty(x.shape)
    cols = np.broadcast_to(np.arange(weights.shape[1]), x.shape)    # each cell's weight column
    for sweep, cells in ((_miller_sum, miller), (_upward_sum, ~miller)):
        total[cells] = sweep(mu0, x[cells], weights, cols[cells])
    return total


def _series_size(coeffs: np.ndarray, s_max: float) -> tuple[int, int]:
    """The top order L and the degree in s^2 to which the Bessel series is
    summed on columns s <= s_max, from the coefficient table.

    bound[l, i] = |e_l[i]| s_max^(2(i+l)) bounds the term i of
    a_l(s) s^(2l) for every s <= s_max.  L is the least order whose rows
    above it sum below _BESSEL_TAIL, and the degree the least whose terms
    beyond it, in rows 0..L, do.
    """
    l = np.arange(coeffs.shape[0])[:, None]
    bound = np.abs(coeffs) * s_max ** (2.0 * (np.arange(coeffs.shape[1]) + l))
    top = _last_kept(bound.sum(axis=1))
    return top, _last_kept(bound[:top + 1].sum(axis=0))


def _last_kept(terms: np.ndarray) -> int:
    """The least k >= 0 with sum(terms[k+1:]) <= _BESSEL_TAIL, terms >= 0."""
    from_k = np.cumsum(terms[::-1])[::-1]       # sum(terms[k:]), falling in k
    return max(int(np.count_nonzero(from_k > _BESSEL_TAIL)) - 1, 0)


class _BesselColumns:
    """The Bessel series' parts that depend on s alone, built once per
    phi_matrix call: the lowest kernel order mu0 = (n-2)/2 and each kept
    order's weight (s^(n-1)/A)^(1/2) a_l(s) s^(2l) (_bessel_pref,
    _bessel_coeffs), which is 1 at order 0 and 0 above it where s = 0.
    Orders 0..L are kept, to the degree in s^2 that the largest s needs
    (_series_size)."""

    def __init__(self, params: SpaceParams, s: np.ndarray):
        self.mu0 = (params.n - 2) / 2.0
        self.s = s
        coeffs = _bessel_coeffs(params)
        top, degree = _series_size(coeffs, float(np.max(s)))
        a = polynomial.polyval(s * s, coeffs[:top + 1, :degree + 1].T)     # (L + 1, n_s)
        self.weights = a * s ** (2.0 * np.arange(top + 1))[:, None]
        self.weights *= _bessel_pref(params, s)


def _bessel_matrix(cols: _BesselColumns, lams: np.ndarray) -> np.ndarray:
    """Bessel-series values on the product of lams >= 0 and cols' s grid,
    shape (n_lam, n_s).

    The sum over the kept orders l <= L of the weights times
    Lambda_(mu0 + l)(lambda s) is
    one sweep of the kernel order per cell (_kernel_sum), vectorized over
    the (lambda, s) product; at s = 0 every Lambda is 1 and the weights
    are 1, 0, .., 0, so those cells are exactly 1.  The series converges
    absolutely for s < 2 only; phi_matrix() is its one caller, block by
    block, and sends it no other column.
    """
    return _kernel_sum(cols.mu0, np.outer(lams, cols.s), cols.weights)


# ---------------------------------------------------------------------------
# dispatcher
# ---------------------------------------------------------------------------

def _route_plan(s: np.ndarray) -> list[tuple[str, slice | np.ndarray]]:
    """The phi routes that take columns of s, in order, each as (name,
    cells): "bessel" for s < S_HC_MIN, "hc" (the exponential series) for
    the rest.  cells is a column slice where the route's columns are
    contiguous (their span is under their count), as they are where s is
    sorted either way, else their indices in order."""
    routes = (("bessel", np.flatnonzero(s < S_HC_MIN)), ("hc", np.flatnonzero(s >= S_HC_MIN)))
    return [(name, slice(idx[0], idx[-1] + 1) if np.ptp(idx) < idx.size else idx)
            for name, idx in routes if idx.size]


def phi(params: SpaceParams, lam: float, s: float) -> float:
    """phi_lambda(s): phi_matrix on one cell."""
    return float(phi_matrix(params, [lam], [s])[0, 0])


def phi_matrix(params: SpaceParams, lams, s) -> np.ndarray:
    """phi_{lambda_i}(s_j) over the grid product, shape (n_lam, n_s).

    Two routes, chosen by s alone (_route_plan): the Bessel series
    (_bessel_matrix) for s < 2 and the exponential series (_HCSeries) for
    s >= 2, each at every lambda and on its own columns.  Their parts that
    depend on s alone, and the exponential series' Gamma rows and h per
    lambda, are built once; both routes then run in blocks of lambda rows
    of about _BLOCK_CELLS cells, so that their temporaries stay small.
    Raises DomainError where lambda s is not finite, and PhiBoundError if
    any |phi| exceeds 1 + 1e-9.
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
    routes = []
    for name, cells in _route_plan(s):
        if name == "bessel":
            routes.append((name, cells, _BesselColumns(params, s[cells])))
        else:
            mu_max = _hc_mu_for(params, lams_abs, float(np.min(s[cells])))
            routes.append((name, cells, _HCSeries(params, lams_abs, s[cells], mu_max)))
    step = max(1, _BLOCK_CELLS // s.size)
    for i in range(0, lams.size, step):
        rows = slice(i, i + step)
        for name, cells, route in routes:
            out[rows, cells] = (_bessel_matrix(route, lams_abs[rows]) if name == "bessel"
                                else route.block(rows))
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
