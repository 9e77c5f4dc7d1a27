"""End-to-end scaling experiments: the two counterexample families behind
the sharpness of the 1/4 regularity threshold, and the comparable-
oscillation hypothesis checks of the transference principle.

Case 1 concentrates a spectral bump of width sqrt(N) at frequency N and
evaluates the linearized evolution at the stationary-phase time
t(s) = s/(a N^(a-1)); its Sobolev norm scales like N^(beta - 1/4) while
the evolution stays bounded below, so every beta < 1/4 defeats any
maximal bound.  Case 2 scales a fixed Euclidean profile through the
spectral correspondence; sup growth N^n against norm growth
N^(beta + n/2) forces p <= 2n/(n - 2 beta).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .bumps import bump_12, bump_unit
from .dispersive import PhaseKind, phase, phase_derivs
from .errors import DomainError, ValidationError
from .profiles import _check_samples
from .quadrature import panel_rules
from .space import SpaceParams, new_space
from .spherical import phi_matrix
from .special import _cis, plancherel_density
from .transform import _inverse_profile, _inverse_rules, _resampler, _sobolev_norms, _spline

__all__ = [
    "ExperimentReport",
    "SlopeFit",
    "fit_loglog_slope",
    "case1_run",
    "case2_run",
    "implied_p_bound",
    "transference_check",
]

_RESIDUAL_RMS_MAX = 0.02
_CASE1_POINTS, _CASE2_POINTS = 384, 512   # lambda grids of the two families
_CASE1_S_POINTS = 16                      # s grid of the case-1 minimum
_CIS_ANCHOR_ROWS = 8                      # case-1 multiplier rows per exact _cis
_SWEEP_POINTS = 600                       # log sweep of transference_check


@dataclass
class SlopeFit:
    """One fitted log-log slope against its expectation."""

    quantity: str
    slope: float
    expected: float
    tolerance: float
    residual_rms: float

    @classmethod
    def fit(cls, quantity: str, x, y, expected: float, tolerance: float) -> SlopeFit:
        """The log-log slope of y against x (fit_loglog_slope) against its expectation."""
        slope, rms = fit_loglog_slope(x, y)
        return cls(quantity, slope, expected, tolerance, rms)

    @property
    def within(self) -> bool:
        return (abs(self.slope - self.expected) <= self.tolerance
                and self.residual_rms < _RESIDUAL_RMS_MAX)


@dataclass
class ExperimentReport:
    """Structured outcome of one experiment run.

    verdict is "pass"/"fail" for the scaling runs ("no-verdict" when the
    sampled range is pre-asymptotic) and "comparable"/"not-comparable"
    for the transference hypothesis check.
    """

    name: str
    fitted_slopes: list[SlopeFit] = field(default_factory=list)
    scalars: list[tuple[str, float]] = field(default_factory=list)
    verdict: str = "pass"
    provenance: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "fitted_slopes": [asdict(f) for f in self.fitted_slopes],
            "scalars": [{"quantity": q, "value": v} for q, v in self.scalars],
            "verdict": self.verdict,
            "provenance": self.provenance,
        }


def fit_loglog_slope(x, y) -> tuple[float, float]:
    """Least-squares slope of log y against log x, with the RMS of the
    log residuals; requires at least 5 distinct x, since repeated x leave
    the fit rank-deficient."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(set(x.ravel().tolist())) < 5:     # np.unique would import numpy.ma (13 ms)
        raise ValidationError("slope fits require at least 5 distinct sample points")
    lx, ly = np.log(x), np.log(y)
    coef = np.polyfit(lx, ly, 1)
    resid = ly - np.polyval(coef, lx)
    return float(coef[0]), float(np.sqrt(np.mean(resid**2)))


# ---------------------------------------------------------------------------
# Case 1: bump of width sqrt(N) at frequency N
# ---------------------------------------------------------------------------

def _case1_families(params: SpaceParams, n_list):
    """The case-1 family of each N of n_list, the spectrum
    N^(-1/2) eta(-lambda/sqrt(N) + sqrt(N)) |c(lambda)| on _CASE1_POINTS
    of its support [N - sqrt(N), N + sqrt(N)], as the rows of one
    (N x lambda) build: (grids, values, density, (lo, hi)), density being
    plancherel_density on the grids, which the Sobolev norms share, and
    (lo, hi) the supports, one row or entry per N.  The rows are checked
    once, as SpectralProfile checks each family (`_check_samples`), and
    each keeps the bits its family has alone.  Raises ValidationError for
    an N below 16 before anything is built."""
    n = np.array(n_list, dtype=float)
    if np.any(n < 16):
        raise ValidationError("case-1 family requires N >= 16")
    root = np.sqrt(n)
    support = (n - root, n + root)
    lam = np.linspace(*support, _CASE1_POINTS, axis=-1)
    xi = -lam / root[:, None] + root[:, None]
    density = plancherel_density(params, lam)
    vals = bump_unit(xi) * (1.0 / np.sqrt(density)) / root[:, None]
    _check_samples(lam, vals, "spectral", support)
    return lam, vals, density, support


def _multiplier_rows(t: np.ndarray, dt: float, psi: np.ndarray):
    """e^(i t_j psi) for each t_j of t, an arithmetic progression of step
    dt, one row at a time (one array, updated in place): an exact _cis
    every _CIS_ANCHOR_ROWS rows, and each row between them the row before
    times e^(i dt psi), one complex product per node.

    Drift, with u = 2^-53 and theta = max |t psi|: a row k rows past its
    anchor is within u (10 theta + 8 k + 12) of _cis(t_j * psi).  Its
    angle, the anchor's t psi plus k dt psi, is within 10 u theta of the
    float t_j psi: 2 u theta from rounding each of t_j psi, the anchor's
    and k dt psi, and 4 u theta from the two s values of the grid.  Each
    complex product adds at most sqrt(5) u and the step's own _cis error,
    each _cis erring by at most 4 u.  At the benchmark's largest angles,
    3,300 rad (a = 2) and 4,400 rad (a = 1.5) at N = 65536, the bound is
    3.7e-12 and 4.9e-12.
    """
    step = _cis(dt * psi)
    for j, t_j in enumerate(t):
        if j % _CIS_ANCHOR_ROWS == 0:
            row = _cis(t_j * psi)
        else:
            row *= step
        yield row


def _case1_linearized_min(params: SpaceParams, kind: PhaseKind, a: float,
                          n_list, epsilon: float) -> list[float]:
    """For each N of n_list, the min over _CASE1_S_POINTS s in [eps, 2 eps]
    of |T f_N(s)| at t(s) = s/(a N^(a-1)).

    Evaluated in the bump coordinate xi = -lambda/sqrt(N) + sqrt(N), where
    the integrand is smooth and the quadrature needs O(sqrt(N) eps)
    panels: T f_N(s) = int_-1^1 phi_lambda(xi)(s) e^(i t psi) eta(xi)
    |c(lambda(xi))|^(-1) dxi.  No Plancherel constant is applied: every
    verdict built on this quantity is scale free.

    The list is worked as one batch.  One panel_rules call lays out every
    band's nodes, each band's rule bit for bit its panel_rule, and one
    phase and one plancherel_density call cover them all.  One phi_matrix
    call forms the kernel on the rows of every band's resampler
    (`transform._resampler`: the Chebyshev extrema of the band, 16 to 65
    rows for 200 to 1,216 nodes at N = 64 .. 65536 and eps = 0.05, 200 in
    all), and each band resamples its own rows to its nodes.  The sum is
    taken one s row at a time against `_multiplier_rows`, so no complex
    (s x nodes) array is formed: a band's real kernel is the largest.
    """
    n = np.array(n_list, dtype=float)
    root = np.sqrt(n)
    s_grid, ds = np.linspace(epsilon, 2.0 * epsilon, _CASE1_S_POINTS, retstep=True)
    scale = np.array([a * n_freq ** (a - 1.0) for n_freq in n_list])   # t(s) = s / scale
    # phi turns at rate sqrt(N) s in xi, and t psi at sqrt(N) t psi', largest at
    # the bump's top edge N + sqrt(N) since psi' increases
    psi1, _ = phase_derivs(kind, params, n + root)
    rate = root * 2.0 * epsilon * (1.0 + psi1 / scale) + 8.0
    xi, amp, counts = panel_rules(np.full(n.size, -1.0), np.full(n.size, 1.0), rate, 16)
    lam = np.repeat(n, counts) - np.repeat(root, counts) * xi
    psi = phase(kind, params, lam)
    amp *= bump_unit(xi)            # in place: the weights become w eta(xi) |c|^-1
    amp *= np.sqrt(plancherel_density(params, lam))
    lams, psis, amps = (np.split(x, np.cumsum(counts)[:-1]) for x in (lam, psi, amp))
    resamplers = [_resampler(band, s_grid) for band in lams]
    rows = phi_matrix(params, np.concatenate([r.nodes for r in resamplers]), s_grid)
    rows = np.split(rows, np.cumsum([r.nodes.size for r in resamplers])[:-1])
    # a band's kernel lives only in its _band_min call
    return [_band_min(r.resample(k), amp_n, s_grid / c, ds / c, psi_n)
            for r, k, amp_n, psi_n, c in zip(resamplers, rows, amps, psis, scale)]


def _band_min(kernel: np.ndarray, amp: np.ndarray, t: np.ndarray, dt: float,
              psi: np.ndarray) -> float:
    """min over j of |sum_i kernel[i, j] amp_i e^(i t_j psi_i)|, for a real
    (nodes x t) kernel, summed one row of `_multiplier_rows` at a time."""
    weighted = np.multiply(kernel.T, amp, order="C")     # (t x nodes)
    # the real GEMV on the row's (re, im) view, as _real_kernel_product does;
    # inline, as the helper's reshapes cost 8% of case1_run over 96 rows
    vals = np.array([row @ mult.view(float).reshape(-1, 2)
                     for row, mult in zip(weighted, _multiplier_rows(t, dt, psi))])
    return float(np.min(np.hypot(vals[:, 0], vals[:, 1])))


def case1_run(params: SpaceParams, a: float, beta_list, n_list, epsilon: float = 0.05,
              shifted: bool = False, slope_tol: float = 0.05) -> ExperimentReport:
    """Scaling probe of the below-threshold failure.

    For each N: the H^beta norms of its family, and the minimum of
    the linearized evolution over [eps, 2 eps].  The whole N list is worked
    at once.  One `_case1_families` build gives every family as a row of
    an (N x lambda) array, checked once, with the Plancherel density on its
    grid; one `transform._sobolev_norms` pass over those rows gives every
    norm, each bit for bit what `sobolev_norm` gives that family alone;
    and `_case1_linearized_min` gives every minimum.  Passes when every
    norm slope sits at beta - 1/4 within tolerance and the minimum never
    drops below half its value at the smallest N.  Raises ValidationError
    for an N below 16 before any family is built, and ResolutionError where
    the list's phase-resolving rules ask for more than 2^22 panels in all.
    """
    if a <= 1.0:
        raise ValidationError("case-1 requires a > 1")
    n_list = sorted(int(n) for n in n_list)
    beta_list = list(beta_list)
    if not beta_list:
        raise ValidationError("case-1 needs at least one beta")
    kind = PhaseKind("frac", shifted=shifted, a=a)
    n_top = max(n_list, default=0)      # psi ~ lambda^a peaks at its bump's edge N + sqrt(N)
    try:
        phase(kind, params, n_top + math.sqrt(max(n_top, 0)))
    except DomainError:
        raise ValidationError(f"case-1 needs N^a within the double range; a = {a:g} "
                              f"passes it at N = {n_top}") from None
    lam, vals, density, _ = _case1_families(params, n_list)
    norms = _sobolev_norms(params, lam, vals, beta_list, density)
    report = ExperimentReport(
        name="case1",
        fitted_slopes=[SlopeFit.fit(f"sobolev_norm(beta={beta})", n_list,
                                    norms[:, i], beta - 0.25, slope_tol)
                       for i, beta in enumerate(beta_list)],
        provenance={
            "m_v": params.m_v, "m_z": params.m_z, "a": a, "shifted": shifted,
            "beta_list": beta_list, "n_list": n_list, "epsilon": epsilon,
        },
    )
    mins = _case1_linearized_min(params, kind, a, n_list, epsilon)
    floor = 0.5 * mins[0]
    report.scalars.append(("min_linearized_at_smallest_N", mins[0]))
    report.scalars.append(("min_linearized_overall", float(min(mins))))
    report.scalars.append(("lower_bound_floor", floor))
    nondecay = bool(min(mins) >= floor)
    report.scalars.append(("lower_bound_nondecaying", float(nondecay)))
    if n_list[0] < 64:
        report.verdict = "no-verdict"
        report.scalars.append(("pre_asymptotic_regime", 1.0))
    else:
        slopes_ok = all(f.within for f in report.fitted_slopes)
        report.verdict = "pass" if (slopes_ok and nondecay) else "fail"
    return report


# ---------------------------------------------------------------------------
# Case 2: scaled Euclidean profile through the correspondence
# ---------------------------------------------------------------------------

def _case2_families(params: SpaceParams, n_list: list[int]):
    """The case-2 family of each N of n_list, the spectrum
    lambda^(n-1) bump_12(lambda/N) |c(lambda)|^2 on _CASE2_POINTS of [N, 2N]
    (the Euclidean bump spectrum bump_12(lambda/N) carried to the space by
    the correspondence weight lambda^(n-1) / |c|^-2, exactly 0 where the
    bump is), as the rows of one (N x lambda) build: (grids, values,
    density, (lo, hi)), as `_case1_families` gives them, checked once and
    each row keeping the bits its family has alone."""
    n = np.array(n_list, dtype=float)
    support = (n, 2.0 * n)
    lam = np.linspace(*support, _CASE2_POINTS, axis=-1)
    fg = bump_12(lam / n[:, None]).astype(complex)
    density = plancherel_density(params, lam)
    inside = np.abs(fg) > 0
    vals = np.zeros_like(fg)
    vals[inside] = lam[inside] ** (params.n - 1) * fg[inside] / density[inside]
    _check_samples(lam, vals, "spectral", support)
    return lam, vals, density, support


def implied_p_bound(n: int, beta: float) -> float:
    """The integrability bound 2n/(n - 2 beta) forced by the case-2 growth."""
    if beta >= n / 2:
        return math.inf
    return 2.0 * n / (n - 2.0 * beta)


def case2_run(params: SpaceParams, beta: float, n_list, epsilon: float = 0.25,
              slope_tol: float = 0.1) -> ExperimentReport:
    """Necessity probe: sup growth n, norm growth beta + n/2, and the
    implied p bound from their difference.

    For each N: the H^beta norm of its family, and the sup over 48
    points of [0, eps/N] of its inverse transform, each bit for bit what
    `sobolev_norm` and `sft_inverse` give that family alone.  The list is
    worked in one pass.  One `transform._inverse_rules` call, the first
    whose arrays grow with N, lays out and weights every band's nodes: the
    rule that `inverse_quadrature` lays on [N, 2N] at the rate max(eps/N,
    1).  It raises ResolutionError, before anything else is allocated, where
    they ask for more than 2^22 panels in all: at eps/N <= 1 (1.27 N
    panels), a list whose N sum to more than about 3.3e6, although each N
    alone may fit.  One `_case2_families` build gives every family as a row
    of an (N x lambda) array, checked once, with the Plancherel density on
    its grid.  Each band multiplies its weights by its family's row splined
    onto its nodes, and forms its own inverse (`transform._inverse_profile`);
    one `transform._sobolev_norms` pass over the rows gives every norm.
    """
    if not 0.0 <= beta < params.n / 2:
        raise ValidationError("case-2 requires 0 <= beta < n/2")
    n_list = sorted(int(n) for n in n_list)
    if n_list and n_list[0] < 8:
        raise ValidationError("case-2 family requires N >= 8")
    n = np.array(n_list, dtype=float)
    nodes, weights, counts = _inverse_rules(params, n, 2.0 * n, epsilon / n)
    lam, vals, density, _ = _case2_families(params, n_list)
    cuts = np.cumsum(counts)[:-1]
    sups = []
    for grid, v, n_freq, band, w in zip(
            lam, vals, n_list, *(np.split(x, cuts) for x in (nodes, weights))):
        s_grid = np.linspace(0.0, epsilon / n_freq, 48)
        prof = _inverse_profile(params, band, w * _spline(grid, v, band), s_grid)
        sups.append(float(np.max(np.abs(prof.values))))
    norms = _sobolev_norms(params, lam, vals, [beta], density)[:, 0]
    n_dim = params.n
    sup_fit = SlopeFit.fit("sup_growth", n_list, sups, float(n_dim), slope_tol)
    norm_fit = SlopeFit.fit(f"sobolev_norm(beta={beta})", n_list, norms,
                            beta + n_dim / 2.0, slope_tol)
    report = ExperimentReport(
        name="case2",
        fitted_slopes=[sup_fit, norm_fit],
        provenance={"m_v": params.m_v, "m_z": params.m_z, "beta": beta,
                    "n_list": n_list, "epsilon": epsilon},
    )
    # N^(sup_slope - n/p) <= N^(norm_slope) as N -> inf forces the bound
    if sup_fit.slope > norm_fit.slope:
        p_measured = n_dim / (sup_fit.slope - norm_fit.slope)
    else:
        p_measured = math.inf
    p_expected = implied_p_bound(n_dim, beta)
    dp = (p_measured**2 / n_dim) * 2.0 * slope_tol if math.isfinite(p_measured) else math.inf
    report.scalars.append(("implied_p_bound", p_measured))
    report.scalars.append(("expected_p_bound", p_expected))
    report.scalars.append(("p_bound_tolerance", dp))
    p_ok = abs(p_measured - p_expected) <= dp
    report.verdict = "pass" if (all(f.within for f in report.fitted_slopes) and p_ok) else "fail"
    return report


# ---------------------------------------------------------------------------
# comparable oscillation
# ---------------------------------------------------------------------------

def transference_check(kind1: PhaseKind, kind2: PhaseKind, big_lambda: float = 1.0,
                       lambda_max: float = 1e3,
                       params: SpaceParams | None = None) -> ExperimentReport:
    """Sweep |psi1 - psi2| on _SWEEP_POINTS of [Lambda, lambda_max], with
    1 <= Lambda <= lambda_max/10 and lambda_max >= 1e3; "comparable" iff the
    running sup stabilizes (under 1% increase over the last decade), else
    report the measured growth exponent."""
    if big_lambda < 1.0 or lambda_max < 1e3:
        raise ValidationError("need Lambda >= 1 and lambda_max >= 1e3")
    if big_lambda > lambda_max / 10.0:
        raise ValidationError(f"need Lambda <= lambda_max/10 = {lambda_max / 10.0:g}, so that "
                              f"the sweep has a first decade; got Lambda = {big_lambda:g}")
    if params is None:
        params = new_space(2, 1)
    lam = np.geomspace(big_lambda, lambda_max, _SWEEP_POINTS)
    diff = np.abs(phase(kind1, params, lam) - phase(kind2, params, lam))
    sup_all = float(np.max(diff))
    sup_low = float(np.max(diff[lam <= lambda_max / 10.0]))
    stabilized = sup_all <= sup_low * 1.01 + 1e-12
    report = ExperimentReport(
        name="transference",
        provenance={"kind1": kind1.name, "a1": kind1.a, "kind2": kind2.name,
                    "a2": kind2.a, "Lambda": big_lambda, "lambda_max": lambda_max,
                    "m_v": params.m_v, "m_z": params.m_z},
    )
    report.scalars.append(("sup_diff", sup_all))
    report.scalars.append(("sup_diff_first_decades", sup_low))
    if stabilized:
        report.verdict = "comparable"
    else:
        top = lam >= lambda_max / 10.0
        slope, rms = fit_loglog_slope(lam[top], np.maximum(diff[top], 1e-300))
        report.scalars.append(("growth_exponent", slope))
        report.fitted_slopes.append(SlopeFit(
            quantity="phase_difference_growth", slope=slope, expected=slope,
            tolerance=0.0, residual_rms=rms,
        ))
        report.verdict = "not-comparable"
    return report
