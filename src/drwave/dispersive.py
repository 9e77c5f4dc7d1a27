"""Dispersive phase functions, the propagator and the discretized maximal
function.

The multipliers come from one table of three families, each a function
F of u = lambda^2 + gap: fractional Schrodinger u^(a/2), Boussinesq
sqrt(u(u+1)) and Beam sqrt(1+u^2).  A variant of Delta has gap Q^2/4; its
shifted counterpart, a variant of Delta + Q^2/4, is the same family at
gap 0.  So psi = F(u), psi' = 2 lambda F'(u), psi'' = 2F'(u) + 4 lambda^2
F''(u), and psi(x) - psi(x0) = F(u0 + du) - F(u0) with u0 = x0^2 + gap and
du = (x - x0)(x + x0).  Each variant has growth exponents (delta1,
delta2): |psi'| <~ lambda^(delta1-1) below 1, |psi'| <~ lambda^(delta2-1)
and |psi''| comparable to lambda^(delta2-2) above 1; delta1 = 2 whenever
the gap is Q^2/4.  Boussinesq and Beam are formed from sqrt(u), sqrt(u+1)
and hypot(1, u), their differences as (F^2 - F0^2)/(F + F0), so that no
u^2 is formed: psi, psi', psi'' and the difference stay finite wherever
psi is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, ResolutionError, ValidationError
from .profiles import RadialProfile, SpectralProfile
from .space import SpaceParams
from .special import _cis
from .spherical import phi_matrix
from .transform import _real_kernel_product, _resampler, inverse_quadrature

__all__ = [
    "PhaseKind",
    "phase",
    "phase_derivs",
    "verify_phase_asymptotics",
    "PhaseAsymptoticsReport",
    "propagate",
    "maximal_function",
    "default_t_grid",
]


def _pow_diff(v0, v, dv, p: float):
    """v^p - v0^p to relative accuracy of the difference (v0 > 0), given
    v and dv = v - v0 each formed without cancellation.

    Where v < v0/2 the direct difference cancels nothing, while
    log1p(dv/v0) inherits the rounding of dv magnified by v0/v."""
    r = dv / v0
    w0 = v0**p
    out = w0 * np.expm1(p * np.log1p(np.maximum(r, -0.5)))
    far = r < -0.5
    return np.where(far, v**p - w0, out) if np.any(far) else out


def _root_diff(f, u0, u, du, c: float):
    """F(u) - F(u0) for F = f(u) > 0 with F^2 = u^2 + c u + const, as
    du (u + u0 + c) / (F(u) + F(u0)): no term cancels, and each sum is
    halved first (exactly) so that none passes the double range."""
    return du * ((0.5 * u + 0.5 * u0 + 0.5 * c) / (0.5 * f(u) + 0.5 * f(u0)))


def _boussinesq(u):
    """sqrt(u (u + 1)), with no u^2 formed."""
    return np.sqrt(u) * np.sqrt(u + 1.0)


@dataclass(frozen=True)
class _Family:
    """One multiplier family psi = F(u), u = lambda^2 + gap.  The callables
    take (u, a), or (u0, u, du, a) for the difference, vectorized over u."""

    f: Callable
    df: Callable
    ddf: Callable
    diff: Callable              # (u0, u, du, a) -> F(u) - F(u0) without cancellation
    delta1_shifted: Callable    # a -> delta1 at gap 0
    delta2: Callable            # a -> delta2
    takes_a: bool = False
    # lambda -> psi'' at gap 0, where 2F' + 4 lambda^2 F'' cancels
    dd_shifted: Callable | None = None


_FAMILIES = {
    "frac": _Family(
        f=lambda u, a: u ** (0.5 * a),
        df=lambda u, a: 0.5 * a * u ** (0.5 * a - 1.0),
        ddf=lambda u, a: 0.5 * a * (0.5 * a - 1.0) * u ** (0.5 * a - 2.0),
        diff=lambda u0, u, du, a: _pow_diff(u0, u, du, 0.5 * a),
        delta1_shifted=lambda a: a, delta2=lambda a: a, takes_a=True,
    ),
    "boussinesq": _Family(
        f=lambda u, a: _boussinesq(u),
        df=lambda u, a: (u + 0.5) / _boussinesq(u),
        ddf=lambda u, a: -0.25 * _boussinesq(u) ** -3.0,
        diff=lambda u0, u, du, a: _root_diff(_boussinesq, u0, u, du, 1.0),
        delta1_shifted=lambda a: 1.0, delta2=lambda a: 2.0,
        # 2F' and 4 lambda^2 F'' are each ~1/lambda near 0; lambda (2 lambda^2
        # + 3) (lambda^2 + 1)^-1.5, with no lambda^3 formed
        dd_shifted=lambda lam: (2.0 + 1.0 / (lam * lam + 1.0)) * (lam / np.sqrt(lam * lam + 1.0)),
    ),
    "beam": _Family(
        f=lambda u, a: np.hypot(1.0, u),
        df=lambda u, a: u / np.hypot(1.0, u),
        ddf=lambda u, a: np.hypot(1.0, u) ** -3.0,
        diff=lambda u0, u, du, a: _root_diff(lambda v: np.hypot(1.0, v), u0, u, du, 0.0),
        delta1_shifted=lambda a: 4.0, delta2=lambda a: 2.0,
    ),
}


@dataclass(frozen=True)
class PhaseKind:
    """A dispersive multiplier phase: a family of the phase table, whether
    it is shifted (gap 0) or not (gap Q^2/4), and the family's exponent a
    (fractional family only)."""

    family: str
    shifted: bool = False
    a: float | None = None

    def __post_init__(self):
        entry = _FAMILIES.get(self.family)
        if entry is None:
            raise ValidationError(f"unknown phase family {self.family!r} "
                                  f"(one of {', '.join(_FAMILIES)})")
        if entry.takes_a and not (self.a is not None and 1.0 < self.a < math.inf):
            raise ValidationError(f"{self.name} needs an exponent 1 < a < inf, "
                                  f"e.g. {self.name}:2 (got {self.a})")
        if not entry.takes_a and self.a is not None:
            raise ValidationError(f"{self.name} takes no exponent")

    @property
    def name(self) -> str:
        return self.family + "-shifted" if self.shifted else self.family

    @property
    def entry(self) -> _Family:
        return _FAMILIES[self.family]

    @property
    def delta1(self) -> float:
        return self.entry.delta1_shifted(self.a) if self.shifted else 2.0

    @property
    def delta2(self) -> float:
        return self.entry.delta2(self.a)

    def gap(self, params: SpaceParams) -> float:
        return 0.0 if self.shifted else params.q2_over_4

    @classmethod
    def from_selector(cls, selector: str) -> "PhaseKind":
        """Parse the CLI selector: frac:a, frac-shifted:a, boussinesq,
        boussinesq-shifted, beam, beam-shifted; the constructor validates."""
        head, _, tail = selector.partition(":")
        family = head.removesuffix("-shifted")
        try:
            a = float(tail) if tail else None
        except ValueError:
            raise ValidationError(f"selector {selector!r}: cannot read {tail!r}") from None
        return cls(family, shifted=head != family, a=a)


# the largest lambda whose square, plus any gap, is a finite double
_LAM_MAX = math.sqrt(np.finfo(float).max)


def _phase_arg(kind: PhaseKind, params: SpaceParams, lam: np.ndarray) -> np.ndarray:
    """u = lambda^2 + gap, the argument of the family's F.  Raises
    DomainError where lambda^2 would pass the double range (lambda above
    _LAM_MAX, about 1.34e154): no F, F' or F'' is formed right from u = inf."""
    lam_top = lam.max(initial=0.0)
    if lam_top > _LAM_MAX:
        raise DomainError(f"the phase needs lambda^2 within the double range; "
                          f"lambda reaches {lam_top:g}")
    return lam * lam + kind.gap(params)


def phase(kind: PhaseKind, params: SpaceParams, lam):
    """psi(lambda) for the given variant (vectorized over lambda >= 0).
    Raises DomainError where psi passes the double range, as psi of frac:5
    does from lambda ~ 4.5e61: the overflow flag, not a scan of the
    result, catches it."""
    lam = np.asarray(lam, dtype=float)
    u = _phase_arg(kind, params, lam)
    try:
        with np.errstate(over="raise"):
            out = np.asarray(kind.entry.f(u, kind.a))
    except FloatingPointError:
        raise DomainError(f"psi is not a finite double on lambda up to "
                          f"{lam.max(initial=0.0):g}") from None
    return out if out.ndim else float(out)


def phase_derivs(kind: PhaseKind, params: SpaceParams, lam):
    """(psi', psi'') from the family's F' and F'' (vectorized over lambda > 0).
    Raises DomainError where forming either overflows, divides by 0 or
    makes a NaN, as psi' of frac:5 passes the double range from lambda ~
    7.7e76: the floating-point flags, not a scan of the result, catch it."""
    lam = np.asarray(lam, dtype=float)
    if np.any(lam <= 0):
        raise DomainError("phase_derivs requires lambda > 0")
    entry = kind.entry
    u = _phase_arg(kind, params, lam)
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            df = entry.df(u, kind.a)
            d1 = 2.0 * lam * df
            if kind.shifted and entry.dd_shifted is not None:
                d2 = entry.dd_shifted(lam)
            else:
                # lam^2 F'' before the factor 4 (the same bits), which would take
                # lam^2 past the double range from lam = 6.7e153 on
                d2 = 2.0 * df + 4.0 * (lam * lam * entry.ddf(u, kind.a))
    except FloatingPointError:
        raise DomainError(f"psi' or psi'' is not a finite double on lambda in "
                          f"[{np.min(lam):g}, {np.max(lam):g}]") from None
    if np.ndim(d1):
        return d1, d2
    return float(d1), float(d2)


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


_T_BLOCK = 64  # times per kernel GEMM in maximal_function
# cells that a PropagatorKernel may allocate for its phi kernel (kernel rows
# x n_s) or for the complex multipliers of one block of times (nodes x
# _T_BLOCK): 64 MB of kernel, 128 MB of multipliers.  Its kept sampling
# weights, 2m < n_s per node and the padding of their row blocks, stay of
# the order of a kernel on the nodes
_CELLS_CAP = 2**23


class PropagatorKernel:
    """Quadrature kernel s x lambda for one (space, spectrum, s-grid) triple.

    Built once, then applied for many times t: the t-dependence is only
    the unimodular multiplier e^(i t psi(lambda)) at the lambda nodes.
    Raises ResolutionError unless the spectral grid of fh resolves that
    multiplier's phase up to t_max (at most pi/8 per grid step), and,
    once the nodes and the resampler are laid and before any kernel, weight
    or multiplier is formed, where the kernel or one block of multipliers
    would pass _CELLS_CAP.

    phi is formed on the rows of the resampler that `transform._resampler`
    picks at the type sigma = max s (`kept`, so a node keeps fewer weights
    than its n_s kernel cells).  The multiplier stays on the nodes: apply
    carries amp e^(i t psi) onto the resampler's rows by the transposed
    weights, formed once and kept.
    """

    def __init__(self, params: SpaceParams, fh: SpectralProfile, kind: PhaseKind,
                 s_grid, t_max: float):
        dpsi = abs(phase_derivs(kind, params, max(fh.top, 1e-3))[0])
        step = float(fh.lambda_grid[1] - fh.lambda_grid[0])
        if t_max * dpsi * step > math.pi / 8.0:
            raise ResolutionError(
                f"spectral grid step {step:.3g} does not resolve the multiplier "
                f"phase: |t| psi' dlambda = {t_max * dpsi * step:.3g} > pi/8"
            )
        self.s_grid = np.atleast_1d(np.asarray(s_grid, dtype=float))
        nodes, self.amp = inverse_quadrature(params, fh, np.max(self.s_grid) + t_max * dpsi)
        self.resampler = _resampler(nodes, self.s_grid, kept=True)   # no weight formed yet
        rows = self.resampler.nodes
        cells = max(rows.size * self.s_grid.size, nodes.size * _T_BLOCK)
        if cells > _CELLS_CAP:
            raise ResolutionError(
                f"the propagator needs {cells:.3g} cells in one array ({nodes.size} "
                f"lambda nodes, {rows.size} kernel rows x {self.s_grid.size} s), above "
                f"the cap of {_CELLS_CAP}; narrow the spectrum or lower lambda_max or t"
            )
        self.psi_nodes = phase(kind, params, nodes)
        self.weights = list(self.resampler.blocks())
        self.kernel_t = phi_matrix(params, rows, self.s_grid).T  # (n_s, n_rows)

    def apply(self, t) -> np.ndarray:
        """S_t f on the s grid, shape (n_s,); for a 1-D array of times, shape
        (n_s, n_t).  The coefficients amp e^(i t psi) on the nodes, carried
        onto the resampler's rows, then one real GEMM of the real kernel_t
        with their interleaved (re, im) view."""
        t = np.asarray(t, dtype=float)
        mult = _cis(np.multiply.outer(self.psi_nodes, t))
        coef = (self.amp if t.ndim == 0 else self.amp[:, None]) * mult
        # rebound, so that the nodes' coefficients are freed before the product
        coef = self.resampler.gather(coef, self.weights)
        return _real_kernel_product(self.kernel_t, coef)


def propagate(params: SpaceParams, fh: SpectralProfile, kind: PhaseKind,
              t: float, s_grid) -> RadialProfile:
    """Solution profile S_t f(s) = C int phi_lambda(s) e^(i t psi) fh |c|^-2 dlambda.

    At t = 0 this is exactly the inverse transform.  The spectral grid of
    fh must resolve the multiplier phase (increments <= pi/8 per step).
    """
    kern = PropagatorKernel(params, fh, kind, s_grid, t_max=abs(t))
    return RadialProfile(kern.s_grid, kern.apply(t))


_T_MIN, _T_MAX = 1e-4, 1.0 - 1e-9   # ends of default_t_grid


def default_t_grid(params: SpaceParams, kind: PhaseKind, lam_max: float,
                   n_points: int = 512):
    """Log-spaced grid on [_T_MIN, _T_MAX] inside (0, 1), densified by doubling
    until consecutive increments satisfy dt * psi(lam_max) <= pi/4; past
    2^22 points it gives up with a ResolutionError."""
    if n_points < 2:
        raise ValidationError(f"a t grid needs at least 2 points, got {n_points}")
    psi_max = float(phase(kind, params, lam_max))
    log_ratio = math.log(_T_MIN / _T_MAX)
    n = n_points
    while True:
        # the last increment is the largest; its closed form screens n before
        # any allocation, with a margin far above its rounding error
        dt_last = -_T_MAX * math.expm1(log_ratio / (n - 1))
        if dt_last * psi_max <= math.pi / 4.0 * (1.0 + 1e-6):
            grid = np.geomspace(_T_MIN, _T_MAX, n)
            if float(np.max(np.diff(grid))) * psi_max <= math.pi / 4.0:
                return grid
        if n > 2**22:
            raise ResolutionError(
                f"no t grid of up to {n} points keeps dt * psi(lam_max) <= pi/4 "
                f"(psi(lam_max) = {psi_max:.3g})"
            )
        n *= 2


def maximal_function(params: SpaceParams, fh: SpectralProfile, kind: PhaseKind,
                     t_grid, s_grid) -> RadialProfile:
    """Pointwise max over the t grid of |propagate|; a lower bound for the
    supremum over continuous t in (0, 1).  One kernel serves every time: each
    block of _T_BLOCK times is one real GEMM on the interleaved (re, im) view."""
    t_grid = np.sort(np.atleast_1d(np.asarray(t_grid, dtype=float)))
    if not t_grid.size:
        raise ValidationError("t_grid needs at least one time")
    if np.any((t_grid <= 0) | (t_grid >= 1)):
        raise DomainError("t_grid must lie inside (0, 1)")
    psi_max = abs(float(phase(kind, params, fh.top)))
    dt_max = float(np.max(np.diff(t_grid))) if t_grid.size > 1 else 0.0
    if dt_max * psi_max > math.pi / 4.0:
        raise ResolutionError(
            f"t grid too coarse: dt*psi(lam_max) = {dt_max * psi_max:.3g} > pi/4"
        )
    kern = PropagatorKernel(params, fh, kind, s_grid, t_max=float(t_grid[-1]))
    best = np.zeros(kern.s_grid.size)
    for a in range(0, t_grid.size, _T_BLOCK):
        block = np.abs(kern.apply(t_grid[a:a + _T_BLOCK]))
        np.maximum(best, block.max(axis=1), out=best)
    return RadialProfile(kern.s_grid, best)
