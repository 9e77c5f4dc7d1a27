"""Dispersive phase functions, the propagator, the discretized maximal
function, and the low/high frequency split.

The six named phase variants (fractional Schrodinger, Boussinesq, Beam,
each with a shifted counterpart dropping the spectral gap) come with
their growth exponents (delta1, delta2): |psi'| <~ lambda^(delta1-1)
below 1, |psi'| <~ lambda^(delta2-1) and |psi''| comparable to
lambda^(delta2-2) above 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .bumps import chi_lowpass
from .errors import DomainError, ResolutionError, ValidationError
from .profiles import RadialProfile, SpectralProfile
from .space import SpaceParams
from .spherical import phi_matrix
from .special import plancherel_density
from .transform import _interp, inversion_constant, spectral_quadrature_nodes

__all__ = [
    "PhaseKind",
    "phase",
    "phase_derivs",
    "verify_phase_asymptotics",
    "PhaseAsymptoticsReport",
    "propagate",
    "maximal_function",
    "littlewood_paley_split",
    "default_t_grid",
]


@dataclass(frozen=True)
class PhaseKind:
    """A dispersive multiplier phase psi(lambda) with its growth exponents."""

    name: str
    a: float | None = None
    delta1: float = 2.0
    delta2: float = 2.0
    fn: Callable | None = field(default=None, compare=False)

    _NAMES = ("frac", "frac-shifted", "boussinesq", "boussinesq-shifted",
              "beam", "beam-shifted", "generic")

    def __post_init__(self):
        if self.name not in self._NAMES:
            raise ValidationError(f"unknown phase kind {self.name!r}")
        if self.name in ("frac", "frac-shifted"):
            if self.a is None or self.a <= 1.0:
                raise ValidationError("fractional variants require a > 1")
        if self.name == "generic" and self.fn is None:
            raise ValidationError("generic phase requires a callable")

    # --- constructors -----------------------------------------------------
    @classmethod
    def frac(cls, a: float) -> "PhaseKind":
        return cls("frac", a=a, delta1=2.0, delta2=a)

    @classmethod
    def frac_shifted(cls, a: float) -> "PhaseKind":
        return cls("frac-shifted", a=a, delta1=a, delta2=a)

    @classmethod
    def boussinesq(cls) -> "PhaseKind":
        return cls("boussinesq", delta1=2.0, delta2=2.0)

    @classmethod
    def boussinesq_shifted(cls) -> "PhaseKind":
        return cls("boussinesq-shifted", delta1=1.0, delta2=2.0)

    @classmethod
    def beam(cls) -> "PhaseKind":
        return cls("beam", delta1=2.0, delta2=2.0)

    @classmethod
    def beam_shifted(cls) -> "PhaseKind":
        return cls("beam-shifted", delta1=4.0, delta2=2.0)

    @classmethod
    def generic(cls, delta1: float, delta2: float, fn: Callable) -> "PhaseKind":
        return cls("generic", delta1=delta1, delta2=delta2, fn=fn)

    @classmethod
    def from_selector(cls, selector: str) -> "PhaseKind":
        """Parse the CLI selector: frac:a, frac-shifted:a, boussinesq,
        boussinesq-shifted, beam, beam-shifted."""
        head, _, tail = selector.partition(":")
        if head in ("frac", "frac-shifted"):
            if not tail:
                raise ValidationError(f"{head} selector needs :a, e.g. {head}:2")
            a = float(tail)
            return cls.frac(a) if head == "frac" else cls.frac_shifted(a)
        if tail:
            raise ValidationError(f"selector {selector!r} takes no parameter")
        table = {
            "boussinesq": cls.boussinesq,
            "boussinesq-shifted": cls.boussinesq_shifted,
            "beam": cls.beam,
            "beam-shifted": cls.beam_shifted,
        }
        if head not in table:
            raise ValidationError(f"unknown equation selector {selector!r}")
        return table[head]()


def phase(kind: PhaseKind, params: SpaceParams, lam):
    """psi(lambda) for the given variant (vectorized over lambda >= 0)."""
    lam = np.asarray(lam, dtype=float)
    q2 = params.q2_over_4
    u = lam * lam + q2
    if kind.name == "frac":
        out = u ** (0.5 * kind.a)
    elif kind.name == "frac-shifted":
        out = lam**kind.a
    elif kind.name == "boussinesq":
        out = np.sqrt(u) * np.sqrt(u + 1.0)
    elif kind.name == "boussinesq-shifted":
        out = lam * np.sqrt(lam * lam + 1.0)
    elif kind.name == "beam":
        out = np.sqrt(1.0 + u * u)
    elif kind.name == "beam-shifted":
        out = np.sqrt(lam**4 + 1.0)
    else:
        out = np.asarray(kind.fn(lam), dtype=float)
    return out if out.ndim else float(out)


def phase_derivs(kind: PhaseKind, params: SpaceParams, lam):
    """(psi', psi'') by closed-form differentiation; generic variants fall
    back to five-point central differences."""
    lam = np.asarray(lam, dtype=float)
    if np.any(lam <= 0):
        raise DomainError("phase_derivs requires lambda > 0")
    q2 = params.q2_over_4
    u = lam * lam + q2
    if kind.name == "frac":
        a = kind.a
        d1 = a * lam * u ** (0.5 * a - 1.0)
        d2 = a * u ** (0.5 * a - 1.0) + a * (a - 2.0) * lam**2 * u ** (0.5 * a - 2.0)
    elif kind.name == "frac-shifted":
        a = kind.a
        d1 = a * lam ** (a - 1.0)
        d2 = a * (a - 1.0) * lam ** (a - 2.0)
    elif kind.name == "boussinesq":
        v = u * (u + 1.0)
        d1 = lam * (2.0 * u + 1.0) / np.sqrt(v)
        d2 = (2.0 * u + 1.0) / np.sqrt(v) - lam**2 * v ** (-1.5)
    elif kind.name == "boussinesq-shifted":
        w = lam * lam + 1.0
        d1 = (2.0 * lam * lam + 1.0) / np.sqrt(w)
        d2 = lam * (2.0 * lam * lam + 3.0) * w ** (-1.5)
    elif kind.name == "beam":
        r = np.sqrt(1.0 + u * u)
        d1 = 2.0 * lam * u / r
        d2 = 2.0 * u / r + 4.0 * lam**2 / r**3
    elif kind.name == "beam-shifted":
        r = np.sqrt(lam**4 + 1.0)
        d1 = 2.0 * lam**3 / r
        d2 = (2.0 * lam**6 + 6.0 * lam**2) / r**3
    else:
        h = np.maximum(1e-6 * np.maximum(lam, 1.0), 1e-9)
        f = lambda x: np.asarray(kind.fn(x), dtype=float)
        d1 = (f(lam - 2 * h) - 8 * f(lam - h) + 8 * f(lam + h) - f(lam + 2 * h)) / (12 * h)
        d2 = (-f(lam - 2 * h) + 16 * f(lam - h) - 30 * f(lam)
              + 16 * f(lam + h) - f(lam + 2 * h)) / (12 * h * h)
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


def verify_phase_asymptotics(kind: PhaseKind, params: SpaceParams,
                             n_low: int = 200, n_high: int = 400) -> PhaseAsymptoticsReport:
    """Sweep the derivative envelopes on (1e-3, 1) and [1, 1e4] log grids."""
    lam_low = np.logspace(-3, 0, n_low, endpoint=False)
    lam_high = np.logspace(0, 4, n_high)
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


class PropagatorKernel:
    """Quadrature kernel s x lambda for one (space, spectrum, s-grid) triple.

    Built once, then applied for many times t: the t-dependence is only
    the unimodular multiplier e^(i t psi(lambda)) at the lambda nodes.
    """

    def __init__(self, params: SpaceParams, fh: SpectralProfile, kind: PhaseKind,
                 s_grid, t_max: float = 1.0):
        self.params = params
        self.kind = kind
        self.s_grid = np.atleast_1d(np.asarray(s_grid, dtype=float))
        s_rate = float(np.max(self.s_grid))
        lam_hi = (fh.support_hint[1] if fh.support_hint is not None
                  else float(fh.lambda_grid[-1]))
        dpsi = abs(phase_derivs(kind, params, max(lam_hi, 1e-3))[0])
        nodes, weights = spectral_quadrature_nodes(fh, s_rate, t_max * dpsi)
        self.nodes = nodes
        self.fh_nodes = _interp(fh.lambda_grid, fh.values)(nodes)
        self.psi_nodes = phase(kind, params, nodes)
        self.weight = weights * plancherel_density(params, nodes) * inversion_constant(params)
        self.kernel_t = phi_matrix(params, nodes, self.s_grid).T  # (n_s, n_nodes)

    def apply(self, t: float) -> np.ndarray:
        mult = np.exp(1j * t * self.psi_nodes)
        return self.kernel_t @ (self.weight * self.fh_nodes * mult)


def _check_fh_phase_resolution(params: SpaceParams, fh: SpectralProfile,
                               kind: PhaseKind, t: float) -> None:
    lam_hi = (fh.support_hint[1] if fh.support_hint is not None
              else float(fh.lambda_grid[-1]))
    dpsi = abs(phase_derivs(kind, params, max(lam_hi, 1e-3))[0])
    step = fh.spacing
    if abs(t) * dpsi * step > math.pi / 8.0:
        raise ResolutionError(
            f"spectral grid step {step:.3g} does not resolve the multiplier "
            f"phase: |t| psi' dlambda = {abs(t) * dpsi * step:.3g} > pi/8"
        )


def propagate(params: SpaceParams, fh: SpectralProfile, kind: PhaseKind,
              t: float, s_grid) -> RadialProfile:
    """Solution profile S_t f(s) = C int phi_lambda(s) e^(i t psi) fh |c|^-2 dlambda.

    At t = 0 this is exactly the inverse transform.  The spectral grid of
    fh must resolve the multiplier phase (increments <= pi/8 per step).
    """
    _check_fh_phase_resolution(params, fh, kind, t)
    kern = PropagatorKernel(params, fh, kind, s_grid, t_max=abs(t))
    return RadialProfile(kern.s_grid, kern.apply(t))


def default_t_grid(params: SpaceParams, kind: PhaseKind, lam_max: float,
                   n_points: int = 512, t_min: float = 1e-4,
                   t_max: float = 1.0 - 1e-9):
    """Log-spaced grid inside (0, 1), densified until consecutive
    increments satisfy dt * psi(lam_max) <= pi/4."""
    psi_max = float(phase(kind, params, lam_max))
    n = n_points
    while True:
        grid = np.geomspace(t_min, t_max, n)
        if float(np.max(np.diff(grid))) * psi_max <= math.pi / 4.0 or n > 2**22:
            return grid
        n *= 2


def maximal_function(params: SpaceParams, fh: SpectralProfile, kind: PhaseKind,
                     t_grid, s_grid) -> RadialProfile:
    """Pointwise max over the t grid of |propagate|; a lower bound for the
    supremum over continuous t in (0, 1)."""
    t_grid = np.sort(np.atleast_1d(np.asarray(t_grid, dtype=float)))
    if np.any((t_grid <= 0) | (t_grid >= 1)):
        raise DomainError("t_grid must lie inside (0, 1)")
    lam_hi = (fh.support_hint[1] if fh.support_hint is not None
              else float(fh.lambda_grid[-1]))
    psi_max = abs(float(phase(kind, params, lam_hi)))
    dt_max = float(np.max(np.diff(t_grid))) if t_grid.size > 1 else 0.0
    if dt_max * psi_max > math.pi / 4.0:
        raise ResolutionError(
            f"t grid too coarse: dt*psi(lam_max) = {dt_max * psi_max:.3g} > pi/4"
        )
    _check_fh_phase_resolution(params, fh, kind, float(t_grid[-1]))
    kern = PropagatorKernel(params, fh, kind, s_grid, t_max=float(t_grid[-1]))
    best = np.zeros(kern.s_grid.size)
    for t in t_grid:
        np.maximum(best, np.abs(kern.apply(float(t))), out=best)
    return RadialProfile(kern.s_grid, best)


def maximal_refinement_increment(params: SpaceParams, fh: SpectralProfile,
                                 kind: PhaseKind, t_grid, s_grid) -> float:
    """Sup-norm increase of the discretized maximal function when the time
    grid is refined by interleaving midpoints; bounds the discretization
    deficit of the grid supremum (which is a lower bound of the true sup)."""
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    coarse = maximal_function(params, fh, kind, t_grid, s_grid)
    mids = 0.5 * (t_grid[1:] + t_grid[:-1])
    fine = maximal_function(params, fh, kind,
                            np.sort(np.concatenate([t_grid, mids])), s_grid)
    return float(np.max(fine.values - coarse.values))


def littlewood_paley_split(fh: SpectralProfile) -> tuple[SpectralProfile, SpectralProfile]:
    """Split into low (support in [0, 2)) and high (support in (1, inf))
    parts along the dyadic partition; low + high reconstructs fh exactly
    (bit for bit) on the grid.

    The part carrying the larger cutoff weight is computed by the product
    and the other as the remainder: the remainder is then exact by the
    Sterbenz lemma, so the reconstruction sum rounds to fh itself.
    """
    chi = chi_lowpass(fh.lambda_grid)
    big = chi >= 0.5
    low_vals = np.where(big, fh.values * chi, fh.values - fh.values * (1.0 - chi))
    high_vals = np.where(big, fh.values - fh.values * chi, fh.values * (1.0 - chi))
    lo_hint = hi_hint = None
    if fh.support_hint is not None:
        lo, hi = fh.support_hint
        lo_hint = (lo, min(hi, 2.0)) if lo < 2.0 else None
        hi_hint = (max(lo, 1.0), hi) if hi > 1.0 else None
    low = SpectralProfile(fh.lambda_grid, low_vals,
                          lo_hint if lo_hint and lo_hint[0] < lo_hint[1] else None)
    high = SpectralProfile(fh.lambda_grid, high_vals,
                           hi_hint if hi_hint and hi_hint[0] < hi_hint[1] else None)
    return low, high
