"""Dyadic window integrals and the oscillatory-sum bound they satisfy.

The object of study is, for k >= 1,

    I_k(s, s') = 2^(k/2) | int_{1/2}^2 e^{i theta(lambda)} eta(lambda) dlambda |,
    theta(lambda) = 2^k lambda (s'-s) + d psi(2^k lambda),

whose sum over k is bounded by |s-s'|^(-1/2).  The phases reach
d * 2^(k delta2), far beyond what any fixed grid resolves, so the
quadrature is a hybrid: adaptive bisection isolates the (single)
stationary point, short segments with small phase span integrate
directly on phase-resolved Gauss-Legendre panels, and long
rapidly-oscillating segments use Levin collocation, which needs the
phase only through theta' and the endpoint values.

Phases are always evaluated as differences against a reference point
through expm1/log1p chains, never as raw values, so segment-internal
coherence survives even when theta itself is ~1e15.  Beyond
d*2^(k delta2) ~ 1e14 the float64 representation of the *global* phase
difference saturates and inter-segment coherence degrades by O(1e-16 *
phase) radians; the magnitudes (all the bounds below are magnitude
bounds) remain correct.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bumps import bump_unit, eta_dyadic
from .dispersive import PhaseKind, phase_derivs
from .errors import DomainError, ResolutionError, ValidationError
from .quadrature import panel_rule
from .space import SpaceParams

__all__ = [
    "WindowIntegralResult",
    "window_integral",
    "dyadic_sum_check",
    "DyadicSumReport",
    "van_der_corput_check",
    "VanDerCorputReport",
    "BumpWindow",
    "proof_constants",
    "sample_claim_triples",
    "eta_mass",
]


# ---------------------------------------------------------------------------
# stable phase differences
# ---------------------------------------------------------------------------

def phase_diff(kind: PhaseKind, params: SpaceParams, x, x0):
    """psi(x) - psi(x0), evaluated without cancellation for x near x0;
    vectorized over x and x0 (x0 > 0)."""
    x = np.asarray(x, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    if np.any(x0 <= 0):
        raise DomainError("phase_diff requires x0 > 0")
    out = kind.entry.diff(x0 * x0 + kind.gap(params), (x - x0) * (x + x0), kind.a)
    return out if out.ndim else float(out)


class _WindowPhase:
    """theta(lambda) of one dyadic window, exposed through differences."""

    def __init__(self, kind: PhaseKind, params: SpaceParams, k: int,
                 delta_s: float, d: float):
        self.kind = kind
        self.params = params
        self.scale = 2.0**k
        self.delta_s = delta_s
        self.d = d

    def diff(self, lam, lam0: float):
        """theta(lam) - theta(lam0), vectorized over lam."""
        lam = np.asarray(lam, dtype=float)
        out = self.scale * (lam - lam0) * self.delta_s
        if self.d != 0.0:
            out = out + self.d * phase_diff(self.kind, self.params,
                                            self.scale * lam, self.scale * lam0)
        return out

    def deriv(self, lam):
        lam = np.asarray(lam, dtype=float)
        out = self.scale * self.delta_s * np.ones_like(lam)
        if self.d != 0.0:
            d1, _ = phase_derivs(self.kind, self.params, self.scale * lam)
            out = out + self.d * self.scale * d1
        return out


# ---------------------------------------------------------------------------
# hybrid oscillatory quadrature
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _cheb(n: int):
    """Chebyshev points on [-1, 1] (descending) and differentiation matrix."""
    j = np.arange(n + 1)
    x = np.cos(math.pi * j / n)
    c = np.ones(n + 1)
    c[0] = c[-1] = 2.0
    c *= (-1.0) ** j
    dx = x[:, None] - x[None, :]
    d_mat = np.outer(c, 1.0 / c) / (dx + np.eye(n + 1))
    d_mat -= np.diag(d_mat.sum(axis=1))
    return x, d_mat

_PHASE_SMALL = 48.0      # total-phase threshold below which direct GL is used
_LEVIN_N1, _LEVIN_N2 = 14, 24
_MAX_DEPTH = 60


def _direct_leaf(g, ph: _WindowPhase, a: float, b: float, lam0: float,
                 tol: float):
    """Composite GL on a segment with modest phase span, with panels
    refined until two levels agree; the amplitude g (a flat-ended bump)
    is what sets the panel count, not the phase."""
    rate = float(np.max(np.abs(ph.deriv(np.array([a, 0.5 * (a + b), b]))))) + 1e-12

    def eval_at(n_min: int) -> complex:
        nodes, weights = panel_rule(a, b, rate, order=8, min_panels=n_min)
        return complex(np.sum(weights * g(nodes) * np.exp(1j * ph.diff(nodes, lam0))))

    n_min = 4
    val = eval_at(n_min)
    for _ in range(6):
        val2 = eval_at(2 * n_min)
        if abs(val2 - val) <= max(tol, 1e-15):
            return val2, abs(val2 - val)
        val, n_min = val2, 2 * n_min
    return val, abs(val2 - val)


def _levin_leaf(g, ph: _WindowPhase, a: float, b: float, n: int, rot_ab):
    """Levin collocation on [a, b]; rot_ab holds e^{i theta} at a and at
    b, with theta referenced to the caller's lam0.  Raises LinAlgError
    when the collocation system is singular."""
    x, d_mat = _cheb(n)
    lam = 0.5 * (b - a) * x + 0.5 * (a + b)
    sys = d_mat * (2.0 / (b - a)) + 1j * np.diag(ph.deriv(lam))
    p = np.linalg.solve(sys, g(lam).astype(complex))
    # x descending: lam[0] = b, lam[-1] = a
    return p[0] * rot_ab[1] - p[-1] * rot_ab[0]


def _osc_segment(g, ph: _WindowPhase, a: float, b: float, lam0: float,
                 tol: float, depth: int):
    """Returns (value, error_estimate) of int_a^b g e^{i theta}, with the
    phase referenced to lam0."""
    probe = np.linspace(a, b, 9)
    tp = ph.deriv(probe)
    span = float(np.max(np.abs(tp))) * (b - a)
    if span <= _PHASE_SMALL or depth >= _MAX_DEPTH:
        return _direct_leaf(g, ph, a, b, lam0, tol)
    if np.all(tp > 0) or np.all(tp < 0):
        rot_ab = np.exp(1j * ph.diff(np.array([a, b]), lam0))
        try:
            v1 = _levin_leaf(g, ph, a, b, _LEVIN_N1, rot_ab)
            v2 = _levin_leaf(g, ph, a, b, _LEVIN_N2, rot_ab)
        except np.linalg.LinAlgError:
            pass        # a singular system fails like two disagreeing orders
        else:
            if abs(v1 - v2) <= tol:
                return v2, abs(v1 - v2)
    mid = 0.5 * (a + b)
    lv, le = _osc_segment(g, ph, a, mid, mid, tol * 0.6, depth + 1)
    rv, re_ = _osc_segment(g, ph, mid, b, mid, tol * 0.6, depth + 1)
    # re-reference both halves from their midpoint to lam0
    shift = np.exp(1j * float(ph.diff(mid, lam0)))
    return shift * (lv + rv), le + re_


def oscillatory_integral(g, ph: _WindowPhase, a: float, b: float,
                         tol: float = 1e-10):
    """int_a^b g(lambda) e^{i theta(lambda)} dlambda up to a unimodular
    factor e^{-i theta(a)}; returns (value, error_estimate)."""
    return _osc_segment(g, ph, a, b, a, tol, 0)


# ---------------------------------------------------------------------------
# window integrals
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def eta_mass() -> float:
    """int eta over (1/2, 2), the scale of the trivial bound."""
    nodes, weights = panel_rule(0.5, 2.0, 64.0)
    return float(np.sum(weights * eta_dyadic(nodes)))


@dataclass
class WindowIntegralResult:
    """One dyadic window integral I_k(s, s') with its quadrature error."""

    k: int
    value: float
    quadrature_error: float


def window_integral(kind: PhaseKind, params: SpaceParams, k: int,
                    s: float, s_prime: float, d: float) -> WindowIntegralResult:
    """I_k(s, s') = 2^(k/2) |int_{1/2}^2 e^{i(2^k lam (s'-s) + d psi(2^k lam))} eta|.

    d is the linearizing time difference t(s') - t(s), normalized to
    [0, 1); d = 0 degenerates to a pure linear phase (used as an oracle
    cross-check).  Raises if halving the tolerance moves the value by
    more than 1e-6 relative.
    """
    if k < 1:
        raise ValidationError("window index k must be >= 1")
    if not 0.0 <= d < 1.0:
        raise DomainError("the normalized time difference must satisfy 0 <= d < 1")
    ph = _WindowPhase(kind, params, k, s_prime - s, d)
    v1, _ = oscillatory_integral(eta_dyadic, ph, 0.5, 2.0, tol=1e-9)
    v2, est2 = oscillatory_integral(eta_dyadic, ph, 0.5, 2.0, tol=1e-9 / 16.0)
    scale = 2.0 ** (0.5 * k)
    change = abs(v1 - v2)
    # below 1e-3 of the eta mass the integral is dominated by cancellation;
    # demand absolute accuracy 1e-9 * mass there instead of 1e-6 relative
    floor = 1e-3 * eta_mass()
    if change > 1e-6 * max(abs(v2), floor):
        raise ResolutionError(
            f"window integral k={k} unresolved: refinement moved the value "
            f"by {change:.2e} (|I| = {abs(v2):.2e})"
        )
    return WindowIntegralResult(k=k, value=scale * abs(v2),
                                quadrature_error=scale * change)


def proof_constants(kind: PhaseKind, params: SpaceParams) -> dict:
    """The constructive constants C1, C4, C5, C6 of the summation argument.

    C1 bounds |psi'| / lambda^(delta2-1) on [1, inf) (measured on a log
    sweep), C4 = max lambda^(delta2-1) on [1/2, 2], then
    C5 = 1/(2 max(C1 C4, 2)) and C6 = C5^(1/(delta2-1)).
    """
    lam = np.logspace(0.0, 4.0, 400)
    d1, _ = phase_derivs(kind, params, lam)
    c1 = float(np.max(np.abs(d1) / lam ** (kind.delta2 - 1.0)))
    c4 = float(max(0.5 ** (kind.delta2 - 1.0), 2.0 ** (kind.delta2 - 1.0)))
    c5 = 1.0 / (2.0 * max(c1 * c4, 2.0))
    c6 = c5 ** (1.0 / (kind.delta2 - 1.0))
    return {"C1": c1, "C4": c4, "C5": c5, "C6": c6}


def sample_claim_triples(kind: PhaseKind, params: SpaceParams, n: int,
                         seed: int = 0, annulus: tuple[float, float] = (2.0, 4.0),
                         d_range: tuple[float, float] = (0.01, 0.9)) -> np.ndarray:
    """(s, s', d) triples stratified over the three regimes of the
    summation argument: |s-s'| below d^(1/delta2)/C6, between it and 1,
    and at least 1."""
    rng = np.random.default_rng(seed)
    c6 = proof_constants(kind, params)["C6"]
    lo, hi = annulus
    out = np.empty((n, 3))
    for i in range(n):
        case = i % 3
        d = math.exp(rng.uniform(math.log(d_range[0]), math.log(d_range[1])))
        thr = min(d ** (1.0 / kind.delta2) / c6, hi - lo - 1e-3)
        if case == 0:
            gap = rng.uniform(1e-3, max(thr, 2e-3))
        elif case == 1:
            gap = rng.uniform(min(thr, 0.999), 1.0)
        else:
            gap = rng.uniform(1.0, hi - lo)
        s = rng.uniform(lo, hi - gap)
        out[i] = (s, s + gap, d)
    return out


@dataclass
class DyadicSumReport:
    """Per-triple normalized sums and the stability verdict."""

    kind_name: str
    k_levels: int
    rows: np.ndarray            # columns: s, s', d, normalized sum at K, at 2K
    max_normalized: float
    max_rel_change: float
    passed: bool


def dyadic_sum_check(kind: PhaseKind, params: SpaceParams, sample_spec,
                     big_k: int = 20) -> DyadicSumReport:
    """|s-s'|^(1/2) sum_{k<=K} I_k per triple; passes iff the maximum is
    finite and K -> 2K changes no triple's sum by more than 1%."""
    triples = np.atleast_2d(np.asarray(sample_spec, dtype=float))
    if triples.shape[1] != 3:
        raise ValidationError("sample_spec must be (n, 3): columns s, s', d")
    rows = np.empty((triples.shape[0], 5))
    for i, (s, sp, d) in enumerate(triples):
        if not 0.0 < d < 1.0:
            raise DomainError("triples must have 0 < d < 1")
        if s == sp:
            raise DomainError("triples must have s != s'")
        vals = np.array([
            window_integral(kind, params, k, s, sp, d).value
            for k in range(1, 2 * big_k + 1)
        ])
        root = math.sqrt(abs(sp - s))
        rows[i] = (s, sp, d, root * vals[:big_k].sum(), root * vals.sum())
    rel_change = np.abs(rows[:, 4] - rows[:, 3]) / np.maximum(rows[:, 4], 1e-300)
    max_norm = float(np.max(rows[:, 4]))
    passed = bool(np.isfinite(max_norm) and np.max(rel_change) < 0.01)
    return DyadicSumReport(
        kind_name=kind.name, k_levels=big_k, rows=rows,
        max_normalized=max_norm, max_rel_change=float(np.max(rel_change)),
        passed=passed,
    )


# ---------------------------------------------------------------------------
# van der Corput sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BumpWindow:
    """A smooth bump ζ((xi - center)/halfwidth), unit maximum."""

    center: float = 0.0
    halfwidth: float = 1.0

    def __call__(self, xi):
        return bump_unit((np.asarray(xi, dtype=float) - self.center) / self.halfwidth)

    @property
    def norm_factor(self) -> float:
        """||zeta||_inf + ||zeta'||_1 (= 1 + 2 for a unimodal unit bump)."""
        return 3.0

    @property
    def support(self) -> tuple[float, float]:
        return (self.center - self.halfwidth, self.center + self.halfwidth)


@dataclass
class VanDerCorputReport:
    """Normalized second-derivative-test values across the curvature grid."""

    curvatures: np.ndarray
    normalized: np.ndarray      # M^(1/2) |int e^{i M xi^2} zeta| / norm_factor
    spread: float               # max/min of the normalized values
    passed: bool


class _QuadraticPhase:
    """theta = M xi^2 wrapped in the _WindowPhase interface."""

    def __init__(self, m: float):
        self.m = m

    def diff(self, xi, xi0: float):
        xi = np.asarray(xi, dtype=float)
        return self.m * (xi - xi0) * (xi + xi0)

    def deriv(self, xi):
        return 2.0 * self.m * np.asarray(xi, dtype=float)


def van_der_corput_check(curvatures, window: BumpWindow | None = None,
                         spread_cap: float = 20.0) -> VanDerCorputReport:
    """Evaluate M^(1/2) |int e^{i M xi^2} zeta(xi) dxi| over the curvature
    grid; passes iff one constant bounds all values (spread below the cap)."""
    curvatures = np.atleast_1d(np.asarray(curvatures, dtype=float))
    if np.any(curvatures < 10.0) or np.any(curvatures > 1e5):
        raise DomainError("curvature grid must lie in [10, 1e5]")
    window = window or BumpWindow()
    lo, hi = window.support
    vals = np.empty(curvatures.size)
    for i, m in enumerate(curvatures):
        ph = _QuadraticPhase(float(m))
        v, _ = _osc_segment(window, ph, lo, hi, lo, 1e-10, 0)
        vals[i] = math.sqrt(m) * abs(v) / window.norm_factor
    spread = float(np.max(vals) / max(np.min(vals), 1e-300))
    return VanDerCorputReport(
        curvatures=curvatures, normalized=vals, spread=spread,
        passed=bool(spread < spread_cap),
    )
