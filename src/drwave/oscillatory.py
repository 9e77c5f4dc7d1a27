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

The bisection runs breadth first over many integrals at once (every
window of a block of triples in `dyadic_sum_check`): each round probes
all live segments in one `phase_derivs` call, solves the Levin systems
of each order as one stacked `np.linalg.solve`, and sums the direct
leaves' panel rules in one pass.  A window's two refinement tolerances
ride that one worklist as columns: nothing but the leaf tests reads tol,
so the loose tolerance's tree is a subtree of the tight one's and is
read off it, segment for segment, rather than solved again.

Phases are always evaluated as differences against a reference point
through expm1/log1p chains, never as raw values, so segment-internal
coherence survives even when theta itself is ~1e15.  Beyond
d*2^(k delta2) ~ 1e14 the float64 representation of the *global* phase
difference saturates and inter-segment coherence degrades by O(1e-16 *
phase) radians; the magnitudes (all the bounds below are magnitude
bounds) remain correct.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .bumps import eta_dyadic
from .dispersive import PhaseKind, phase_derivs
from .errors import DomainError, ResolutionError, ValidationError
from .quadrature import panel_rules
from .space import SpaceParams
from .special import _cis

__all__ = [
    "WindowIntegralResult",
    "window_integral",
    "dyadic_sum_check",
    "DyadicSumReport",
    "proof_constants",
    "sample_claim_triples",
    "ETA_MASS",
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
    gap = kind.gap(params)
    out = kind.entry.diff(x0 * x0 + gap, x * x + gap, (x - x0) * (x + x0), kind.a)
    return out if out.ndim else float(out)


class _WindowPhases:
    """theta_r(lambda) = 2^k lambda (s'-s) + d psi(2^k lambda) of many dyadic
    windows r, exposed through differences; the window index r broadcasts
    against lambda."""

    def __init__(self, kind: PhaseKind, params: SpaceParams, k, delta_s, d):
        self.kind = kind
        self.params = params
        self.scale = 2.0 ** np.asarray(k, dtype=float)
        self.delta_s = np.asarray(delta_s, dtype=float)
        self.d = np.asarray(d, dtype=float)

    def diff(self, r, lam, lam0):
        """theta_r(lam) - theta_r(lam0)."""
        scale = self.scale[r]
        return (scale * (lam - lam0) * self.delta_s[r]
                + self.d[r] * phase_diff(self.kind, self.params, scale * lam, scale * lam0))

    def deriv(self, r, lam):
        scale = self.scale[r]
        d1, _ = phase_derivs(self.kind, self.params, scale * lam)
        return scale * self.delta_s[r] + self.d[r] * scale * d1


# ---------------------------------------------------------------------------
# hybrid oscillatory quadrature
# ---------------------------------------------------------------------------

@functools.cache
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
_ANNULUS, _D_RANGE = (2.0, 4.0), (0.01, 0.9)   # where sample_claim_triples draws s, s', d


def _panel_sums(g, ph, root, a, b, lam0, rate, n_min: int):
    """Composite GL sums of g e^{i(theta - theta(lam0))} on every segment,
    at the panel count panel_rule gives each; returns the sums and the
    node counts."""
    nodes, weights, counts = panel_rules(a, b, rate, n_min)
    seg = np.repeat(np.arange(a.size), counts)
    terms = weights * g(nodes) * _cis(ph.diff(root[seg], nodes, lam0[seg]))
    return np.add.reduceat(terms, np.cumsum(counts) - counts), counts


def _direct_leaves(g, ph, root, a, b, lam0, tol):
    """Composite GL on segments with modest phase span, with the minimum
    panel count doubled until two levels agree.  tol is (n, m): column j
    of a segment takes the first level that moved it by at most
    tol[:, j], and doubling goes on while any column has not.  A segment
    whose phase already sets more panels than the doubled minimum is
    final: doubling lays out the same rule again, so it closes at the
    value it has, moved by 0, and only the others are summed again.
    Raises ResolutionError if six doublings leave a segment unresolved."""
    mid = 0.5 * (a + b)
    rate = np.max(np.abs(ph.deriv(root[:, None], np.stack([a, mid, b], axis=1))),
                  axis=1) + 1e-12
    out = np.empty(tol.shape, dtype=complex)
    live, pending = np.arange(a.size), np.ones(tol.shape, bool)
    n_min = 4
    val, counts = _panel_sums(g, ph, root, a, b, lam0, rate, n_min)
    for _ in range(6):
        n_min *= 2
        # counts are nodes: panel_rules puts 8 on each panel
        redo = counts < 8 * n_min
        val2 = val.copy()
        val2[redo], counts[redo] = _panel_sums(
            g, ph, *(v[live[redo]] for v in (root, a, b, lam0, rate)), n_min)
        moved = np.abs(val2 - val)
        conv = pending & (moved[:, None] <= np.maximum(tol[live], 1e-15))
        r, c = np.nonzero(conv)
        out[live[r], c] = val2[r]
        pending &= ~conv
        keep = pending.any(axis=1)
        live, val, counts, pending, moved = (
            live[keep], val2[keep], counts[keep], pending[keep], moved[keep])
        if not live.size:
            return out
    raise ResolutionError(
        f"{live.size} direct segment(s) unresolved after doubling to {n_min} panels: "
        f"the last doubling moved the value by up to {np.max(moved):.2e}"
    )


def _solve_stacked(sys, rhs):
    """Solve sys[j] p[j] = rhs[j] in one stacked call.  If a system is
    singular, solve each alone; returns p (0 where singular) and the
    singular mask."""
    try:
        return np.linalg.solve(sys, rhs[..., None])[..., 0], np.zeros(len(rhs), bool)
    except np.linalg.LinAlgError:
        p = np.zeros_like(rhs)
        singular = np.zeros(len(rhs), bool)
        for j in range(len(rhs)):
            try:
                p[j] = np.linalg.solve(sys[j], rhs[j])
            except np.linalg.LinAlgError:
                singular[j] = True
        return p, singular


def _levin_leaves(g, ph, root, a, b, lam0, tol):
    """Levin collocation at orders _LEVIN_N1 and _LEVIN_N2 on every
    segment, each order one stacked solve.  Returns the higher order's
    values and, per column of the (n, m) tol, whether the two orders agree
    within it; a singular system fails like two disagreeing orders."""
    rot_a = _cis(ph.diff(root, a, lam0))
    rot_b = _cis(ph.diff(root, b, lam0))
    ok = np.ones(a.size, bool)
    vals = []
    for n in (_LEVIN_N1, _LEVIN_N2):
        x, d_mat = _cheb(n)
        lam = (0.5 * (b - a))[:, None] * x + (0.5 * (a + b))[:, None]
        sys = np.zeros((a.size, n + 1, n + 1), dtype=complex)
        np.multiply(d_mat, (2.0 / (b - a))[:, None, None], out=sys.real)
        diag = np.arange(n + 1)
        sys.imag[:, diag, diag] = ph.deriv(root[:, None], lam)
        p, singular = _solve_stacked(sys, g(lam).astype(complex))
        ok &= ~singular
        # x descending: lam[:, 0] = b, lam[:, -1] = a
        vals.append(p[:, 0] * rot_b - p[:, -1] * rot_a)
    return vals[1], ok[:, None] & (np.abs(vals[0] - vals[1])[:, None] <= tol)


def _integrate(g, ph, a, b, tol):
    """int_{a_r}^{b_r} g(lambda) e^{i theta_r(lambda)} dlambda for every
    root r and every column j of the (n, m) tol, up to the unimodular
    factor e^{-i theta_r(a_r)}; returns (n, m).

    A breadth-first worklist of segments, each round taking every live
    one at once.  A segment whose phase span over its 9-point probe is at
    most _PHASE_SMALL, or that lies _MAX_DEPTH bisections deep, is a
    direct leaf.  One whose theta' keeps its sign on the probe is a Levin
    leaf for the columns where the two orders agree within that column's
    tol.  Neither the probe nor the values depend on tol, so a looser
    column's tree is a subtree of a tighter one's: the tolerances ride one
    worklist as columns, each segment carrying the mask of columns still
    open on it, and a segment is bisected while any is.  Both halves are
    referenced to the midpoint and get tol * 0.6.  Each segment carries
    mult, the rotation e^{i(theta(lam0) - theta(a_r))} from its reference
    point lam0 back to its root's.  Each column's leaves are added in
    the order a worklist at that column's tol alone adds them, so the
    column is that worklist's value bit for bit.  A probe theta' that is
    not finite would never close its segment, so it raises DomainError.
    """
    root = np.arange(a.size)
    lam0 = a
    mult = np.ones(a.size, dtype=complex)
    out = np.zeros(tol.shape, dtype=complex)
    open_ = np.ones(tol.shape, bool)
    depth = 0
    while root.size:
        # psi' past the double range makes theta' inf; psi' grows with
        # lambda, so a probe finite up to its last point b keeps every later
        # call on the segment finite
        with np.errstate(over="ignore"):
            tp = ph.deriv(root[:, None], np.linspace(a, b, 9, axis=1))
        if not np.all(np.isfinite(tp)):
            raise DomainError("the phase derivative is not finite on the integration range")
        direct = np.max(np.abs(tp), axis=1) * (b - a) <= _PHASE_SMALL
        if depth >= _MAX_DEPTH:
            direct[:] = True
        closed = np.zeros(open_.shape, bool)
        vals = np.zeros(open_.shape, dtype=complex)
        # a closed column asks nothing of a leaf
        seg = (root, a, b, lam0, np.where(open_, tol, np.inf))
        if direct.any():
            vals[direct] = _direct_leaves(g, ph, *(v[direct] for v in seg))
            closed[direct] = open_[direct]
        levin = np.flatnonzero(~direct & (np.all(tp > 0, axis=1) | np.all(tp < 0, axis=1)))
        if levin.size:
            v, ok = _levin_leaves(g, ph, *(v[levin] for v in seg))
            vals[levin] = v[:, None]
            closed[levin] = ok & open_[levin]
        r, c = np.nonzero(closed)
        np.add.at(out, (root[r], c), mult[r] * vals[r, c])
        open_ &= ~closed
        s = np.flatnonzero(open_.any(axis=1))
        mid = 0.5 * (a[s] + b[s])
        shift = mult[s] * _cis(ph.diff(root[s], mid, lam0[s]))
        # left halves, then right halves
        root, mult, lam0 = np.tile(root[s], 2), np.tile(shift, 2), np.tile(mid, 2)
        a, b = np.concatenate([a[s], mid]), np.concatenate([mid, b[s]])
        tol, open_ = np.tile(tol[s] * 0.6, (2, 1)), np.tile(open_[s], (2, 1))
        depth += 1
    return out


# ---------------------------------------------------------------------------
# window integrals
# ---------------------------------------------------------------------------

# int eta over (1/2, 2), the scale of the trivial bound.  With eta(xi) =
# chi(xi) - chi(2 xi) it is 1/2 + 1/2 int_1^2 chi, and int_1^2 chi = 1/2
# since chi(3/2 + t) + chi(3/2 - t) = 1 on [1, 2].
ETA_MASS = 0.75


@dataclass
class WindowIntegralResult:
    """One dyadic window integral I_k(s, s') with its quadrature error."""

    k: int
    value: float
    quadrature_error: float


def _window_values(kind: PhaseKind, params: SpaceParams, k, delta_s, d):
    """(I_k, refinement change) of many windows, each integrated at tol
    1e-9 and 1e-9/16 as two columns of one worklist.  Raises
    ResolutionError for the first window whose refinement moves the value
    by more than 1e-6 relative."""
    n = k.size
    v = _integrate(eta_dyadic, _WindowPhases(kind, params, k, delta_s, d),
                   np.full(n, 0.5), np.full(n, 2.0), np.tile([1e-9, 1e-9 / 16.0], (n, 1)))
    v1, v2 = v.T
    change = np.abs(v1 - v2)
    # below 1e-3 of the eta mass the integral is dominated by cancellation;
    # demand absolute accuracy 1e-9 * mass there instead of 1e-6 relative
    floor = 1e-3 * ETA_MASS
    bad = np.flatnonzero(change > 1e-6 * np.maximum(np.abs(v2), floor))
    if bad.size:
        j = bad[0]
        raise ResolutionError(
            f"window integral k={k[j]} unresolved: refinement moved the value "
            f"by {change[j]:.2e} (|I| = {abs(v2[j]):.2e})"
        )
    scale = 2.0 ** (0.5 * k)
    return scale * np.abs(v2), scale * change


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
    value, change = _window_values(kind, params, np.array([k]),
                                   np.array([s_prime - s]), np.array([d]))
    return WindowIntegralResult(k=k, value=float(value[0]),
                                quadrature_error=float(change[0]))


def proof_constants(kind: PhaseKind, params: SpaceParams) -> dict:
    """The constructive constants C1, C4, C5, C6 of the summation argument.

    C1 bounds |psi'| / lambda^(delta2-1) on [1, inf): its sup on 400
    log-spaced points of [1, 1e4].  C4 = max lambda^(delta2-1) on [1/2, 2],
    then C5 = 1/(2 max(C1 C4, 2)) and C6 = C5^(1/(delta2-1)).
    """
    lam = np.logspace(0, 4, 400)
    d1, _ = phase_derivs(kind, params, lam)
    c1 = float(np.max(np.abs(d1) / lam ** (kind.delta2 - 1.0)))
    c4 = float(max(0.5 ** (kind.delta2 - 1.0), 2.0 ** (kind.delta2 - 1.0)))
    c5 = 1.0 / (2.0 * max(c1 * c4, 2.0))
    c6 = c5 ** (1.0 / (kind.delta2 - 1.0))
    return {"C1": c1, "C4": c4, "C5": c5, "C6": c6}


def sample_claim_triples(kind: PhaseKind, params: SpaceParams, n: int,
                         seed: int = 0) -> np.ndarray:
    """n >= 1 (s, s', d) triples, s and s' in _ANNULUS and d log-uniform on
    _D_RANGE, stratified over the three regimes of the summation argument:
    |s-s'| below d^(1/delta2)/C6, between it and 1, and at least 1.  Just
    above delta2 = 1, C6 = C5^(1/(delta2-1)) underflows to 0; the first
    threshold is then infinite, and the annulus width caps it."""
    if not 1 <= n <= 2**22:
        raise ValidationError(f"need 1 to 2^22 triples, got {n}")
    if seed < 0:
        raise ValidationError(f"the seed must be 0 or above, got {seed}")
    rng = np.random.default_rng(seed)
    c6 = proof_constants(kind, params)["C6"]
    lo, hi = _ANNULUS
    out = np.empty((n, 3))
    for i in range(n):
        case = i % 3
        d = math.exp(rng.uniform(math.log(_D_RANGE[0]), math.log(_D_RANGE[1])))
        thr = min(d ** (1.0 / kind.delta2) / c6 if c6 > 0.0 else math.inf, hi - lo - 1e-3)
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


# Triples per worklist; each brings 2K windows, two tolerance columns each.
# The block bounds the worklist's memory: the default 60-triple
# oscillatory-claim as one worklist ran in 0.160 s against 0.185 s, but its
# peak RSS rose from 46 to 71 MB.
_TRIPLE_BLOCK = 8


def dyadic_sum_check(kind: PhaseKind, params: SpaceParams, sample_spec,
                     big_k: int = 20) -> DyadicSumReport:
    """|s-s'|^(1/2) sum_{k<=K} I_k per triple, 1 <= K = big_k <= 511 (the
    windows reach 2^(2K), past the double range from K = 512); passes iff the
    maximum is finite and K -> 2K changes no triple's sum by more than 1%."""
    if not 1 <= big_k <= 511:
        raise ValidationError(f"the dyadic sum needs 1 <= K <= 511, got {big_k}")
    triples = np.atleast_2d(np.asarray(sample_spec, dtype=float))
    if triples.shape[1] != 3:
        raise ValidationError("sample_spec must be (n, 3): columns s, s', d")
    s, sp, d = triples.T
    if not np.all((d > 0.0) & (d < 1.0)):
        raise DomainError("triples must have 0 < d < 1")
    if np.any(s == sp):
        raise DomainError("triples must have s != s'")
    ks = np.arange(1, 2 * big_k + 1)
    rows = np.empty((triples.shape[0], 5))
    rows[:, :3] = triples
    for lo in range(0, triples.shape[0], _TRIPLE_BLOCK):
        block = slice(lo, lo + _TRIPLE_BLOCK)
        gap = sp[block] - s[block]
        vals, _ = _window_values(kind, params, np.tile(ks, gap.size),
                                 np.repeat(gap, ks.size), np.repeat(d[block], ks.size))
        vals = vals.reshape(gap.size, ks.size)
        root = np.sqrt(np.abs(gap))
        rows[block, 3] = root * vals[:, :big_k].sum(axis=1)
        rows[block, 4] = root * vals.sum(axis=1)
    rel_change = np.abs(rows[:, 4] - rows[:, 3]) / np.maximum(rows[:, 4], 1e-300)
    max_norm = float(np.max(rows[:, 4]))
    passed = bool(np.isfinite(max_norm) and np.max(rel_change) < 0.01)
    return DyadicSumReport(
        kind_name=kind.name, k_levels=big_k, rows=rows,
        max_normalized=max_norm, max_rel_change=float(np.max(rel_change)),
        passed=passed,
    )
