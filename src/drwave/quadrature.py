"""Phase-resolving composite Gauss-Legendre rules and grid integrals."""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DomainError, ResolutionError

__all__ = ["panel_rule", "panel_rules", "grid_integral"]

_PHASE_CAP = math.pi / 4.0
_PANELS_CAP = 2**22      # panels of one panel_rules call: 2^25 nodes


@functools.cache
def _gl_rule():
    """8-point Gauss-Legendre rule; at import its eigensolve would start LAPACK."""
    return np.polynomial.legendre.leggauss(8)


def panel_rule(a: float, b: float, max_rate: float, min_panels: int = 8):
    """Composite Gauss-Legendre nodes/weights on [a, b], 8 (_gl_rule) per panel.

    Panel width is capped so an oscillation e^{i rate s} advances at most
    _PHASE_CAP = pi/4 per panel; unresolved phase is the dominant quadrature
    error for the spectral integrals, so the cap is what controls accuracy.
    """
    if b <= a:
        raise DomainError("panel_rule requires b > a")
    nodes, weights, _ = panel_rules(np.array([a]), np.array([b]), np.array([max_rate]),
                                    min_panels)
    return nodes, weights


def panel_rules(a, b, max_rate, min_panels):
    """panel_rule on many intervals [a_i, b_i] at once, each with its own
    max_rate_i (arrays of one length; min_panels is shared).  Returns
    (nodes, weights, counts): interval i owns the counts[i] nodes that
    follow those of intervals before it.  Edges are laid out as np.linspace
    lays them out, so each interval's rule is bit for bit the one
    panel_rule gives it.  Raises ResolutionError, before any allocation,
    where the rates ask for more than 2^22 panels in all or for a count
    that is not finite."""
    width_cap = _PHASE_CAP / np.maximum(max_rate, 1e-12)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        wanted = np.maximum(min_panels, np.ceil((b - a) / width_cap))
    total = float(np.sum(wanted))
    if not total <= _PANELS_CAP:
        raise ResolutionError(f"a phase-resolving rule needs {total:.3g} panels, "
                              f"above the cap of {_PANELS_CAP} (max rate {np.max(max_rate):.3g})")
    n_panels = wanted.astype(np.int64)
    owner = np.repeat(np.arange(a.size), n_panels)
    j = np.arange(owner.size) - np.repeat(np.cumsum(n_panels) - n_panels, n_panels)
    step = ((b - a) / n_panels)[owner]
    left = j * step + a[owner]
    last = j + 1 == n_panels[owner]
    right = np.where(last, b[owner], (j + 1) * step + a[owner])
    x0, w0 = _gl_rule()
    half = 0.5 * (right - left)
    mid = 0.5 * (right + left)
    nodes = (mid[:, None] + half[:, None] * x0[None, :]).ravel()
    weights = (half[:, None] * w0[None, :]).ravel()
    return nodes, weights, n_panels * x0.size


def grid_integral(values: np.ndarray, grid: np.ndarray):
    """Integral of sampled values along their last axis, over a strictly
    increasing grid of at least 2 points: one grid for every row, or one
    per row (values and grid of one shape); a number for one row, else an
    array over the rows.  Each row's integral is bit for bit its own 1-d
    call, and is the composite Simpson rule of scipy.integrate.simpson(row,
    x=grid), term for term: Simpson's three-point rule (for unequal steps)
    on the pairs of intervals from the left, then for an even number of
    points Cartwright's correction for the last interval, or the trapezoid
    at 2.  Cartwright's weights are formed from each row's last two steps as
    Python floats, whose ** is libm's pow, as a numpy scalar's is: numpy
    rounds h**2 and h**3 on an array otherwise than on a scalar."""
    y, h = np.asarray(values), np.diff(grid)
    m = y.shape[-1]
    if m == 2:
        return 0.5 * h[..., 0] * (y[..., 0] + y[..., 1])
    k = m - 1 + m % 2                    # points that Simpson's pairs cover
    h0, h1 = h[..., 0:k - 2:2], h[..., 1:k - 1:2]
    hsum = h0 + h1
    ratio = h0 / h1
    terms = hsum / 6.0 * (y[..., 0:k - 2:2] * (2.0 - 1.0 / ratio)
                          + y[..., 1:k - 1:2] * (hsum * (hsum / (h0 * h1)))
                          + y[..., 2:k:2] * (2.0 - ratio))
    # C order, so that each row is summed pairwise as a 1-d array is
    total = np.sum(np.ascontiguousarray(terms), axis=-1)
    if k < m:
        ends = [((2 * h1**2 + 3 * h0 * h1) / (6 * (h1 + h0)),
                 (h1**2 + 3.0 * h0 * h1) / (6 * h0),
                 h1**3 / (6 * h0 * (h0 + h1))) for h0, h1 in h[..., -2:].reshape(-1, 2).tolist()]
        alpha, beta, eta = np.array(ends).T.reshape((3,) + h.shape[:-1])
        total += alpha * y[..., -1] + beta * y[..., -2] - eta * y[..., -3]
    return total
