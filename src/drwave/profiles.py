"""Sampled radial and spectral profiles.

A RadialProfile is a function of the geodesic distance s on a uniform
grid of [0, S_max]; a SpectralProfile is a function of the spectral
parameter lambda, complex valued, optionally carrying the interval on
which it is supported so that compactly supported families integrate
only over their support.
Both reject non-finite samples, so no NaN reaches a transform.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

__all__ = ["RadialProfile", "SpectralProfile"]


def _check_samples(grid: np.ndarray, values: np.ndarray, what: str, support=None) -> None:
    """Rows of samples along the last axis, a profile being one row of
    shape (1, m): each row's grid uniform with at least 2 points and its
    step a normal double (a spline or a quadrature on it divides by the
    step), and as many finite values.  Where support (lo, hi) is given,
    numbers or one of each per row, each row's values vanish outside
    [lo, hi] within 1e-14 of its peak magnitude."""
    if grid.ndim != 2 or grid.shape[1] < 2:
        raise ValidationError(f"{what} grid must be a 1-d array with >= 2 points")
    d = np.diff(grid)
    if (d <= 0).any():
        raise ValidationError(f"{what} grid must be strictly increasing")
    first = d[:, :1]
    if (first < np.finfo(float).tiny).any():
        raise ValidationError(f"{what} grid step {first.min():g} is below the smallest "
                              f"normal double; widen the grid or take fewer points")
    # np.isclose(d, first, rtol=1e-9, atol=1e-12 * first), first being > 0
    if not (np.abs(d - first) <= 1e-12 * first + 1e-9 * first).all():
        raise ValidationError(f"{what} grid must be uniformly spaced")
    if values.shape != grid.shape:
        raise ValidationError(f"{what} values and grid must have the same shape")
    if not np.isfinite(values).all():
        raise ValidationError(f"{what} values must be finite")
    if support is None:
        return
    lo, hi = np.reshape(support, (2, -1, 1))
    if not (lo < hi).all():
        raise ValidationError("support_hint must be an interval (lo, hi)")
    mag = np.abs(values)
    peak = np.maximum(mag.max(axis=1, keepdims=True), 1e-300)
    if (((grid < lo) | (grid > hi)) & (mag > 1e-14 * peak)).any():
        raise ValidationError("values do not vanish outside support_hint")


@dataclass(eq=False)
class RadialProfile:
    """Samples of a radial function s -> f(s) on a uniform grid."""

    s_grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.s_grid = np.asarray(self.s_grid, dtype=float)
        self.values = np.asarray(self.values)
        _check_samples(self.s_grid[None], self.values[None], "radial")


@dataclass(eq=False)
class SpectralProfile:
    """Samples of a spectral function lambda -> fh(lambda), complex valued.

    support_hint, when present, is the closed interval outside which the
    samples vanish (within 1e-14 of the peak magnitude); experiment
    families set it so their quadratures cover only the support.
    """

    lambda_grid: np.ndarray
    values: np.ndarray
    support_hint: tuple[float, float] | None = field(default=None)

    def __post_init__(self):
        self.lambda_grid = np.asarray(self.lambda_grid, dtype=float)
        self.values = np.asarray(self.values, dtype=complex)
        _check_samples(self.lambda_grid[None], self.values[None], "spectral",
                       self.support_hint)

    @property
    def top(self):
        """The support's end, else the grid's end."""
        return self.support_hint[1] if self.support_hint else float(self.lambda_grid[-1])

