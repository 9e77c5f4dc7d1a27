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


def _check_samples(grid: np.ndarray, values: np.ndarray, what: str) -> None:
    """A uniform grid of at least 2 points, its step a normal double (a
    spline or a quadrature on it divides by the step), and as many finite
    values."""
    if grid.ndim != 1 or grid.size < 2:
        raise ValidationError(f"{what} grid must be a 1-d array with >= 2 points")
    d = np.diff(grid)
    if np.any(d <= 0):
        raise ValidationError(f"{what} grid must be strictly increasing")
    if d[0] < np.finfo(float).tiny:
        raise ValidationError(f"{what} grid step {d[0]:g} is below the smallest normal "
                              f"double; widen the grid or take fewer points")
    if not np.allclose(d, d[0], rtol=1e-9, atol=1e-12 * abs(d[0])):
        raise ValidationError(f"{what} grid must be uniformly spaced")
    if values.shape != grid.shape:
        raise ValidationError(f"{what} values and grid must have the same shape")
    if not np.all(np.isfinite(values)):
        raise ValidationError(f"{what} values must be finite")


@dataclass(eq=False)
class RadialProfile:
    """Samples of a radial function s -> f(s) on a uniform grid."""

    s_grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.s_grid = np.asarray(self.s_grid, dtype=float)
        self.values = np.asarray(self.values)
        _check_samples(self.s_grid, self.values, "radial")


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
        _check_samples(self.lambda_grid, self.values, "spectral")
        if self.support_hint is not None:
            lo, hi = self.support_hint
            if not lo < hi:
                raise ValidationError("support_hint must be an interval (lo, hi)")
            outside = (self.lambda_grid < lo) | (self.lambda_grid > hi)
            peak = np.max(np.abs(self.values)) if self.values.size else 0.0
            if np.any(np.abs(self.values[outside]) > 1e-14 * max(peak, 1e-300)):
                raise ValidationError("values do not vanish outside support_hint")

    @property
    def top(self):
        """The support's end, else the grid's end."""
        return self.support_hint[1] if self.support_hint else float(self.lambda_grid[-1])

