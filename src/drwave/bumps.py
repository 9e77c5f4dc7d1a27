"""Smooth compactly supported bumps shared by the window integrals and
the counterexample families."""

from __future__ import annotations

import numpy as np

__all__ = ["eta_dyadic", "bump_unit", "bump_12"]


def eta_dyadic(xi):
    """The dyadic bump eta(xi) = chi(xi) - chi(2 xi), supported in
    {1/2 < |xi| < 2}, with sum_k eta(2^-k xi) = 1 for xi != 0, where

        chi(xi) = sigma(2-|xi|) / (sigma(2-|xi|) + sigma(|xi|-1)),
        sigma(x) = e^(-1/x) for x > 0, else 0,

    is smooth, even, 1 on [-1, 1] and 0 outside (-2, 2).  chi(xi) is
    exactly 1 for |xi| <= 1 and chi(2 xi) exactly 0 for |xi| >= 1, so each
    node needs one transition of chi: eta = chi(|xi|) on (1, 2),
    1 - chi(2|xi|) on (1/2, 1) and 1 at |xi| = 1; the values are
    chi(xi) - chi(2 xi) bit for bit."""
    a = np.abs(np.asarray(xi, dtype=float))
    out = np.zeros_like(a)
    out[a == 1.0] = 1.0
    low = (a > 0.5) & (a < 1.0)
    ramp = low | ((a > 1.0) & (a < 2.0))
    u = np.where(low, 2.0 * a, a)[ramp]
    num = np.exp(-1.0 / (2.0 - u))
    chi = num / (num + np.exp(-1.0 / (u - 1.0)))
    out[ramp] = np.where(low[ramp], 1.0 - chi, chi)
    return out


def bump_unit(xi):
    """exp(1 - 1/(1-xi^2)) on (-1, 1), normalized to unit maximum."""
    xi = np.asarray(xi, dtype=float)
    out = np.zeros_like(xi)
    inside = np.abs(xi) < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - xi[inside] ** 2))
    return out


def bump_12(u):
    """The translate of the unit bump supported in (1, 2), unit maximum."""
    u = np.asarray(u, dtype=float)
    return bump_unit(2.0 * u - 3.0)
