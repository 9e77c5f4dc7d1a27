import math

import numpy as np
import pytest
from scipy.integrate import simpson

from drwave.errors import ResolutionError
from drwave.quadrature import grid_integral, panel_rule, panel_rules


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 512, 513])
def test_grid_integral_matches_scipy_simpson(n):
    # scipy's composite Simpson rule is the oracle, odd and even n alike
    # (Cartwright's last interval, the trapezoid at n = 2), on uniform s,
    # uniform lambda and panel nodes; within 1e-14 of max|y| times the length
    rng = np.random.default_rng(n)
    grids = (np.linspace(0.0, 12.0, n), np.linspace(0.5, 24.0, n),
             panel_rule(0.0, 3.0, 30.0)[0][:n])
    for grid in grids:
        for y in (rng.normal(size=n), np.exp(-grid**2) * np.exp(1j * grid)):
            scale = np.max(np.abs(y)) * (grid[-1] - grid[0])
            assert abs(grid_integral(y, grid) - simpson(y, x=grid)) <= 1e-14 * scale


@pytest.mark.parametrize("rate", [np.inf, np.nan, 1e300, (2**22 + 1) * math.pi / 4])
def test_panel_rule_refuses_counts_past_the_cap(rate):
    # more than 2^22 panels, or a count that is not finite, is refused
    # before any allocation, not cast to a wrong int64
    with pytest.raises(ResolutionError, match="panels"):
        panel_rule(0.0, 1.0, rate)


def test_panel_rules_cap_the_total_over_intervals():
    # three intervals of 2^21 panels each pass the cap together
    rate = np.full(3, 2**21 * math.pi / 4)
    with pytest.raises(ResolutionError, match="panels"):
        panel_rules(np.zeros(3), np.ones(3), rate, 8)
