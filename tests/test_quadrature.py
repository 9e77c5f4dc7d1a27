import numpy as np
import pytest
from scipy.integrate import simpson

from drwave.quadrature import grid_integral, panel_rule


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
