import math

import numpy as np
import pytest
from scipy.integrate import simpson

from drwave.errors import DomainError, ResolutionError
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


def _simpson_by_hand(y: list, x: list):
    """grid_integral's terms for 2 to 7 points in Python floats (a scalar
    ** is libm's pow, as on a numpy scalar), the Simpson pairs summed left
    to right, as numpy sums so few."""
    h = [b - a for a, b in zip(x, x[1:])]
    if len(y) == 2:
        return 0.5 * h[0] * (y[0] + y[1])
    k = len(y) - 1 + len(y) % 2
    total = None
    for i in range(0, k - 2, 2):
        h0, h1 = h[i], h[i + 1]
        hsum, ratio = h0 + h1, h0 / h1
        term = hsum / 6.0 * (y[i] * (2.0 - 1.0 / ratio) + y[i + 1] * (hsum * (hsum / (h0 * h1)))
                             + y[i + 2] * (2.0 - ratio))
        total = term if total is None else total + term
    if k < len(y):
        h0, h1 = h[-2], h[-1]
        alpha = (2 * h1**2 + 3 * h0 * h1) / (6 * (h1 + h0))
        beta = (h1**2 + 3.0 * h0 * h1) / (6 * h0)
        eta = h1**3 / (6 * h0 * (h0 + h1))
        total += alpha * y[-1] + beta * y[-2] - eta * y[-3]
    return total


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 384, 385])
def test_grid_integral_rows_match_each_row_alone(n):
    # a rows call is bit for bit the 1-d call on each row.  1,000 rows, each
    # with its own steps of 1e-2 to 1e3, so that Cartwright's weights at
    # even n (numpy rounds h**2 and h**3 otherwise on an array than on a
    # scalar) meet many steps, some of which make them dominate the
    # integral; up to 7 points each 1-d call is also the rule's terms
    # written out in Python floats.  Rows in C order and in F order, whose
    # rows a sum along the last axis would not take pairwise, and one grid
    # shared by every row
    rng = np.random.default_rng(n)
    grids = np.cumsum(10.0 ** rng.uniform(-2.0, 3.0, (1000, n)), axis=-1)
    values = rng.normal(size=(1000, n))
    for grid, y in ((grids, values), (np.asfortranarray(grids), np.asfortranarray(values)),
                    (grids[0], values + 1j * values[::-1])):
        rows = grid_integral(y, grid)
        assert rows.shape == (1000,)
        alone = [grid_integral(row, np.broadcast_to(grid, y.shape)[i])
                 for i, row in enumerate(y)]
        assert rows.tolist() == alone
    if n <= 7:
        assert [grid_integral(y, x) for y, x in zip(values, grids)] == [
            _simpson_by_hand(y, x) for y, x in zip(values.tolist(), grids.tolist())]


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


def test_panel_rule_refuses_an_empty_interval():
    with pytest.raises(DomainError, match="b > a"):
        panel_rule(1, 1, 1)
