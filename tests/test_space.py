import dataclasses
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from drwave.errors import DomainError, ValidationError
from drwave.space import (
    SpaceParams,
    _bernoulli,
    density,
    log_density_derivative,
    log_density_taylor,
    new_space,
)

mp.mp.dps = 40


def test_new_space_examples():
    p = new_space(2, 1)
    assert (p.n, p.Q) == (4, Fraction(2))
    p = new_space(4, 3)
    assert (p.n, p.Q) == (8, Fraction(5))


@pytest.mark.parametrize("m_v,m_z", [(3, 1), (1, 0), (0, 2), (-2, 1), (2, -1)])
def test_new_space_rejects_bad_params(m_v, m_z):
    with pytest.raises(ValidationError):
        new_space(m_v, m_z)


def test_new_space_rejects_non_integers():
    with pytest.raises(ValidationError):
        new_space(2.5, 1)


def test_density_at_zero(space21):
    assert density(space21, 0.0) == 0.0


def test_density_closed_form(space21):
    # oracle: high-precision evaluation of 8 sinh(1/2)^3 cosh(1/2)
    expected = float(8 * mp.sinh(mp.mpf(1) / 2) ** 3 * mp.cosh(mp.mpf(1) / 2))
    assert density(space21, 1.0) == pytest.approx(expected, rel=1e-14)
    assert expected == pytest.approx(1.2764580205594158, rel=1e-12)


def test_density_small_s_ratio(space21):
    s = 1e-3
    ratio = density(space21, s) / s ** (space21.n - 1)
    assert 0.999 <= ratio <= 1.001


def test_density_rejects_negative(space21):
    with pytest.raises(DomainError):
        density(space21, -0.5)


def test_log_density_derivative_large_s_limit(space21):
    assert log_density_derivative(space21, 50.0) == pytest.approx(2.0, abs=1e-8)


def test_log_density_derivative_small_s(space21):
    s = 1e-4
    val = log_density_derivative(space21, s)
    assert val == pytest.approx((space21.n - 1) / s, rel=1e-3)


def test_log_density_derivative_vs_finite_difference(space43):
    # centered-difference oracle on log(density)
    s, h = 2.0, 1e-5
    fd = (math.log(density(space43, s + h)) - math.log(density(space43, s - h))) / (2 * h)
    assert log_density_derivative(space43, s) == pytest.approx(fd, rel=1e-6)


def test_log_density_derivative_fd_sweep(all_spaces):
    s = np.linspace(0.1, 10.0, 60)
    h = 1e-5
    for p in all_spaces:
        fd = (np.log(density(p, s + h)) - np.log(density(p, s - h))) / (2 * h)
        got = log_density_derivative(p, s)
        assert np.max(np.abs(got - fd) / np.abs(fd)) < 1e-6


def test_log_density_derivative_rejects_nonpositive(space21):
    with pytest.raises(DomainError):
        log_density_derivative(space21, 0.0)


def test_density_monotone(all_spaces):
    s = np.linspace(0.01, 12.0, 400)
    for p in all_spaces:
        vals = density(p, s)
        assert np.all(np.diff(vals) > 0)


def test_spaceparams_immutable(space21):
    with pytest.raises(AttributeError):
        space21.m_v = 6


def test_q2_over_4(space43):
    assert space43.q2_over_4 == 6.25
    assert isinstance(space43.Q, Fraction)


def test_q2_over_4_is_not_a_field(all_spaces):
    # precomputed once, bit-identical to the Fraction value; fields,
    # equality, hash and repr see only (m_v, m_z, n, Q)
    for p in all_spaces:
        assert p.q2_over_4 == float(p.Q * p.Q / 4)
        assert [f.name for f in dataclasses.fields(p)] == ["m_v", "m_z", "n", "Q"]
        twin = SpaceParams(p.m_v, p.m_z, p.n, p.Q)
        assert twin == p and hash(twin) == hash(p)
        assert repr(p) == (f"SpaceParams(m_v={p.m_v}, m_z={p.m_z}, n={p.n}, "
                           f"Q={p.Q!r})")


def test_taylor_b_is_laurent_coefficient(all_spaces):
    # A'/A - (n-1)/s = b s + O(s^3)
    for p in all_spaces:
        s = 1e-2
        direct = p.half_sum / math.tanh(s / 2) + 0.5 * p.m_z * math.tanh(s / 2)
        assert (direct - (p.n - 1) / s) / s == pytest.approx(log_density_taylor(p)[0], rel=1e-4)


def test_log_density_taylor_sums_to_log_derivative(all_spaces):
    # g_1 is (m_v+m_z)/12 + m_z/4, and the 41 terms reproduce A'/A for s <= 2
    s = np.array([0.05, 0.7, 1.3, 2.0])
    for p in all_spaces:
        g = log_density_taylor(p)
        assert g[0] == pytest.approx((p.m_v + p.m_z) / 12.0 + p.m_z / 4.0, rel=1e-15)
        k = np.arange(1, g.size + 1)
        series = (p.n - 1) / s + (g[:, None] * s ** (2 * k[:, None] - 1)).sum(axis=0)
        assert np.max(np.abs(series / log_density_derivative(p, s) - 1.0)) <= 1e-14


def _bernoulli_by_the_binomial_recurrence(m: int) -> tuple[Fraction, ...]:
    # B_0..B_m from sum_(j<=k) C(k+1, j) B_j = 0, O(m^2) Fraction sums
    b = [Fraction(1)]
    for k in range(1, m + 1):
        b.append(-sum(math.comb(k + 1, j) * b[j] for j in range(k)) / (k + 1))
    return tuple(b)


def test_bernoulli_from_tangent_numbers_matches_the_binomial_recurrence():
    # every entry exactly, at the 82 that log_density_taylor reads, the 16
    # of special's ratio series and each m below and around them
    for m in [*range(18), 81, 82, 83]:
        got = _bernoulli.__wrapped__(m)
        assert got == _bernoulli_by_the_binomial_recurrence(m), m
        assert all(type(b) is Fraction for b in got)
