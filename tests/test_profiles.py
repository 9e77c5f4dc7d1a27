import numpy as np
import pytest

from drwave.errors import ValidationError
from drwave.profiles import RadialProfile, SpectralProfile


def test_radial_profile_requires_uniform_grid():
    with pytest.raises(ValidationError):
        RadialProfile(np.array([0.0, 0.1, 0.3]), np.zeros(3))
    with pytest.raises(ValidationError):
        RadialProfile(np.array([0.0, 0.1, 0.05]), np.zeros(3))


def test_radial_profile_shape_mismatch():
    with pytest.raises(ValidationError):
        RadialProfile(np.linspace(0, 1, 5), np.zeros(4))


def test_spectral_profile_support_hint_enforced():
    lam = np.linspace(0.0, 10.0, 11)
    vals = np.zeros(11, dtype=complex)
    vals[3] = 1.0
    SpectralProfile(lam, vals, support_hint=(2.5, 3.5))  # fine
    with pytest.raises(ValidationError):
        SpectralProfile(lam, vals, support_hint=(5.0, 7.0))


def test_spectral_top_is_the_support_end_else_the_grid_end():
    lam = np.linspace(0.0, 10.0, 11)
    vals = np.zeros(11, dtype=complex)
    vals[3] = 1.0
    assert SpectralProfile(lam, vals, support_hint=(2.5, 3.5)).top == 3.5
    assert SpectralProfile(lam, vals).top == 10.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(np.inf, 0.0)])
def test_profiles_reject_non_finite_values(bad):
    grid = np.linspace(0.0, 10.0, 11)
    vals = np.zeros(11, dtype=complex)
    vals[4] = bad
    with pytest.raises(ValidationError, match="finite"):
        RadialProfile(grid, vals)
    with pytest.raises(ValidationError, match="finite"):
        SpectralProfile(grid, vals)


def test_profiles_reject_a_subnormal_step():
    # a spline or a quadrature on the grid divides by its step: a step of
    # 1.6e-312, below the smallest normal double, is refused; 1.6e-302 is not
    vals = np.zeros(64)
    for make in (RadialProfile, SpectralProfile):
        with pytest.raises(ValidationError, match="smallest normal"):
            make(np.linspace(0.0, 1e-310, 64), vals)
        make(np.linspace(0.0, 1e-300, 64), vals)
