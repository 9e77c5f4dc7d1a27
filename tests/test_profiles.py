import numpy as np
import pytest

from drwave.errors import ValidationError
from drwave.profiles import RadialProfile, SpectralProfile, _check_samples


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


@pytest.mark.parametrize("bad", [0, 1, 2])
def test_profiles_refuse_a_nan_grid_point_without_a_warning(bad):
    # a NaN step passes the increasing check (NaN <= 0 is false); the
    # uniform check refuses it, with no RuntimeWarning on the way
    grid = np.linspace(0.0, 2.0, 3)
    grid[bad] = np.nan
    for make in (RadialProfile, SpectralProfile):
        with pytest.raises(ValidationError, match="uniformly"):
            make(grid, np.ones(3))


def _rows_with_a_defect(defect: str):
    """Three spectral rows on grids of their own, vanishing outside their
    supports, with the given defect in the middle row alone."""
    lo = np.array([1.0, 4.0, 16.0])
    grid = np.linspace(lo, 2.0 * lo, 9, axis=-1)
    vals = np.zeros(grid.shape, dtype=complex)
    vals[:, 4] = 1.0
    support = (lo + lo / 8.0, 2.0 * lo - lo / 8.0)
    if defect == "uniformly":
        grid[1, 3] += 0.01
    elif defect == "increasing":
        grid[1] = grid[1, ::-1]
    elif defect == "smallest normal":
        grid[1] = np.linspace(0.0, 1e-310, 9)
    elif defect == "finite":
        vals[1, 2] = np.nan
    else:
        vals[1, 0] = 1e-3
    return grid, vals, support


@pytest.mark.parametrize("defect", ["uniformly", "increasing", "smallest normal", "finite",
                                    "vanish"])
def test_rows_check_refuses_what_a_profile_of_the_row_refuses(defect):
    # the experiments check their families as rows, once per list: a defect
    # in one row is refused with the message its SpectralProfile gives
    grid, vals, (lo, hi) = _rows_with_a_defect(defect)
    with pytest.raises(ValidationError, match=defect) as alone:
        SpectralProfile(grid[1], vals[1], support_hint=(lo[1], hi[1]))
    with pytest.raises(ValidationError) as rows:
        _check_samples(grid, vals, "spectral", (lo, hi))
    assert str(rows.value) == str(alone.value)
    for i in (0, 2):
        SpectralProfile(grid[i], vals[i], support_hint=(lo[i], hi[i]))
