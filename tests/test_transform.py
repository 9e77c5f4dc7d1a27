import math
import os
import subprocess
import sys
import textwrap

import mpmath as mp
import numpy as np
import pytest

import drwave
from drwave import spherical, transform
from drwave.errors import CalibrationError, DomainError, TailMassError, ValidationError
from drwave.profiles import RadialProfile, SpectralProfile
from drwave.quadrature import grid_integral, panel_rule
from drwave.space import density, new_space
from drwave.special import plancherel_density
from drwave.spherical import phi_matrix
from drwave.transform import (
    calibrate_inversion_constant,
    euclidean_correspondence_inverse,
    inversion_constant,
    sft_forward,
    sft_inverse,
    sobolev_norm,
)
from oracles import euclidean_spectrum


def _gaussian_profile(alpha: float, s_max: float = 12.0, n: int = 1536) -> RadialProfile:
    s = np.linspace(0.0, s_max, n)
    return RadialProfile(s, np.exp(-alpha * s**2))


def _bump_spectrum(lo: float, hi: float, n: int = 400) -> SpectralProfile:
    lam = np.linspace(lo, hi, n)
    x = 2.0 * (lam - lo) / (hi - lo) - 1.0
    vals = np.zeros(n)
    inner = np.abs(x) < 1
    vals[inner] = np.exp(1.0 - 1.0 / (1.0 - x[inner] ** 2))
    return SpectralProfile(lam, vals.astype(complex), support_hint=(lo, hi))


LAM_GRID = np.linspace(0.0, 24.0, 512)


def test_forward_of_zero(space21):
    f = RadialProfile(np.linspace(0, 12, 257), np.zeros(257))
    fh = sft_forward(space21, f, LAM_GRID)
    assert np.all(fh.values == 0)


def test_forward_of_real_profile_is_real(space21):
    fh = sft_forward(space21, _gaussian_profile(1.0), LAM_GRID)
    assert np.max(np.abs(fh.values.imag)) <= 1e-12 * np.max(np.abs(fh.values.real))


def test_forward_tail_check(space21):
    s = np.linspace(0.0, 6.0, 257)
    fat = RadialProfile(s, np.exp(-0.05 * s**2))
    with pytest.raises(TailMassError):
        sft_forward(space21, fat, LAM_GRID)


@pytest.mark.parametrize("m_v,m_z", [(2, 0), (2, 1), (4, 3), (8, 1)])
def test_inversion_constant_matches_calibration(m_v, m_z):
    # closed form 2^(m_z-1)/pi against the Plancherel-ratio oracle
    params = new_space(m_v, m_z)
    c = calibrate_inversion_constant(params)
    assert inversion_constant(params) == pytest.approx(c, rel=1e-8)
    if (m_v, m_z) == (2, 1):
        assert calibrate_inversion_constant(params) == c  # bit-for-bit


def test_h3_gaussian_transform_pair():
    # on (2, 0), fh of e^(-alpha s^2) is a Gaussian integral:
    # fh = sqrt(pi/alpha) e^((1/4-lambda^2)/(4 alpha)) sin(lambda/(4 alpha))/lambda
    h3 = new_space(2, 0)
    for alpha in (1.0, 2.0):
        f = _gaussian_profile(alpha)
        fh = sft_forward(h3, f, LAM_GRID)
        lam = LAM_GRID[1:]
        exact = np.empty_like(LAM_GRID)
        exact[0] = math.sqrt(math.pi / alpha) * math.exp(1.0 / (16.0 * alpha)) / (4.0 * alpha)
        exact[1:] = (math.sqrt(math.pi / alpha) * np.exp((0.25 - lam**2) / (4.0 * alpha))
                     * np.sin(lam / (4.0 * alpha)) / lam)
        assert np.max(np.abs(fh.values - exact)) <= 1e-9 * np.max(np.abs(exact))
        # Plancherel: ||f||^2 = C int |fh|^2 |c|^-2 dlambda
        norm_s = grid_integral(f.values**2 * density(h3, f.s_grid), f.s_grid)
        norm_l = grid_integral(np.abs(fh.values) ** 2 * plancherel_density(h3, LAM_GRID),
                               LAM_GRID)
        assert inversion_constant(h3) * norm_l == pytest.approx(norm_s, rel=1e-6)


def test_calibration_consistency_across_profiles(space21):
    # the three reference ratios agree (the calibrator would raise otherwise);
    # recompute one held-out ratio directly
    from drwave.transform import _plancherel_ratio

    c = calibrate_inversion_constant(space21)
    held_out = _plancherel_ratio(space21, _gaussian_profile(1.5))
    assert held_out == pytest.approx(c, rel=1e-3)


def test_inverse_needs_no_prior_call():
    # a fresh interpreter inverts on a space nothing has touched before
    script = textwrap.dedent("""
        import numpy as np
        from drwave.profiles import RadialProfile
        from drwave.space import new_space
        from drwave.transform import sft_forward, sft_inverse
        params = new_space(6, 2)
        s = np.linspace(0.0, 12.0, 1536)
        fh = sft_forward(params, RadialProfile(s, np.exp(-s**2)), np.linspace(0.0, 24.0, 512))
        s_out = np.linspace(0.0, 2.0, 16)
        back = sft_inverse(params, fh, s_out)
        print(float(np.max(np.abs(back.values - np.exp(-s_out**2)))))
    """)
    root = os.path.dirname(os.path.dirname(os.path.abspath(drwave.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (root, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert float(done.stdout) < 1e-3


@pytest.mark.parametrize("n", [2, 3, 4, 5, 512])
def test_spline_matches_cubic_spline(n):
    # scipy's not-a-knot CubicSpline is the oracle (a line at n = 2, the
    # parabola at n = 3), on complex data over uniform s, uniform lambda and
    # panel nodes, read at panel nodes and at the knots; within 1e-14 of max|y|
    from scipy.interpolate import CubicSpline

    rng = np.random.default_rng(n)
    grids = (np.linspace(0.0, 12.0, n), np.linspace(0.5, 24.0, n),
             panel_rule(0.0, 3.0, 30.0)[0][:n])
    for x in grids:
        xi = np.concatenate([panel_rule(x[0], x[-1], 8.0)[0], x])
        for y in (rng.normal(size=n) + 1j * rng.normal(size=n),
                  np.exp(-x**2) * np.exp(1j * x)):
            err = np.max(np.abs(transform._spline(x, y, xi) - CubicSpline(x, y)(xi)))
            assert err <= 1e-14 * np.max(np.abs(y))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_transforms_reject_non_finite_samples(space21, bad):
    # a NaN or inf sample fails as a ValidationError before either
    # direction runs, instead of spreading through the spline
    s = np.linspace(0.0, 6.0, 64)
    f = np.exp(-s**2).astype(complex)
    f[10] = bad
    with pytest.raises(ValidationError, match="finite"):
        sft_forward(space21, RadialProfile(s, f), LAM_GRID)
    fh = _bump_spectrum(1.0, 4.0)
    vals = fh.values.copy()
    vals[200] = bad
    with pytest.raises(ValidationError, match="finite"):
        sft_inverse(space21, SpectralProfile(fh.lambda_grid, vals, fh.support_hint), s)


def test_forward_memory_is_bounded_by_one_block(space21):
    # 10,000 lambda rows x 984 nodes is 9.8 M kernel cells, three blocks of
    # at most 2^22; the peak stays under 64 bytes per cell of one block
    import tracemalloc

    f = _gaussian_profile(1.0, s_max=6.0, n=512)
    lam = np.linspace(0.0, 16.0, 10_000)
    tracemalloc.start()
    try:
        fh = sft_forward(space21, f, lam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**22 * 64
    assert np.all(np.isfinite(fh.values))


def test_blocked_forward_matches_one_block(space21, monkeypatch):
    # ten blocks of 66 lambda rows against one block of 600 agree to
    # rounding; numpy's complex multiply in the exponential series can round
    # an element differently at another position in memory, so not bitwise
    f = _gaussian_profile(1.0, s_max=6.0, n=512)
    lam = np.linspace(0.0, 16.0, 600)
    one = sft_forward(space21, f, lam).values
    monkeypatch.setattr(transform, "_BLOCK_CELLS", 2**16)
    blocked = sft_forward(space21, f, lam).values
    assert np.max(np.abs(blocked - one)) <= 1e-13 * np.max(np.abs(one))


def test_forward_memory_with_three_lattice_blocks(space21, monkeypatch):
    # 10,000 lambda on [0, 128] resample 747 lattice rows; on 15,648 panel
    # nodes these are 11.7 M kernel cells, three blocks of at most 2^22, and
    # the peak stays under 64 bytes per cell of one block
    import tracemalloc

    f = _gaussian_profile(1.0, s_max=12.0, n=1536)
    lam = np.linspace(0.0, 128.0, 10_000)
    blocks = []
    monkeypatch.setattr(transform, "phi_matrix",
                        lambda *a: blocks.append(len(a[1])) or phi_matrix(*a))
    tracemalloc.start()
    try:
        fh = sft_forward(space21, f, lam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(blocks) >= 3 and 2 * sum(blocks) <= lam.size
    assert peak < 2**22 * 64
    assert np.all(np.isfinite(fh.values))


def test_direct_product_stays_where_the_lattice_does_not_pay(space21):
    # 60 lambda on [0, 7] would take 80 lattice rows, more than half of
    # them, and 58 Chebyshev rows, more than 3/4 of them: phi is formed on
    # the requested rows, as without a resampler
    f = _gaussian_profile(1.0, s_max=6.0, n=512)
    lam = np.linspace(0.0, 7.0, 60)
    nodes, weights = panel_rule(0.0, 6.0, 7.0)
    assert isinstance(transform._resampler(lam, nodes), transform._Direct)
    v = weights * transform._spline(f.s_grid, f.values, nodes) * density(space21, nodes)
    assert np.array_equal(sft_forward(space21, f, lam).values, phi_matrix(space21, lam, nodes) @ v)
    # the propagator keeps its weights: on 16 s a row's 88 lattice weights
    # and 43 Chebyshev weights are more than its 16 phi cells, so the
    # kernel is formed on the nodes
    from drwave.dispersive import PhaseKind, PropagatorKernel

    fh, s = _bump_spectrum(1.0, 5.0), np.linspace(0.0, 6.0, 16)
    kern = PropagatorKernel(space21, fh, PhaseKind("frac", a=2.0), s, t_max=0.0)
    nodes, amp = transform.inverse_quadrature(space21, fh, 6.0)
    assert isinstance(kern.resampler, transform._Direct) and np.array_equal(kern.amp, amp)
    assert np.array_equal(kern.apply(0.0),
                          transform._real_kernel_product(phi_matrix(space21, nodes, s).T, amp))


def test_large_lambda_grid_takes_the_lattice(space21, monkeypatch):
    # phi is formed on the lattice rows alone, at most half the requested ones
    rows = []
    monkeypatch.setattr(transform, "phi_matrix",
                        lambda *a: rows.append(len(a[1])) or phi_matrix(*a))
    lam = np.linspace(0.0, 16.0, 600)
    sft_forward(space21, _gaussian_profile(1.0, s_max=6.0, n=512), lam)
    assert 2 * sum(rows) <= lam.size
    fh, s = _bump_spectrum(1.0, 5.0), np.linspace(0.0, 6.0, 160)
    nodes, _ = transform.inverse_quadrature(space21, fh, 6.0)
    rows.clear()
    sft_inverse(space21, fh, s)
    assert rows == [transform._resampler(nodes, s).nodes.size]
    assert 2 * rows[0] <= nodes.size


def test_inverse_memory_is_bounded_by_blocked_weights(space21):
    # 23,472 nodes on [0, 256] and 400 s on [0, 9]: the 2m = 336 weights of
    # each node are formed and applied in row blocks, so the peak stays
    # under a quarter of the 63 MB they would take at once
    import tracemalloc

    lam = np.linspace(0.0, 256.0, 8192)
    fh = SpectralProfile(lam, np.exp(-((lam - 100.0) / 40.0) ** 2).astype(complex))
    s = np.linspace(0.0, 9.0, 400)
    nodes, _ = transform.inverse_quadrature(space21, fh, 9.0)
    lattice = transform._resampler(nodes, s)
    tracemalloc.start()
    try:
        back = sft_inverse(space21, fh, s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < nodes.size * 2 * lattice.m * 8 / 4
    assert np.all(np.isfinite(back.values))


def test_inverse_of_zero(space21):
    fh = SpectralProfile(LAM_GRID, np.zeros(512, dtype=complex))
    back = sft_inverse(space21, fh, np.linspace(0, 4, 64))
    assert np.all(back.values == 0)


def test_roundtrip_gaussian(space21):
    f = _gaussian_profile(1.0)
    fh = sft_forward(space21, f, LAM_GRID)
    s_out = np.linspace(0.0, 8.0, 320)
    back = sft_inverse(space21, fh, s_out)
    ref = np.exp(-s_out**2)
    w = density(space21, s_out)
    err = math.sqrt(
        grid_integral(np.abs(back.values - ref) ** 2 * w, s_out)
        / grid_integral(ref**2 * w, s_out)
    )
    assert err < 1e-3
    # pointwise check: value at s = 1 matches e^-1
    at_one = np.interp(1.0, s_out, back.values.real)
    assert at_one == pytest.approx(math.exp(-1.0), rel=1e-3)


@pytest.mark.parametrize("m_v,m_z", [(2, 1), (4, 3)])
def test_inverse_matches_the_complex_kernel_product(m_v, m_z):
    # the real phi kernel times complex amplitudes, without a complex copy
    # of the kernel: the complex product up to rounding
    params = new_space(m_v, m_z)
    fh = _bump_spectrum(1.0, 5.0)
    fh = SpectralProfile(fh.lambda_grid, fh.values * np.exp(1j * fh.lambda_grid),
                         fh.support_hint)
    s = np.linspace(0.0, 6.0, 80)
    back = sft_inverse(params, fh, s)
    nodes, amp = transform.inverse_quadrature(params, fh, 6.0)
    ref = phi_matrix(params, nodes, s).T.astype(complex) @ amp
    assert back.values.shape == (80,)
    assert np.max(np.abs(back.values - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("m_v,m_z", [(2, 0), (2, 1), (4, 3), (16, 7)])
def test_lattice_transforms_match_the_fine_node_products(m_v, m_z):
    # both transforms resample their lambda rows from a coarse lattice; each
    # is held to its direct product on the requested (fine) lambda rows
    params = new_space(m_v, m_z)
    f = _gaussian_profile(2.0, s_max=6.0, n=512)   # its tail is negligible on (16, 7) too
    lam = np.linspace(0.0, 16.0, 600)              # lambda = 0 and lambda_max included
    nodes, weights = panel_rule(0.0, 6.0, 16.0)
    assert not isinstance(transform._resampler(lam, nodes), transform._Direct)
    v = weights * transform._spline(f.s_grid, f.values, nodes) * density(params, nodes)
    ref = phi_matrix(params, lam, nodes) @ v
    got = sft_forward(params, f, lam).values
    # on (16, 7) the exponential series rounds near s = 2 at lambda < 1, in
    # the direct rows and the lattice rows alike (ROADMAP item 4): the 1e-9
    # that test_series_zone_matches_hypergeometric[16-7] holds phi to there
    tol = 1e-9 if (m_v, m_z) == (16, 7) else 1e-13
    assert np.max(np.abs(got - ref)) <= tol * np.max(np.abs(ref))
    # a spectrum over all of [0, 8]: the panel nodes reach both ends
    lam = np.linspace(0.0, 8.0, 400)
    fh = SpectralProfile(lam, np.exp(-((lam - 3.0) ** 2) + 1j * lam))
    s = np.linspace(0.0, 6.0, 160)
    nodes, amp = transform.inverse_quadrature(params, fh, 6.0)
    assert not isinstance(transform._resampler(nodes, s), transform._Direct)
    ref = phi_matrix(params, nodes, s).T.astype(complex) @ amp
    got = sft_inverse(params, fh, s).values
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("m_v,m_z", [(2, 0), (2, 1), (4, 3), (16, 7)])
def test_lattice_side_matches_the_fine_node_products(m_v, m_z):
    # lambda on [0, 48] with s up to 6: 220 lattice rows (m = 78) against
    # 233 Chebyshev rows, so the forward transform, the inverse and the
    # propagator all take the lattice; each is held to its product on the
    # requested (fine) lambda rows
    from drwave.dispersive import PhaseKind, PropagatorKernel, phase, phase_derivs

    params = new_space(m_v, m_z)
    f = _gaussian_profile(2.0, s_max=6.0, n=512)
    lam = np.linspace(0.0, 48.0, 600)
    nodes, weights = panel_rule(0.0, 6.0, 48.0)
    lattice = transform._resampler(lam, nodes)
    assert isinstance(lattice, transform._Lattice)
    # the resampled rows column by column: on (16, 7) the exponential
    # series rounds near s = 2 at lambda < 1, in the direct rows and the
    # lattice rows alike (ROADMAP item 3), so its s >= 2 columns are held
    # to the 1e-9 that test_series_zone_matches_hypergeometric[16-7] holds
    # phi to there
    full = phi_matrix(params, lam, nodes)
    err = np.abs(lattice.resample(phi_matrix(params, lattice.nodes, nodes)) - full)
    series = nodes >= 2.0 if (m_v, m_z) == (16, 7) else np.zeros(nodes.size, dtype=bool)
    assert np.max(err[:, ~series]) <= 1e-13 * np.max(np.abs(full))
    assert np.max(err[:, series], initial=0.0) <= 1e-9 * np.max(np.abs(full))
    v = weights * transform._spline(f.s_grid, f.values, nodes) * density(params, nodes)
    ref = full @ v
    got = sft_forward(params, f, lam).values
    tol = 1e-9 if (m_v, m_z) == (16, 7) else 1e-13
    assert np.max(np.abs(got - ref)) <= tol * np.max(np.abs(ref))
    # the inverse and the propagator: the two products round at the scale
    # of sum |amp phi|, on which the lattice's bound e^-42 sum |amp| sup|phi|
    # is also stated; the oscillating amplitudes cancel to 7e-4 of it in
    # max|f| on (4, 3)
    lam = np.linspace(0.0, 48.0, 2000)
    fh = SpectralProfile(lam, np.exp(-(((lam - 16.0) / 6.0) ** 2) + 1j * lam))
    s = np.linspace(0.0, 6.0, 200)
    nodes, amp = transform.inverse_quadrature(params, fh, 6.0)
    assert isinstance(transform._resampler(nodes, s), transform._Lattice)
    full = phi_matrix(params, nodes, s).T
    scale = np.max(np.abs(full) @ np.abs(amp))
    got = sft_inverse(params, fh, s).values
    assert np.max(np.abs(got - full.astype(complex) @ amp)) <= 1e-13 * scale
    kind = PhaseKind("frac", a=2.0)
    kern = PropagatorKernel(params, fh, kind, s, t_max=0.05)
    assert isinstance(kern.resampler, transform._Lattice)
    dpsi = abs(phase_derivs(kind, params, fh.top)[0])
    nodes, amp = transform.inverse_quadrature(params, fh, 6.0 + 0.05 * dpsi)
    assert np.array_equal(amp, kern.amp)
    full = phi_matrix(params, nodes, s).T.astype(complex)
    scale = np.max(np.abs(full) @ np.abs(amp))
    for t in (0.0, 0.03, np.geomspace(1e-4, 0.05, 8)):
        mult = np.exp(1j * np.multiply.outer(phase(kind, params, nodes), t))
        ref = full @ ((amp if np.ndim(t) == 0 else amp[:, None]) * mult)
        assert np.max(np.abs(kern.apply(t) - ref)) <= 1e-13 * scale


# a band from lambda = 0 (the benchmark's forward transform), a case-1 band
# (N = 1024, eps = 0.05) and a case-2 band (N = 64, eps = 0.25)
CHEBYSHEV_BANDS = [
    ((0.0, 7.0), np.linspace(0.0, 6.0, 40)),
    ((992.0, 1056.0), np.linspace(0.05, 0.1, 16)),
    ((64.0, 128.0), np.linspace(0.0, 0.25 / 64.0, 48)),
]


@pytest.mark.parametrize("m_v,m_z", [(2, 0), (2, 1), (4, 3), (4, 7), (6, 2), (8, 1), (16, 7)])
def test_chebyshev_rows_resample_the_direct_rows(m_v, m_z):
    # phi on the d + 1 Chebyshev extrema of the band, resampled to 701 rows
    # (one of them on an interior node), against phi formed on those rows
    params = new_space(m_v, m_z)
    for (lo, hi), s in CHEBYSHEV_BANDS:
        d = transform._chebyshev_degree(0.25 * s.max() * (hi - lo))
        lam = np.linspace(lo, hi, 700)
        lam = np.append(lam, transform._Chebyshev(lam, d).nodes[d // 2])
        cheb = transform._Chebyshev(lam, d)
        on_nodes = phi_matrix(params, cheb.nodes, s)
        ref = phi_matrix(params, lam, s)
        got = cheb.resample(on_nodes)
        err, scale = np.abs(got - ref), np.max(np.abs(ref))
        # on (16, 7) the exponential series rounds near s = 2 at lambda < 1,
        # in the direct rows and the node rows alike (ROADMAP item 3): the
        # 1e-9 that test_series_zone_matches_hypergeometric[16-7] holds phi
        # to there, on the s >= 2 columns alone
        series = s >= 2.0 if (m_v, m_z) == (16, 7) else np.zeros(s.size, dtype=bool)
        assert np.max(err[:, ~series]) <= 1e-13 * scale
        assert np.max(err[:, series], initial=0.0) <= 1e-9 * scale
        # the weights, in blocks of at most phi_matrix's own block of cells;
        # a row on a node (both ends and the interior one) is exactly one-hot
        w = np.zeros((lam.size, d + 1))
        for rows, first, block in cheb.blocks():
            assert first == 0 and block.size <= spherical._BLOCK_CELLS
            w[rows] = block
        for i, j in ((0, 0), (699, d), (700, d // 2)):
            assert np.array_equal(w[i], np.eye(d + 1)[j])
            assert np.array_equal(got[i], on_nodes[j])
        # the transposed weights carry coefficients onto the nodes
        coef = np.exp(1j * lam)
        back = cheb.gather(coef, cheb.blocks())
        assert np.max(np.abs(back - w.T @ coef)) <= 1e-14 * np.max(np.abs(back))


@pytest.mark.parametrize("half", [1e-20, 0.3, 1.0, 7.5, 21.0, 100.0, 1000.0])
def test_chebyshev_degree_is_the_least_that_meets_the_bound(half):
    # 4 (sigma R/2)^(d+1) / (d+1)! <= e^-42 at d and not at d - 1, in 30 digits
    d = transform._chebyshev_degree(half)
    with mp.workdps(30):
        bound = [4 * mp.mpf(half) ** (k + 1) / mp.factorial(k + 1) for k in (d - 1, d)]
        assert bound[1] <= mp.exp(-42)
        assert d == 0 or bound[0] > mp.exp(-42)


def test_a_band_flat_to_e42_takes_one_node(space21):
    # 64 rows on [0, 1e-300] with s up to 6: sigma R / 2 is under e^-42 / 4,
    # so phi is flat across the band and every row takes the one node's
    # value exactly (a spline through these rows would read any rounding
    # as a slope near 1e285)
    lam, s = np.linspace(0.0, 1e-300, 64), np.linspace(0.0, 6.0, 40)
    cheb = transform._resampler(lam, s)
    assert cheb.nodes.size == 1
    on_node = phi_matrix(space21, cheb.nodes, s)
    assert np.array_equal(cheb.resample(on_node), np.repeat(on_node, 64, axis=0))


def test_subnormal_band_takes_a_resampler():
    # 64 rows on [0, 1e-310] with s up to 6: lambda_top sigma is subnormal
    # and the lattice step h = u / sigma underflows to 0, so the lattice is
    # skipped; the band is flat to e^-42 and takes one Chebyshev node
    nodes, _ = panel_rule(0.0, 6.0, 1.0)
    resampler = transform._resampler(np.linspace(0.0, 1e-310, 64), nodes)
    assert isinstance(resampler, transform._Chebyshev) and resampler.nodes.size == 1


def test_default_transform_takes_the_lattice():
    # the default `drwave transform`: its 7,824 lambda over the forward's
    # 31,296 panel nodes on [0, 12], and the inverse's 23,472 nodes on
    # [0, 256] at rate 9 over the roundtrip's 384 s on [0, 9], take the
    # lattice, 1,330 and 1,042 rows.  No phi is formed
    from drwave import cli

    assert float(cli.DEFAULTS["grids.s_max"]) == 12.0
    lam = cli._lambda_grid(cli.DEFAULTS)
    nodes, _ = panel_rule(0.0, 12.0, float(lam[-1]))
    inverse_nodes, _ = panel_rule(0.0, float(lam[-1]), 9.0)
    assert (lam.size, nodes.size, inverse_nodes.size) == (7824, 31296, 23472)
    forward = transform._resampler(lam, nodes)
    inverse = transform._resampler(inverse_nodes, np.linspace(0.0, 9.0, 384))
    assert isinstance(forward, transform._Lattice) and forward.nodes.size == 1330
    assert isinstance(inverse, transform._Lattice) and inverse.nodes.size == 1042


def test_isometry_beta_zero(space21):
    # sobolev_norm at beta=0 equals sqrt(||f||^2 / C) through the isometry
    c = inversion_constant(space21)
    f = _gaussian_profile(2.5)
    fh = sft_forward(space21, f, LAM_GRID)
    h0 = sobolev_norm(space21, fh, 0.0)
    norm_f2 = grid_integral(np.abs(f.values) ** 2 * density(space21, f.s_grid), f.s_grid)
    assert h0 == pytest.approx(math.sqrt(norm_f2 / c), rel=1e-3)


def test_sobolev_norm_zero_and_validation(space21):
    fh = SpectralProfile(LAM_GRID, np.zeros(512, dtype=complex))
    assert sobolev_norm(space21, fh, 0.7) == 0.0
    with pytest.raises(ValidationError):
        sobolev_norm(space21, fh, -0.1)


@pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
def test_sobolev_norm_rejects_non_finite_beta(space21, beta):
    fh = _bump_spectrum(2.0, 4.0)
    with pytest.raises(ValidationError, match="beta"):
        sobolev_norm(space21, fh, beta)


def test_sobolev_monotone_in_beta(space21):
    # spectra supported in {lambda^2 + Q^2/4 >= 1} give nondecreasing norms
    fh = _bump_spectrum(2.0, 6.0)
    norms = [sobolev_norm(space21, fh, b) for b in (0.0, 0.2, 0.5, 1.0, 1.7)]
    assert all(a <= b * (1 + 1e-12) for a, b in zip(norms, norms[1:]))


def test_correspondence_pointwise_formula(space21):
    fg = _bump_spectrum(1.0, 2.0)
    fh = euclidean_correspondence_inverse(space21, fg)
    i = np.searchsorted(fg.lambda_grid, 1.5)
    lam = fg.lambda_grid[i]
    expected = (
        lam ** (space21.n - 1) * fg.values[i] / plancherel_density(space21, lam)
    )
    assert fh.values[i] == pytest.approx(expected, rel=1e-14)


def test_correspondence_roundtrip_and_support(space21):
    fh = _bump_spectrum(1.0, 2.0)
    fg = euclidean_spectrum(space21, fh)
    back = euclidean_correspondence_inverse(space21, fg)
    assert np.max(np.abs(back.values - fh.values)) <= 1e-12 * np.max(np.abs(fh.values))
    assert back.support_hint == fh.support_hint
    # support preserved exactly: zero stays zero
    assert np.array_equal(back.values == 0, fh.values == 0)


def test_correspondence_rejects_origin_support(space21):
    lam = np.linspace(0.0, 4.0, 101)
    vals = np.exp(-lam).astype(complex)
    fg = SpectralProfile(lam, vals)
    with pytest.raises(DomainError):
        euclidean_correspondence_inverse(space21, fg)


def test_sobolev_comparison_example(space21):
    fh = _bump_spectrum(2.0, 4.0)
    n1, n2 = sobolev_norm(space21, fh, 0.25), sobolev_norm(space21, fh, 0.5)
    assert n1 / n2 <= 2.0 ** (-0.25)


def test_sobolev_comparison_random_sweep(space21, rng):
    # 100 random compactly-supported-away-from-0 spectra: zero violations
    for _ in range(100):
        lo = float(rng.uniform(0.3, 5.0))
        width = float(rng.uniform(0.5, 6.0))
        n = int(rng.integers(120, 260))
        lam = np.linspace(lo, lo + width, n)
        vals = rng.normal(size=n) + 1j * rng.normal(size=n)
        vals[0] = vals[-1] = 0.0
        fh = SpectralProfile(lam, vals, support_hint=(lo, lo + width))
        b1 = float(rng.uniform(0.0, 1.5))
        b2 = b1 + float(rng.uniform(0.01, 1.5))
        n1, n2 = sobolev_norm(space21, fh, b1), sobolev_norm(space21, fh, b2)
        assert n1 <= lo ** (-(b2 - b1)) * n2 * (1.0 + 1e-12)


def test_disagreeing_calibration_profiles_raise(monkeypatch, space21):
    ratios = iter([1.0, 1.0, 1.01])
    monkeypatch.setattr(transform, "_plancherel_ratio", lambda params, f: next(ratios))
    with pytest.raises(CalibrationError, match="calibration profiles disagree"):
        calibrate_inversion_constant(space21)
