import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest

from drwave import dispersive, transform
from drwave.bumps import eta_dyadic
from drwave.dispersive import (
    PhaseKind,
    default_t_grid,
    maximal_function,
    phase,
    phase_derivs,
    propagate,
    verify_phase_asymptotics,
)
from drwave.errors import DomainError, ResolutionError, ValidationError
from drwave.oscillatory import phase_diff
from drwave.profiles import SpectralProfile
from drwave.space import new_space
from drwave.spherical import phi_matrix
from drwave.transform import sft_inverse, sobolev_norm
from oracles import chi_lowpass

ALL_KINDS = [
    PhaseKind("frac", a=1.5),
    PhaseKind("frac", shifted=True, a=1.5),
    PhaseKind("boussinesq"),
    PhaseKind("boussinesq", shifted=True),
    PhaseKind("beam"),
    PhaseKind("beam", shifted=True),
]


def _spectrum(lo=1.0, hi=6.0, n=2048, lam_max=8.0):
    from drwave.bumps import bump_unit

    lam = np.linspace(0.0, lam_max, n)
    vals = bump_unit(2.0 * (lam - lo) / (hi - lo) - 1.0)
    return SpectralProfile(lam, vals.astype(complex), support_hint=(lo, hi))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_propagator_rejects_non_finite_spectrum(space21, bad):
    fh = _spectrum()
    vals = fh.values.copy()
    vals[1000] = bad
    with pytest.raises(ValidationError, match="finite"):
        dispersive.PropagatorKernel(space21, SpectralProfile(fh.lambda_grid, vals, fh.support_hint),
                                    PhaseKind("frac", a=1.5), np.linspace(0.0, 4.0, 32), 0.1)


# ---------------------------------------------------------------------------
# phases
# ---------------------------------------------------------------------------

def test_phase_table_values(space21):
    assert phase(PhaseKind("frac", shifted=True, a=2.0), space21, 3.0) == 9.0
    assert phase(PhaseKind("frac", a=2.0), space21, 0.0) == 1.0  # Q^2/4 with Q = 2
    expected = math.sqrt(101.0) * math.sqrt(102.0)
    assert phase(PhaseKind("boussinesq"), space21, 10.0) == pytest.approx(expected, rel=1e-12)


def test_phase_derivs_closed_form(space21):
    assert phase_derivs(PhaseKind("frac", shifted=True, a=2.0), space21, 5.0) == (10.0, 2.0)


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.name + str(k.a or ""))
def test_phase_derivs_match_finite_differences(kind, space21):
    for lam in (0.5, 2.0, 50.0):
        d1, d2 = phase_derivs(kind, space21, lam)
        h = 1e-3 * lam
        f = lambda x: phase(kind, space21, x)
        fd1 = (f(lam - 2 * h) - 8 * f(lam - h) + 8 * f(lam + h) - f(lam + 2 * h)) / (12 * h)
        fd2 = (-f(lam - 2 * h) + 16 * f(lam - h) - 30 * f(lam)
               + 16 * f(lam + h) - f(lam + 2 * h)) / (12 * h * h)
        assert d1 == pytest.approx(fd1, rel=1e-6)
        assert d2 == pytest.approx(fd2, rel=1e-6)


def test_phase_second_derivative_asymptote(space21):
    # psi''(lambda)/lambda^(a-2) -> a(a-1) for the fractional variant
    a = 1.5
    _, d2 = phase_derivs(PhaseKind("frac", a=a), space21, 1e3)
    assert d2 / 1e3 ** (a - 2.0) == pytest.approx(a * (a - 1.0), rel=1e-2)


def test_phase_derivs_rejects_nonpositive(space21):
    with pytest.raises(DomainError):
        phase_derivs(PhaseKind("beam"), space21, 0.0)


def test_phase_derivs_past_the_double_range_raise(space21):
    # psi' of frac:5 passes the double range from lambda ~ 7.7e76, and those
    # of frac:100 from lambda ~ 1.2e3: a DomainError, and no overflow warning
    frac5 = PhaseKind("frac", a=5.0)
    assert np.isfinite(phase_derivs(frac5, space21, 7.6e76)[0])
    for kind, lam in ((frac5, 7.8e76), (frac5, [1.0, 1e80]),
                      (PhaseKind("frac", a=100.0), np.logspace(0, 4, 5))):
        with pytest.raises(DomainError, match="not a finite double"):
            phase_derivs(kind, space21, lam)


def test_phase_past_the_double_range_raises(space21):
    # psi of frac:5 passes the double range from lambda ~ 4.5e61, and that of
    # frac:100 from lambda ~ 1.2e3: a DomainError, on a scalar or in an
    # array, where it read inf under an overflow warning
    frac5 = PhaseKind("frac", a=5.0)
    assert np.isfinite(phase(frac5, space21, 4.4e61))
    for kind, lam in ((frac5, 4.6e61), (frac5, 1e80), (frac5, [1.0, 1e80]),
                      (PhaseKind("frac", a=100.0), np.logspace(0, 4, 5))):
        with pytest.raises(DomainError, match="not a finite double"):
            phase(kind, space21, lam)


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.name + str(k.a or ""))
def test_phase_rejects_lambda_whose_square_leaves_the_double_range(kind, space21):
    # lambda^2 is finite up to 1.34e154 (psi = lambda^2 + Q^2/4 of frac:2
    # reads it there); past it psi and psi' raise, on a scalar or in an array
    frac2 = PhaseKind("frac", a=2.0)
    assert phase(frac2, space21, 1.3e154) == 1.3e154**2
    assert phase_derivs(frac2, space21, [1.0, 1.3e154])[0][1] == 2.6e154
    for call in (phase, phase_derivs):
        for lam in (1.35e154, [1.0, 1e300]):
            with pytest.raises(DomainError, match="lambda\\^2"):
                call(kind, space21, lam)


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.name + str(k.a or ""))
def test_phase_asymptotics_pass(kind, space21):
    assert verify_phase_asymptotics(kind, space21).passed


def test_phase_asymptotics_classical_schrodinger(space21):
    rep = verify_phase_asymptotics(PhaseKind("frac", a=2.0), space21)
    assert rep.passed and rep.delta1 == 2.0 and rep.delta2 == 2.0
    rep_s = verify_phase_asymptotics(PhaseKind("frac", shifted=True, a=2.0), space21)
    assert rep_s.passed


def test_phase_asymptotics_generic_monomial(space21, monkeypatch):
    # psi = lambda^3 has delta1 = delta2 = 3; with delta2 = 2 written into
    # its table entry, the psi'' envelope lambda^(delta2-2) is wrong and the
    # sweep must say so
    cubic = PhaseKind("frac", shifted=True, a=3.0)
    assert verify_phase_asymptotics(cubic, space21).passed
    wrong = dataclasses.replace(dispersive._FAMILIES["frac"], delta2=lambda a: 2.0)
    monkeypatch.setitem(dispersive._FAMILIES, "frac", wrong)
    rep = verify_phase_asymptotics(cubic, space21)
    assert rep.delta2 == 2.0 and not rep.passed


# every derivative formula of the table against mpmath differentiation of
# psi(lambda) itself, across the small-lambda regime where the shifted
# variants lose their gap
_PSI_MP = {
    "frac": lambda lam, gap, a: (lam**2 + gap) ** (mp.mpf(a) / 2),
    "frac-shifted": lambda lam, gap, a: lam ** mp.mpf(a),
    "boussinesq": lambda lam, gap, a: mp.sqrt((lam**2 + gap) * (lam**2 + gap + 1)),
    "boussinesq-shifted": lambda lam, gap, a: lam * mp.sqrt(lam**2 + 1),
    "beam": lambda lam, gap, a: mp.sqrt(1 + (lam**2 + gap) ** 2),
    "beam-shifted": lambda lam, gap, a: mp.sqrt(1 + lam**4),
}


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.name + str(k.a or ""))
def test_phase_derivs_match_mpmath(kind, space21):
    gap = mp.mpf(space21.Q.numerator) ** 2 / (4 * mp.mpf(space21.Q.denominator) ** 2)
    psi = _PSI_MP[kind.name]
    with mp.workdps(50):
        for lam in (1e-6, 1e-3, 0.5, 2.0, 50.0, 1e4):
            d1, d2 = phase_derivs(kind, space21, lam)
            ref1 = mp.diff(lambda x: psi(x, gap, kind.a), mp.mpf(lam), 1)
            ref2 = mp.diff(lambda x: psi(x, gap, kind.a), mp.mpf(lam), 2)
            assert d1 == pytest.approx(float(ref1), rel=1e-10), lam
            assert d2 == pytest.approx(float(ref2), rel=1e-10), lam


# psi' and psi'' of Boussinesq and Beam in closed form, u = lambda^2 + gap
_DPSI_MP = {
    "boussinesq": lambda lam, u: (2 * lam * (u + mp.mpf(0.5)) / mp.sqrt(u * (u + 1)),
                                  2 * (u + mp.mpf(0.5)) / mp.sqrt(u * (u + 1))
                                  - lam**2 * (u * (u + 1)) ** mp.mpf(-1.5)),
    "beam": lambda lam, u: (2 * lam * u / mp.sqrt(1 + u**2),
                            2 * u / mp.sqrt(1 + u**2) + 4 * lam**2 * (1 + u**2) ** mp.mpf(-1.5)),
}


@pytest.mark.parametrize("kind", [k for k in ALL_KINDS if k.family != "frac"],
                         ids=lambda k: k.name)
def test_phases_stay_finite_where_u_squared_leaves_the_double_range(kind, space21):
    # from lambda ~ 1.16e77 on, u^2 passes the double range while psi ~ u
    # does not: psi, psi', psi'' and the difference against 60 digits
    gap = space21.q2_over_4 if not kind.shifted else 0.0
    psi = _PSI_MP[kind.name]
    with mp.workdps(60):
        for lam in (1e77, 1e100, 1e150, 1.3e154):
            x, x0 = mp.mpf(lam), mp.mpf(lam * (1 + 2**-20))
            d1, d2 = phase_derivs(kind, space21, lam)
            ref1, ref2 = _DPSI_MP[kind.family](x, x**2 + gap)
            assert phase(kind, space21, lam) == pytest.approx(float(psi(x, gap, None)), rel=1e-15)
            assert d1 == pytest.approx(float(ref1), rel=1e-15), lam
            assert d2 == pytest.approx(float(ref2), rel=1e-15), lam
            ref = psi(x, gap, None) - psi(x0, gap, None)
            got = phase_diff(kind, space21, lam, float(x0))
            assert got == pytest.approx(float(ref), rel=1e-14), lam


def test_phase_selector_parsing():
    k = PhaseKind.from_selector("frac:1.5")
    assert k.name == "frac" and k.a == 1.5
    assert PhaseKind.from_selector("beam-shifted").delta1 == 4.0
    with pytest.raises(ValidationError):
        PhaseKind.from_selector("frac")
    with pytest.raises(ValidationError):
        PhaseKind.from_selector("heat")
    with pytest.raises(ValidationError):
        PhaseKind("frac", a=1.0)


# ---------------------------------------------------------------------------
# propagator and maximal function
# ---------------------------------------------------------------------------

def test_propagate_t_zero_is_inverse(space21):
    # one quadrature serves both: at t = 0 they agree bit for bit
    fh = _spectrum()
    s = np.linspace(0.0, 4.0, 96)
    b = sft_inverse(space21, fh, s)
    for kind in ALL_KINDS:
        assert np.array_equal(propagate(space21, fh, kind, 0.0, s).values, b.values), kind


@pytest.mark.parametrize("m_v,m_z", [(2, 1), (4, 3)])
def test_apply_matches_the_complex_kernel_product(m_v, m_z):
    # the real kernel multiplies the complex coefficients without a complex
    # copy of itself: the complex product on the fine quadrature nodes up to
    # rounding, though the kernel is formed on the lambda lattice
    params = new_space(m_v, m_z)
    fh, kind, s = _spectrum(), PhaseKind("boussinesq"), np.linspace(0.0, 4.0, 96)
    kern = dispersive.PropagatorKernel(params, fh, kind, s, t_max=1.0)
    dpsi = abs(phase_derivs(kind, params, fh.top)[0])
    nodes, amp = transform.inverse_quadrature(params, fh, 4.0 + dpsi)
    assert np.array_equal(amp, kern.amp)
    full = phi_matrix(params, nodes, s).T.astype(complex)
    for t in (0.3, np.geomspace(1e-3, 1.0, 64)):
        mult = np.exp(1j * np.multiply.outer(kern.psi_nodes, t))
        ref = full @ ((kern.amp if np.ndim(t) == 0 else kern.amp[:, None]) * mult)
        got = kern.apply(t)
        assert got.shape == ((96,) if np.ndim(t) == 0 else (96, 64))
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
    assert kern.kernel_t.dtype == np.float64


@pytest.mark.parametrize("m_v,m_z", [(2, 0), (2, 1), (4, 3), (16, 7)])
def test_lattice_propagator_matches_the_fine_node_product(m_v, m_z):
    # the kernel is built on a coarse lambda lattice and the multiplier stays
    # on the fine nodes: the complex product on the fine nodes up to 1e-13 of
    # max|f| = max|S_0 f|.  Both products round at the scale of sum|amp phi|,
    # which the solution's own max falls far below once it has dispersed
    # (at t = 0.7 to 1.7e-4 of max|f| on (16, 7))
    params = new_space(m_v, m_z)
    kind = PhaseKind("frac", a=2.0)
    lam = np.linspace(0.0, 8.0, 400)
    fh = SpectralProfile(lam, np.exp(-((lam - 3.0) ** 2) + 1j * lam))
    s = np.linspace(0.0, 6.0, 200)
    kern = dispersive.PropagatorKernel(params, fh, kind, s, t_max=1.0)
    dpsi = abs(phase_derivs(kind, params, fh.top)[0])
    nodes, amp = transform.inverse_quadrature(params, fh, 6.0 + dpsi)
    assert not isinstance(kern.resampler, transform._Direct)
    full = phi_matrix(params, nodes, s).T.astype(complex)
    scale = np.max(np.abs(full @ amp))
    for t in (0.0, 0.7, np.geomspace(1e-3, 1.0, 16)):
        mult = np.exp(1j * np.multiply.outer(phase(kind, params, nodes), t))
        ref = full @ ((amp if np.ndim(t) == 0 else amp[:, None]) * mult)
        assert np.max(np.abs(kern.apply(t) - ref)) <= 1e-13 * scale


@pytest.mark.parametrize("s_max,n_s", [(9.0, 400), (1.0, 512)])
def test_propagator_memory_is_bounded_by_the_direct_kernel(space21, s_max, n_s):
    # over 4,600 to 15,100 nodes on [0, 128], the kernel on the resampler's
    # rows, the kept weights and one apply stay under the bytes of the phi
    # kernel on the nodes.  At 400 s the lattice's weights are banded, under
    # 4m cells per node, where a dense (nodes x lattice) matrix would take
    # 593; at 512 s the Chebyshev rows' weights are dense, d + 1 < n_s per node
    import tracemalloc

    lam = np.linspace(0.0, 128.0, 4096)
    fh = SpectralProfile(lam, np.exp(-(((lam - 50.0) / 20.0) ** 2)).astype(complex))
    s = np.linspace(0.0, s_max, n_s)
    kind = PhaseKind("frac", a=2.0)
    tracemalloc.start()
    try:
        kern = dispersive.PropagatorKernel(space21, fh, kind, s, t_max=0.01)
        out = kern.apply(0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = sum(w.size for _, _, w in kern.weights)
    if n_s == 400:
        assert isinstance(kern.resampler, transform._Lattice)
        assert kept < kern.amp.size * 4 * kern.resampler.m
    else:
        assert isinstance(kern.resampler, transform._Chebyshev)
        assert kept == kern.amp.size * kern.resampler.nodes.size
        assert kern.resampler.nodes.size < n_s
    assert peak < kern.amp.size * n_s * 8
    assert np.all(np.isfinite(out))


def test_propagation_conserves_h0(space21):
    # the multiplier is unimodular: the propagated spectrum has the same
    # H^0 norm at the quadrature level
    fh = _spectrum()
    kind = PhaseKind("boussinesq")
    mult = np.exp(1j * 0.37 * phase(kind, space21, fh.lambda_grid))
    moved = SpectralProfile(fh.lambda_grid, fh.values * mult, fh.support_hint)
    assert sobolev_norm(space21, moved, 0.0) == pytest.approx(
        sobolev_norm(space21, fh, 0.0), rel=1e-12
    )


def test_smooth_data_convergence(space21):
    # max_s |S_t f - f| decreases monotonically along t = 1e-1..1e-4
    fh = _spectrum()
    kind = PhaseKind("frac", a=2.0)
    s = np.linspace(0.0, 3.0, 64)
    f0 = sft_inverse(space21, fh, s)
    sups = []
    for t in (1e-1, 1e-2, 1e-3, 1e-4):
        ft = propagate(space21, fh, kind, t, s)
        sups.append(float(np.max(np.abs(ft.values - f0.values))))
    assert all(a > b for a, b in zip(sups, sups[1:]))


def test_propagate_grid_resolution_error(space21):
    lam = np.linspace(0.0, 64.0, 128)  # far too coarse for t = 1
    vals = np.exp(-((lam - 32.0) ** 2)).astype(complex)
    fh = SpectralProfile(lam, vals)
    with pytest.raises(ResolutionError):
        propagate(space21, fh, PhaseKind("frac", a=2.0), 0.9, np.linspace(0, 2, 16))


def test_maximal_zero_spectrum(space21):
    fh = SpectralProfile(np.linspace(0, 4, 256), np.zeros(256, dtype=complex))
    t_grid = np.linspace(0.1, 0.5, 16)  # dt * psi_beam(4) < pi/4
    out = maximal_function(space21, fh, PhaseKind("beam"), t_grid,
                           np.linspace(0, 2, 32))
    assert np.all(out.values == 0)


def test_maximal_dominates_and_refines(space21):
    fh = _spectrum()
    kind = PhaseKind("frac", a=2.0)
    s = np.linspace(0.0, 3.0, 48)
    t_grid = default_t_grid(space21, kind, 6.0, n_points=48)
    sup = maximal_function(space21, fh, kind, t_grid, s)
    scale = np.max(sup.values)
    # slack covers the node-set difference between the standalone propagate
    # quadrature and the shared kernel inside the maximal function
    for t in t_grid[::11]:
        prop = np.abs(propagate(space21, fh, kind, float(t), s).values)
        assert np.all(sup.values >= prop - 1e-8 * scale)
    finer = maximal_function(space21, fh, kind,
                             default_t_grid(space21, kind, 6.0, n_points=96), s)
    assert np.all(finer.values >= sup.values - 1e-12 * scale)
    # interleaving the midpoints raises the grid supremum by little
    mids = 0.5 * (t_grid[1:] + t_grid[:-1])
    refined = maximal_function(space21, fh, kind, np.concatenate([t_grid, mids]), s)
    inc = float(np.max(refined.values - sup.values))
    assert 0.0 <= inc < 0.05 * scale


def test_maximal_t_grid_validation(space21):
    fh = _spectrum()
    with pytest.raises(DomainError):
        maximal_function(space21, fh, PhaseKind("frac", a=2.0), np.array([0.5, 1.0]),
                         np.linspace(0, 1, 8))
    with pytest.raises(ResolutionError):
        maximal_function(space21, fh, PhaseKind("frac", a=2.0), np.array([1e-4, 0.9]),
                         np.linspace(0, 1, 8))


def test_maximal_needs_a_time(space21):
    with pytest.raises(ValidationError, match="t_grid"):
        maximal_function(space21, _spectrum(), PhaseKind("frac", a=2.0), np.array([]),
                         np.linspace(0, 1, 8))


def test_default_t_grid_respects_rule(space21):
    kind = PhaseKind("frac", shifted=True, a=2.0)
    grid = default_t_grid(space21, kind, 16.0, n_points=32)
    assert np.max(np.diff(grid)) * phase(kind, space21, 16.0) <= math.pi / 4.0
    assert grid[0] > 0 and grid[-1] < 1


def _doubled_t_grid(params, kind, lam_max, n_points):
    # the doubling loop as it stood before its closed-form screen; reference
    # for grids that meet the pi/4 rule at up to 2^22 points
    psi_max = float(phase(kind, params, lam_max))
    n = n_points
    while True:
        grid = np.geomspace(1e-4, 1.0 - 1e-9, n)
        if float(np.max(np.diff(grid))) * psi_max <= math.pi / 4.0 or n > 2**22:
            return grid
        n *= 2


@pytest.mark.parametrize("kind,lam_max,n_points", [
    (PhaseKind("frac", shifted=True, a=2.0), 16.0, 32),
    (PhaseKind("boussinesq"), 6.0, 48),
    (PhaseKind("frac", a=2.0), 256.0, 512),
    (PhaseKind("beam"), 8.0, 3),
])
def test_default_t_grid_unchanged_where_rule_holds(space21, kind, lam_max, n_points):
    want = _doubled_t_grid(space21, kind, lam_max, n_points)
    got = default_t_grid(space21, kind, lam_max, n_points=n_points)
    assert got.size == want.size and np.array_equal(got, want)


@pytest.mark.parametrize("n_points", [0, 1])
def test_default_t_grid_needs_two_points(space21, n_points):
    with pytest.raises(ValidationError):
        default_t_grid(space21, PhaseKind("frac", a=2.0), 6.0, n_points=n_points)


@pytest.mark.parametrize("n_points", [512, 2**23])
def test_default_t_grid_gives_up_before_allocating(space21, monkeypatch, n_points):
    # psi(1e4) ~ 1e8 needs ~1e9 points; no grid is built on the way to the error
    sizes = []
    geomspace = np.geomspace
    monkeypatch.setattr(np, "geomspace", lambda a, b, n: sizes.append(n) or geomspace(a, b, n))
    with pytest.raises(ResolutionError):
        default_t_grid(space21, PhaseKind("frac", a=2.0), 1e4, n_points=n_points)
    assert sizes == []


# ---------------------------------------------------------------------------
# dyadic partition
# ---------------------------------------------------------------------------

def test_eta_is_the_difference_of_two_lowpass_bumps():
    # one transition per node gives chi(xi) - chi(2 xi) bit for bit, at the
    # edges of the support and of the two ramps and beside them too
    edges = np.array([0.5, 1.0, 2.0])
    xi = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 3.0),
                         [0.0, 0.25, 2.5, 7.0, 1e300, np.inf],
                         np.random.default_rng(3).uniform(-2.5, 2.5, 100_000)])
    xi = np.concatenate([xi, -xi])
    assert np.array_equal(eta_dyadic(xi), chi_lowpass(xi) - chi_lowpass(2.0 * xi))


def test_partition_of_unity():
    xi = np.geomspace(0.01, 100.0, 2000)
    total = chi_lowpass(xi) + (1.0 - chi_lowpass(xi))
    assert np.max(np.abs(total - 1.0)) < 1e-12
    # eta support inside {1/2 < |xi| < 2}
    assert np.all(eta_dyadic(np.array([0.49, 2.01, 0.1, 5.0])) == 0)
    assert np.all(eta_dyadic(np.array([0.7, 1.0, 1.8])) > 0)
    # telescoping: sum over k of eta(2^-k xi) reconstructs 1
    ks = np.arange(-12, 13)
    for x in (0.03, 1.0, 7.7, 60.0):
        assert np.sum(eta_dyadic(x / 2.0**ks)) == pytest.approx(1.0, abs=1e-12)
