import math

import numpy as np
import pytest

from drwave import experiments, transform
from drwave.bumps import bump_12, bump_unit
from drwave.dispersive import PhaseKind, phase, phase_derivs
from drwave.errors import ResolutionError, ValidationError
from drwave.experiments import (
    SlopeFit,
    _case1_linearized_min,
    case1_run,
    case2_run,
    fit_loglog_slope,
    implied_p_bound,
    transference_check,
)
from drwave.special import _cis, plancherel_density
from drwave.quadrature import grid_integral, panel_rule
from drwave.space import new_space
from drwave.spherical import phi_matrix
from drwave.transform import sobolev_norm
from oracles import case1_family, case2_family, euclidean_spectrum, phi_hyp

CASE1_N = [64, 128, 256, 512, 1024]
CASE1_BENCH_N = [4**k for k in range(3, 9)]     # the benchmark's case-1 list, 64 .. 65536
CASE1_BETAS = [0.1, 0.25, 0.4]
CASE2_N = [8, 11, 16, 23, 32, 45, 64]


def test_fit_requires_five_points():
    with pytest.raises(ValidationError):
        fit_loglog_slope([1, 2, 4, 8], [1, 2, 4, 8])


@pytest.mark.parametrize("x", [[64] * 5, [1, 2, 4, 8, 8], [8, 8, 16, 16, 32, 32, 32]])
def test_fit_requires_five_distinct_points(x):
    # repeated x leave the least-squares fit rank-deficient
    with pytest.raises(ValidationError, match="distinct"):
        fit_loglog_slope(x, np.arange(1.0, len(x) + 1.0))


def test_slope_fit_records_the_fit():
    x, y = [1, 2, 4, 8, 16], [3.0, 6.1, 11.8, 24.5, 47.0]
    slope, rms = fit_loglog_slope(x, y)
    assert SlopeFit.fit("q", x, y, 1.0, 0.05) == SlopeFit("q", slope, 1.0, 0.05, rms)


def test_case1_family_support_and_sign(space21):
    fam = case1_family(space21, 256)
    lo, hi = fam.support_hint
    assert (lo, hi) == (240.0, 272.0)
    outside = (fam.lambda_grid < lo) | (fam.lambda_grid > hi)
    assert np.all(fam.values[outside] == 0)
    # the bare bump recovered from the family is nonnegative
    bare = fam.values.real * np.sqrt(plancherel_density(space21, fam.lambda_grid)) * 16.0
    assert np.all(bare >= 0)
    assert np.max(bare) == pytest.approx(1.0, rel=1e-3)


def test_case1_family_validation(space21):
    with pytest.raises(ValidationError):
        case1_family(space21, 8)


def test_case1_norm_slopes(space21):
    # log-log slope of the H^beta norm against N equals beta - 1/4
    for beta in (0.1, 0.25):
        norms = [sobolev_norm(space21, case1_family(space21, n), beta) for n in CASE1_N]
        slope, rms = fit_loglog_slope(CASE1_N, norms)
        assert slope == pytest.approx(beta - 0.25, abs=0.05)
        assert rms < 0.02


def test_case1_run_passes(space21):
    rep = case1_run(space21, 2.0, [0.1, 0.25, 0.4], CASE1_N)
    assert rep.verdict == "pass"
    slopes = {f.quantity: f.slope for f in rep.fitted_slopes}
    assert slopes["sobolev_norm(beta=0.1)"] < 0
    assert slopes["sobolev_norm(beta=0.4)"] > 0
    # threshold crossing: slope(beta) = beta - 1/4 crosses zero at 1/4
    b = np.array([0.1, 0.4])
    s = np.array([slopes["sobolev_norm(beta=0.1)"], slopes["sobolev_norm(beta=0.4)"]])
    crossing = b[0] - s[0] * (b[1] - b[0]) / (s[1] - s[0])
    assert crossing == pytest.approx(0.25, abs=0.05)


def test_case1_run_pre_asymptotic_flag(space21):
    rep = case1_run(space21, 1.5, [0.1], [16, 23, 32, 45, 64])
    assert rep.verdict == "no-verdict"
    assert ("pre_asymptotic_regime", 1.0) in rep.scalars


def test_case1_linearized_min_beyond_s2_matches_rk4_kernel(space21, monkeypatch):
    # epsilon = 2 puts every s in [2, 4], where the Bessel series no longer
    # converges; the kernel the case-1 minimum reads must be the closed form
    # there.  It is formed on 75 Chebyshev rows for the 2,120 nodes, and 24
    # evenly spaced ones are spot-checked.
    calls, phi_matrix = [], experiments.phi_matrix

    def spy(params, lams, s):
        kernel = phi_matrix(params, lams, s)
        calls.append((np.array(lams), np.array(s), kernel))
        return kernel

    monkeypatch.setattr(experiments, "phi_matrix", spy)
    kind = PhaseKind("frac", shifted=False, a=2.0)
    (got,) = _case1_linearized_min(space21, kind, 2.0, [64], 2.0)
    assert math.isfinite(got)
    (lams, s, kernel), = calls
    assert np.all(s >= 2.0)
    for i in np.linspace(0, lams.size - 1, 24).round().astype(int):
        ref = np.array([phi_hyp(space21, lams[i], x) for x in s])
        assert np.max(np.abs(kernel[i] - ref)) <= 1e-12


@pytest.mark.parametrize("n_freq,rows", [(64, (16, 200)), (65536, (65, 1216))])
def test_case1_minimum_on_chebyshev_rows_matches_the_direct_kernel(space21, monkeypatch,
                                                                   n_freq, rows):
    # the kernel is formed on the Chebyshev extrema of the bump's band and
    # resampled to the nodes: the minimum on the nodes' own kernel to 1e-13
    formed, phi_matrix = [], experiments.phi_matrix
    monkeypatch.setattr(experiments, "phi_matrix",
                        lambda *a: formed.append(len(a[1])) or phi_matrix(*a))
    kind = PhaseKind("frac", shifted=False, a=2.0)
    (got,) = _case1_linearized_min(space21, kind, 2.0, [n_freq], 0.05)
    monkeypatch.setattr(experiments, "_resampler", lambda lam, *a, **k: transform._Direct(lam))
    (ref,) = _case1_linearized_min(space21, kind, 2.0, [n_freq], 0.05)
    assert tuple(formed) == rows
    assert abs(got - ref) <= 1e-13 * abs(ref)


@pytest.mark.parametrize("a", [20.0, 40.0])
def test_case1_rule_follows_the_phase_slope(space21, monkeypatch, a):
    # at N = 64 the rule sized by psi' at the bump's edge has under 2^12
    # nodes (by 2^(a-1) it had about 1e6 panels at a = 20), and a rule of
    # twice its rate moves the minimum by under 1e-8
    nodes, panel_rules = [], experiments.panel_rules

    def rules(lo, hi, rate, min_panels, scale=1.0):
        xi, w, counts = panel_rules(lo, hi, scale * rate, min_panels)
        nodes.append(xi.size)
        return xi, w, counts

    kind = PhaseKind("frac", shifted=False, a=a)
    monkeypatch.setattr(experiments, "panel_rules", rules)
    (got,) = _case1_linearized_min(space21, kind, a, [64], 0.05)
    monkeypatch.setattr(experiments, "panel_rules",
                        lambda lo, hi, rate, min_panels: rules(lo, hi, rate, min_panels, 2.0))
    (ref,) = _case1_linearized_min(space21, kind, a, [64], 0.05)
    assert nodes[0] < 2**12 and nodes[1] > nodes[0]
    assert abs(got - ref) <= 1e-8 * abs(ref)


def _case1_min_alone(params, kind, a: float, n_freq: int, epsilon: float) -> float:
    """The case-1 minimum at one N worked alone: phi formed on the panel
    nodes themselves (the _Direct rows) and the multiplier one _cis of the
    (s x nodes) angles."""
    root = math.sqrt(n_freq)
    s = np.linspace(epsilon, 2.0 * epsilon, 16)
    scale = a * n_freq ** (a - 1.0)
    psi1, _ = phase_derivs(kind, params, n_freq + root)
    xi, w = panel_rule(-1.0, 1.0, root * 2.0 * epsilon * (1.0 + psi1 / scale) + 8.0,
                       min_panels=16)
    lam = n_freq - root * xi
    mult = _cis(np.outer(s / scale, phase(kind, params, lam)))
    amp = w * bump_unit(xi) * np.sqrt(plancherel_density(params, lam))
    return float(np.min(np.abs((mult * phi_matrix(params, lam, s).T) @ amp)))


def _collect_sobolev_rows(monkeypatch, column=None) -> list:
    """A list that collects, row by row, every norm the experiments' rows
    pass (`transform._sobolev_norms`) returns: each row's norms, or the one
    of the given beta column."""
    norms, rows = [], experiments._sobolev_norms

    def collect(*args):
        out = rows(*args)
        norms.extend((out if column is None else out[:, column]).tolist())
        return out

    monkeypatch.setattr(experiments, "_sobolev_norms", collect)
    return norms


@pytest.mark.parametrize("shifted", [False, True])
@pytest.mark.parametrize("a", [2.0, 1.5])
def test_case1_batch_matches_each_n_worked_alone(space21, monkeypatch, a, shifted):
    # the benchmark's list in one batch (one phi_matrix call on every band's
    # Chebyshev rows, the multiplier rotated along s) against each N alone:
    # the minima to 1e-13, and the Sobolev norms, which share the family's
    # Plancherel density, bit for bit
    kind = PhaseKind("frac", shifted=shifted, a=a)
    got = _case1_linearized_min(space21, kind, a, CASE1_BENCH_N, 0.05)
    for n_freq, m in zip(CASE1_BENCH_N, got):
        ref = _case1_min_alone(space21, kind, a, n_freq, 0.05)
        assert abs(m - ref) <= 1e-13 * ref
    norms = _collect_sobolev_rows(monkeypatch)
    case1_run(space21, a, CASE1_BETAS, CASE1_BENCH_N, shifted=shifted)
    assert norms == [[sobolev_norm(space21, case1_family(space21, n), beta)
                      for beta in CASE1_BETAS] for n in CASE1_BENCH_N]


@pytest.mark.parametrize("a,theta_min", [(2.0, 3300.0), (1.5, 4390.0)])
def test_rotated_multiplier_rows_stay_within_their_drift_bound(space21, a, theta_min):
    # at N = 65536, the benchmark's largest angles: each row k rows past its
    # anchor within u (10 theta + 8 k + 12) of _cis of the products, the
    # bound _multiplier_rows states; the anchor rows exact
    n_freq = 65536
    root = math.sqrt(n_freq)
    psi = phase(PhaseKind("frac", a=a), space21,
                np.linspace(n_freq - root, n_freq + root, 1216))
    s, ds = np.linspace(0.05, 0.1, 16, retstep=True)
    scale = a * n_freq ** (a - 1.0)
    angles = np.outer(s / scale, psi)
    theta = float(np.max(np.abs(angles)))
    assert theta > theta_min
    exact = _cis(angles)
    for j, row in enumerate(experiments._multiplier_rows(s / scale, ds / scale, psi)):
        k = j % experiments._CIS_ANCHOR_ROWS
        err = np.max(np.abs(row - exact[j]))
        assert err <= 2.0**-53 * (10.0 * theta + 8.0 * k + 12.0)
        assert k or err == 0.0


def test_case1_memory_is_bounded_by_the_largest_band(space21, monkeypatch):
    # the benchmark's case-1 arguments: the tracemalloc peak stays under
    # three complex (nodes x s) arrays of the largest band (1,216 of 3,064
    # nodes).  The whole list's complex product alone exceeds it, and so did
    # the one-N-at-a-time form's angles, multiplier and product (970 KB)
    import tracemalloc

    counts, panel_rules = [], experiments.panel_rules

    def spy(*args):
        rules = panel_rules(*args)
        counts.append(rules[2])
        return rules

    monkeypatch.setattr(experiments, "panel_rules", spy)
    args = (space21, 2.0, CASE1_BETAS, CASE1_BENCH_N)
    case1_run(*args)     # caches filled outside the trace
    tracemalloc.start()
    try:
        case1_run(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts[0].max() == 1216
    assert peak < 3 * 16 * counts[0].max() * experiments._CASE1_S_POINTS


def test_case1_run_validation(space21):
    with pytest.raises(ValidationError):
        case1_run(space21, 1.0, [0.1], CASE1_N)


@pytest.mark.parametrize("shifted", [False, True])
def test_case1_run_rejects_psi_past_the_double_range(space21, shifted):
    # psi ~ N^a at the largest N: a = 100 at N = 4096 is 1e361, which
    # raised OverflowError in t(s) = s/(a N^(a-1)); it is a usage error,
    # raised before any N is worked
    with pytest.raises(ValidationError, match="double range"):
        case1_run(space21, 100.0, [0.1], [64, 128, 256, 512, 4096], shifted=shifted)


def euclidean_sobolev_norm(params, fg, beta: float) -> float:
    """Inhomogeneous Sobolev norm of the radial Euclidean profile with
    spectrum Fg: (int (1+lambda^2)^beta |Fg|^2 lambda^(n-1) dlambda)^(1/2),
    up to the dimensional constant (irrelevant for comparability)."""
    lam = fg.lambda_grid
    w = (1.0 + lam**2) ** beta * lam ** (params.n - 1)
    return math.sqrt(max(grid_integral(np.abs(fg.values) ** 2 * w, lam), 0.0))


def test_case2_sobolev_comparability(space21):
    # the Euclidean and space Sobolev norms of corresponding profiles stay
    # within a fixed two-sided band across the whole family
    for beta in (0.25, 0.5):
        ratios = []
        for n in (8, 16, 32, 64):
            fam = case2_family(space21, n)
            fg = euclidean_spectrum(space21, fam)
            ratios.append(
                euclidean_sobolev_norm(space21, fg, beta)
                / sobolev_norm(space21, fam, beta)
            )
        assert max(ratios) / min(ratios) < 4.0


def test_case2_family_support_and_correspondence(space21):
    fam = case2_family(space21, 16)
    assert fam.support_hint == (16.0, 32.0)
    fg = euclidean_spectrum(space21, fam)
    expected = bump_12(fam.lambda_grid / 16.0)
    assert np.max(np.abs(fg.values - expected)) <= 5e-15
    with pytest.raises(ValidationError):
        case2_run(space21, 0.25, [4, 8, 16, 32, 64])


@pytest.mark.parametrize("mv,mz", [(2, 1), (4, 3), (16, 7), (8, 1)])
def test_case2_family_is_the_inline_weight(mv, mz):
    # built through the one correspondence weight, the family is within 1
    # ulp of lambda^(n-1) bump_12(lambda/N) / |c|^-2 written out (numpy
    # divides a complex number by a real one as a product with its
    # reciprocal), with the grid ends, zeros of the bump, exactly 0
    params = new_space(mv, mz)
    for n in (8, 64, 1024):
        lam = np.linspace(float(n), 2.0 * n, experiments._CASE2_POINTS)
        expected = np.zeros(lam.size)
        inner = lam[1:-1]
        expected[1:-1] = (inner ** (params.n - 1) * bump_12(inner / n)
                          / plancherel_density(params, inner))
        fam = case2_family(params, n)
        assert np.array_equal(fam.lambda_grid, lam)
        assert np.all(np.abs(fam.values - expected) <= np.spacing(np.abs(expected)))


def test_case2_run_beta_half(space21):
    rep = case2_run(space21, 0.5, CASE2_N)
    assert rep.verdict == "pass"
    slopes = {f.quantity: f for f in rep.fitted_slopes}
    sup = slopes["sup_growth"]
    norm = slopes["sobolev_norm(beta=0.5)"]
    assert sup.slope == pytest.approx(space21.n, abs=0.1)
    assert norm.slope == pytest.approx(0.5 + space21.n / 2.0, abs=0.1)
    # internal consistency: the slope gap equals n/2 - beta
    assert sup.slope - norm.slope == pytest.approx(space21.n / 2.0 - 0.5, abs=0.2)
    scalars = dict(rep.scalars)
    assert scalars["implied_p_bound"] == pytest.approx(8.0 / 3.0, abs=scalars["p_bound_tolerance"])


@pytest.mark.parametrize("epsilon", [0.25, 20.0])
@pytest.mark.parametrize("beta", [0.25, 0.5])
@pytest.mark.parametrize("mv,mz", [(2, 1), (4, 3)])
def test_case2_batch_matches_each_n_worked_alone(monkeypatch, mv, mz, beta, epsilon):
    # the benchmark's list in one pass (one panel_rules call on every band,
    # one plancherel_density call on every node, one family build) against
    # each N alone: each sup and each norm bit for bit.  At eps = 20 the
    # N = 8 band's rate is eps/N = 2.5, so a rate of 1 shared by every band
    # would lay out other nodes there
    params = new_space(mv, mz)
    profiles, inverse_profile = [], experiments._inverse_profile
    monkeypatch.setattr(experiments, "_inverse_profile",
                        lambda *args: profiles.append(inverse_profile(*args)) or profiles[-1])
    norms = _collect_sobolev_rows(monkeypatch, column=0)
    case2_run(params, beta, CASE2_N, epsilon=epsilon)
    assert [float(np.max(np.abs(p.values))) for p in profiles] == [
        float(np.max(np.abs(transform.sft_inverse(
            params, case2_family(params, n), np.linspace(0.0, epsilon / n, 48)).values)))
        for n in CASE2_N]
    assert norms == [sobolev_norm(params, case2_family(params, n), beta) for n in CASE2_N]


@pytest.mark.parametrize("run,args,n_list,points", [
    (case1_run, (2.0, CASE1_BETAS), CASE1_BENCH_N, experiments._CASE1_POINTS),
    (case2_run, (0.25,), CASE2_N, experiments._CASE2_POINTS),
])
def test_each_list_is_built_and_normed_in_one_pass(space21, monkeypatch, run, args, n_list,
                                                   points):
    # one plancherel_density call on the family grids, an (N x lambda) array
    # (the others are on quadrature nodes), and one Sobolev rows pass
    grids, density = [], experiments.plancherel_density
    monkeypatch.setattr(experiments, "plancherel_density",
                        lambda params, lam: grids.append(np.shape(lam)) or density(params, lam))
    normed, rows = [], experiments._sobolev_norms
    monkeypatch.setattr(experiments, "_sobolev_norms",
                        lambda *a: normed.append(np.shape(a[1])) or rows(*a))
    run(space21, *args, n_list)
    assert [g for g in grids if len(g) == 2] == normed == [(len(n_list), points)]


@pytest.mark.parametrize("run,args,n_list", [
    (case1_run, (2.0, CASE1_BETAS), [8, 64, 128, 256, 512]),
    (case2_run, (0.25,), [4, 8, 11, 16, 23]),
])
def test_a_list_below_the_smallest_n_is_refused_before_any_family(space21, monkeypatch, run,
                                                                   args, n_list):
    # N < 16 (case 1) or N < 8 (case 2): no density, bump or norm is formed
    for name in ("plancherel_density", "bump_unit", "bump_12", "_sobolev_norms"):
        monkeypatch.setattr(experiments, name, lambda *a, name=name: pytest.fail(name))
    with pytest.raises(ValidationError, match="requires N >="):
        run(space21, *args, n_list)


def test_case2_list_past_the_panel_cap_is_refused_before_any_family(space21, monkeypatch):
    # each N alone fits the 2^22-panel cap, the list (1.91e7 panels) does
    # not: the one panel_rules call refuses it before any family is built
    monkeypatch.setattr(experiments, "_case2_families",
                        lambda *args: pytest.fail("a family was built"))
    with pytest.raises(ResolutionError, match="panels"):
        case2_run(space21, 0.25, [1_000_000, 2_000_000, 3_000_000, 4_000_000, 5_000_000])


def test_case2_run_validation(space21):
    with pytest.raises(ValidationError):
        case2_run(space21, space21.n / 2.0, CASE2_N)


def test_implied_p_bound_formula():
    assert implied_p_bound(4, 0.5) == pytest.approx(8.0 / 3.0)
    assert implied_p_bound(4, 0.0) == pytest.approx(2.0)  # beta = 0 degenerate
    assert implied_p_bound(4, 2.0) == math.inf


def test_transference_examples():
    comparable = [
        (PhaseKind("frac", a=1.5), PhaseKind("frac", shifted=True, a=1.5)),
        (PhaseKind("boussinesq"), PhaseKind("frac", shifted=True, a=2.0)),
        (PhaseKind("beam"), PhaseKind("frac", shifted=True, a=2.0)),
    ]
    for k1, k2 in comparable:
        assert transference_check(k1, k2).verdict == "comparable"
    rep = transference_check(PhaseKind("frac", a=3.0), PhaseKind("frac", shifted=True, a=3.0))
    assert rep.verdict == "not-comparable"
    growth = dict(rep.scalars)["growth_exponent"]
    assert growth == pytest.approx(1.0, abs=0.05)


def test_transference_symmetry(space21):
    beam, frac = PhaseKind("beam"), PhaseKind("frac", shifted=True, a=2.0)
    a = transference_check(beam, frac, params=space21)
    b = transference_check(frac, beam, params=space21)
    assert dict(a.scalars)["sup_diff"] == dict(b.scalars)["sup_diff"]
    assert a.verdict == b.verdict


def test_transference_validation():
    with pytest.raises(ValidationError):
        transference_check(PhaseKind("beam"), PhaseKind("beam"), big_lambda=0.5)


@pytest.mark.parametrize("big_lambda", [101.0, 500.0, 1e4])
def test_transference_needs_a_first_decade(big_lambda):
    # above lambda_max/10 the first-decade sup has no sample to read, and a
    # difference of exactly Q^2/4 = 1 would be called not-comparable
    frac, shifted = PhaseKind("frac", a=2.0), PhaseKind("frac", shifted=True, a=2.0)
    with pytest.raises(ValidationError, match="first decade"):
        transference_check(frac, shifted, big_lambda=big_lambda)
    assert transference_check(frac, shifted, big_lambda=100.0).verdict == "comparable"


def test_report_serialization(space21):
    rep = case2_run(space21, 0.25, CASE2_N)
    doc = rep.to_dict()
    assert doc["name"] == "case2"
    assert {"quantity", "slope", "expected", "tolerance", "residual_rms"} <= set(
        doc["fitted_slopes"][0]
    )
    assert doc["provenance"]["beta"] == 0.25
