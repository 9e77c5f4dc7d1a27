import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from drwave.bumps import bump_unit, eta_dyadic
from drwave.dispersive import PhaseKind
from drwave import oscillatory
from drwave.errors import DomainError, ResolutionError, ValidationError
from drwave.oscillatory import (
    ETA_MASS,
    _integrate,
    _WindowPhases,
    dyadic_sum_check,
    phase_diff,
    proof_constants,
    sample_claim_triples,
    window_integral,
)
from drwave.quadrature import panel_rule

K2 = PhaseKind("frac", shifted=True, a=2.0)
K2U = PhaseKind("frac", a=2.0)
K15 = PhaseKind("frac", a=1.5)


class QuadraticPhases:
    """theta_r = M_r xi^2 in the interface of oscillatory._WindowPhases."""

    def __init__(self, m):
        self.m = np.asarray(m, dtype=float)

    def diff(self, r, xi, xi0):
        return self.m[r] * (xi - xi0) * (xi + xi0)

    def deriv(self, r, xi):
        return 2.0 * self.m[r] * xi


def oracle_linear_phase(k: int, delta_s: float) -> float:
    """Dense quadrature oracle for the d = 0 window (no multiplier phase)."""
    nodes, weights = panel_rule(0.5, 2.0, 2.0**k * abs(delta_s) * 4.0 + 64.0)
    val = np.sum(weights * eta_dyadic(nodes) * np.exp(1j * 2.0**k * nodes * delta_s))
    return 2.0 ** (0.5 * k) * abs(val)


# ---------------------------------------------------------------------------
# stable phase differences
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", [K2, K2U, K15, PhaseKind("boussinesq"),
                                  PhaseKind("boussinesq", shifted=True), PhaseKind("beam"),
                                  PhaseKind("beam", shifted=True)],
                         ids=lambda k: k.name + str(k.a or ""))
def test_phase_diff_matches_direct(kind, space21):
    from drwave.dispersive import phase

    for x0, dx in [(3.0, 0.5), (40.0, 1.0), (1.5, -0.3)]:
        got = phase_diff(kind, space21, x0 + dx, x0)
        ref = float(phase(kind, space21, x0 + dx) - phase(kind, space21, x0))
        assert got == pytest.approx(ref, rel=1e-9, abs=1e-12)
    # array input: one call over nodes, and over reference points, agrees
    # with the per-element scalar calls
    x = np.array([0.5, 1.5, 1.2, 3.5, 41.0, 1e4])
    x0 = np.array([0.7, 1.5, 1.5, 3.0, 40.0, 9999.0])
    for got, ref in ((phase_diff(kind, space21, x, 2.0),
                      [phase_diff(kind, space21, float(v), 2.0) for v in x]),
                     (phase_diff(kind, space21, x, x0),
                      [phase_diff(kind, space21, float(v), float(v0)) for v, v0 in zip(x, x0)])):
        assert got.shape == x.shape
        assert np.allclose(got, ref, rtol=1e-14, atol=0.0)


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(["frac", "boussinesq", "beam"]),
    shifted=st.booleans(),
    a=st.floats(1.1, 4.0),
    x=st.floats(0.05, 50.0),
    x0=st.floats(0.05, 50.0),
)
# x far below x0: dv/v0 = -1 + 6.7e-10 in the difference of v = u^2 + u
@example(family="boussinesq", shifted=True, a=2.0, x=0.0546875, x0=46.0)
def test_phase_diff_matches_direct_difference(space21, family, shifted, a, x, x0):
    # at moderate phase the direct difference loses at most a few ulps of psi
    from drwave.dispersive import phase

    kind = PhaseKind(family, shifted=shifted, a=a if family == "frac" else None)
    psi, psi0 = phase(kind, space21, x), phase(kind, space21, x0)
    got = phase_diff(kind, space21, x, x0)
    assert got == pytest.approx(psi - psi0, rel=1e-12, abs=1e-13 * max(abs(psi), abs(psi0)))


def test_phase_diff_rejects_nonpositive_reference(space21):
    with pytest.raises(DomainError):
        phase_diff(K2, space21, 1.0, 0.0)


def test_phase_diff_tiny_increment(space21):
    # the direct float difference of psi values would lose ~11 digits here
    import mpmath as mp

    mp.mp.dps = 40
    x0 = 1e6
    x = x0 + 1e-4  # rounded once, as in real usage
    got = phase_diff(K2U, space21, x, x0)
    ref = float(mp.mpf(x) ** 2 - mp.mpf(x0) ** 2)  # a = 2: psi diff = x^2 - x0^2
    assert got == pytest.approx(ref, rel=1e-12)


# ---------------------------------------------------------------------------
# window integrals
# ---------------------------------------------------------------------------

def test_window_validation(space21):
    with pytest.raises(ValidationError):
        window_integral(K2, space21, 0, 2.0, 2.5, 0.1)
    with pytest.raises(DomainError):
        window_integral(K2, space21, 3, 2.0, 2.5, 1.0)
    # a theta' that is not finite would never close a segment: the
    # worklist raises at its probe
    for s, s_prime in ((math.nan, 3.0), (2.0, math.nan), (math.inf, 3.0), (2.0, math.inf)):
        with pytest.raises(DomainError):
            window_integral(K2, space21, 3, s, s_prime, 0.5)


def test_window_d_zero_oracle(space21):
    for k, ds in [(1, 0.4), (5, 0.5), (9, -0.21), (14, 0.05)]:
        got = window_integral(K2, space21, k, 2.0, 2.0 + ds, 0.0)
        ref = oracle_linear_phase(k, ds)
        assert got.value == pytest.approx(ref, rel=1e-7, abs=1e-10 * 2.0 ** (k / 2))


def test_window_singular_levin_system_bisects(space21, monkeypatch):
    # a LinAlgError from the first Levin solve fails that attempt, as two
    # disagreeing orders do, and the segment is bisected instead
    ref = window_integral(K2, space21, 10, 2.0, 2.5, 0.3).value
    solve = np.linalg.solve
    calls = []

    def singular_once(a, b):
        calls.append(1)
        if len(calls) == 1:
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", singular_once)
    got = window_integral(K2, space21, 10, 2.0, 2.5, 0.3).value
    assert len(calls) > 1
    assert got == pytest.approx(ref, rel=1e-9)


def test_window_direct_leaf_non_convergence_raises(space21, monkeypatch):
    # a jump in the amplitude keeps panel doubling from converging; the
    # direct leaf raises rather than return its last value
    monkeypatch.setattr("drwave.oscillatory.eta_dyadic",
                        lambda lam: (np.asarray(lam) > 1.2345678).astype(float))
    with pytest.raises(ResolutionError, match="direct segment"):
        window_integral(K2, space21, 1, 2.0, 2.1, 0.01)


TOLS = (1e-9, 1e-9 / 16.0)


def _family(space21, family):
    """(g, ph, a, b) of many integrals: dyadic windows of six claim
    triples at k = 1..40, or the van der Corput bump at 25 curvatures."""
    if family == "windows":
        triples = sample_claim_triples(K15, space21, 6, seed=5)
        ks = np.arange(1, 41)
        gap = np.repeat(triples[:, 1] - triples[:, 0], ks.size)
        ph = _WindowPhases(K15, space21, np.tile(ks, len(triples)), gap,
                           np.repeat(triples[:, 2], ks.size))
        return eta_dyadic, ph, np.full(gap.size, 0.5), np.full(gap.size, 2.0)
    m = np.geomspace(10.0, 1e5, 25)
    return bump_unit, QuadraticPhases(m), np.full(m.size, -1.0), np.ones(m.size)


@pytest.mark.parametrize("family", ["windows", "quadratic"])
def test_integrate_columns_match_single_tolerance_runs(space21, family):
    # the tolerances ride one worklist as columns; each column is bit for
    # bit what a worklist at that tolerance alone gives
    g, ph, a, b = _family(space21, family)
    n = a.size
    joint = _integrate(g, ph, a, b, np.tile(TOLS, (n, 1)))
    assert joint.shape == (n, 2)
    for j, tol in enumerate(TOLS):
        alone = _integrate(g, ph, a, b, np.full((n, 1), tol))
        assert np.array_equal(joint[:, j], alone[:, 0])


def _doubling_every_level(g, ph, root, a, b, lam0, tol):
    """_direct_leaves as it was before it skipped a doubling that lays out
    the same rule: every live segment summed again at every level."""
    mid = 0.5 * (a + b)
    rate = np.max(np.abs(ph.deriv(root[:, None], np.stack([a, mid, b], axis=1))),
                  axis=1) + 1e-12
    out = np.empty(tol.shape, dtype=complex)
    live, pending = np.arange(a.size), np.ones(tol.shape, bool)
    n_min = 4
    val = oscillatory._panel_sums(g, ph, root, a, b, lam0, rate, n_min)[0]
    for _ in range(6):
        n_min *= 2
        val2 = oscillatory._panel_sums(
            g, ph, *(v[live] for v in (root, a, b, lam0, rate)), n_min)[0]
        conv = pending & (np.abs(val2 - val)[:, None] <= np.maximum(tol[live], 1e-15))
        r, c = np.nonzero(conv)
        out[live[r], c] = val2[r]
        pending &= ~conv
        keep = pending.any(axis=1)
        live, val, pending = live[keep], val2[keep], pending[keep]
        if not live.size:
            return out
    raise ResolutionError("direct segment unresolved")


@pytest.mark.parametrize("family", ["windows", "quadratic"])
def test_direct_leaves_sum_each_rule_once(space21, family, monkeypatch):
    # a segment whose phase sets more panels than the doubled minimum keeps
    # its rule, so it is not summed again, and every value is the one the
    # full doubling gives, bit for bit
    g, ph, a, b = _family(space21, family)
    tol = np.tile(TOLS, (a.size, 1))
    summed = []
    panel_sums = oscillatory._panel_sums

    def recording(g, ph, root, a, b, lam0, rate, n_min):
        val, counts = panel_sums(g, ph, root, a, b, lam0, rate, n_min)
        summed.extend(zip(root, a, b, counts))
        return val, counts

    monkeypatch.setattr(oscillatory, "_panel_sums", recording)
    got = _integrate(g, ph, a, b, tol)
    assert summed and len(set(summed)) == len(summed)
    monkeypatch.setattr(oscillatory, "_direct_leaves", _doubling_every_level)
    assert np.array_equal(got, _integrate(g, ph, a, b, tol))


def test_window_levin_rows_are_the_tight_trees(space21, monkeypatch):
    # the loose tolerance's tree is read off the tight one's, so one
    # window sends the Levin solver only the rows of a tight-only run
    rows = []
    solve = oscillatory._solve_stacked

    def counting(sys, rhs):
        rows.append(len(rhs))
        return solve(sys, rhs)

    monkeypatch.setattr(oscillatory, "_solve_stacked", counting)
    k, ds, d = 6, 0.4, 0.3
    window_integral(K2, space21, k, 2.0, 2.0 + ds, d)
    joint = sum(rows)
    alone = {}
    for tol in TOLS:
        rows.clear()
        _integrate(eta_dyadic, _WindowPhases(K2, space21, np.array([k]), np.array([ds]),
                                             np.array([d])),
                   np.array([0.5]), np.array([2.0]), np.array([[tol]]))
        alone[tol] = sum(rows)
    assert 0 < alone[TOLS[0]] < alone[TOLS[1]]
    assert joint == alone[TOLS[1]]


def test_eta_mass_matches_quadrature():
    # the closed form 3/4 against a 64-rate Gauss-Legendre panel rule
    nodes, weights = panel_rule(0.5, 2.0, 64.0)
    assert float(np.sum(weights * eta_dyadic(nodes))) == pytest.approx(ETA_MASS, rel=1e-15)


def test_window_trivial_bound(space21, rng):
    bound = (1.0 + 1e-6) * ETA_MASS
    for _ in range(40):
        k = int(rng.integers(1, 30))
        s = float(rng.uniform(2.0, 4.0))
        sp = float(rng.uniform(2.0, 4.0))
        d = float(rng.uniform(0.0, 0.99))
        res = window_integral(K2, space21, k, s, sp, d)
        assert res.value <= bound * 2.0 ** (k / 2.0)
        assert res.quadrature_error <= 1e-5 * 2.0 ** (k / 2.0)


def test_window_curvature_envelope(space21):
    # second-derivative-test regime: value * (d 2^(k delta2))^(1/2) / 2^(k/2)
    # bounded over the sampled family once d 2^(k delta2) >= 1
    worst = 0.0
    for k in range(4, 22, 3):
        for d in (1e-3, 0.03, 0.5):
            if d * 2.0 ** (k * K2.delta2) < 1.0:
                continue
            res = window_integral(K2, space21, k, 2.0, 2.5, d)
            worst = max(worst, res.value * math.sqrt(d * 2.0 ** (k * K2.delta2))
                        / 2.0 ** (k / 2.0))
    assert worst < 10.0


def test_window_flat_phase_decay_envelope(space21):
    # integration-by-parts regime: value * 2^(k/2) |s-s'| bounded when
    # d 2^(k delta2) <= C5 2^k |s-s'|
    c5 = proof_constants(K2, space21)["C5"]
    worst = 0.0
    count = 0
    for k in range(2, 26, 2):
        for gap in (0.2, 1.0, 1.9):
            for d in (1e-4, 1e-2, 0.3):
                if d * 2.0 ** (k * K2.delta2) > c5 * 2.0**k * gap:
                    continue
                res = window_integral(K2, space21, k, 2.0, 2.0 + gap, d)
                worst = max(worst, res.value * 2.0 ** (k / 2.0) * gap)
                count += 1
    assert count > 10
    assert worst < 50.0


def test_window_specific_auxiliary_example(space21):
    # shifted a=2 phase, s'-s = 0.5, d = 1e-3, k = 6: the value sits below
    # min(trivial bound, C 2^(k/2) (d 2^(2k))^(-1/2)).  The constant is
    # fitted once on mirrored windows (s' < s) whose stationary point lies
    # inside the support, where the curvature bound is attained.
    fit = 0.0
    for k in (7, 8, 9):
        res = window_integral(K2, space21, k, 2.5, 2.0, 1e-3)
        fit = max(fit, res.value * math.sqrt(1e-3 * 4.0**k) / 2.0 ** (k / 2.0))
    assert fit > 0.1  # the stationary configuration really saturates the bound
    res = window_integral(K2, space21, 6, 2.0, 2.5, 1e-3)
    trivial = ETA_MASS * 2.0**3
    curvature = 1.25 * fit * 2.0**3 / math.sqrt(1e-3 * 4.0**6)
    assert res.value <= min(trivial, curvature) * (1.0 + 1e-6)
    # and the mirrored k = 6 window obeys the same fitted bound
    res_m = window_integral(K2, space21, 6, 2.5, 2.0, 1e-3)
    assert res_m.value <= min(trivial, curvature) * (1.0 + 1e-6)


# ---------------------------------------------------------------------------
# dyadic sums
# ---------------------------------------------------------------------------

def test_dyadic_single_window_consistency(space21):
    # one worklist over many windows gives each window's own value
    triples = [(2.0, 2.5, 0.2), (3.1, 2.05, 0.01), (2.2, 2.2011, 0.7)]
    for big_k in (1, 3):
        rep = dyadic_sum_check(K2, space21, triples, big_k=big_k)
        for row, (s, sp, d) in zip(rep.rows, triples):
            w = [window_integral(K2, space21, k, s, sp, d).value
                 for k in range(1, 2 * big_k + 1)]
            root = math.sqrt(abs(sp - s))
            assert row[3] == pytest.approx(root * sum(w[:big_k]), rel=1e-14)
            assert row[4] == pytest.approx(root * sum(w), rel=1e-14)


# DyadicSumReport.rows from the depth-first recursion the batched worklist
# replaced, on sample_claim_triples(kind, (2,1), 3, seed=0) with K = 20
PINNED_ROWS = {
    "frac-shifted:2": [
        (2.059819957825059, 2.599853811925272, 0.17570236459353186,
         0.8028269641374108, 0.8028269641374108),
        (2.9416775618608697, 3.909991111179947, 0.01077206605651583,
         1.943414479051545, 1.9434144790515446),
        (2.1470524297264415, 3.87654899071044, 0.15328985759081848,
         0.773615759247277, 0.773615759247277),
    ],
    "frac:1.5": [
        (2.059819957825059, 2.599853811925272, 0.17570236459353186,
         1.4304940970906097, 1.4304940970906104),
        (2.9335569029248, 3.910767312628219, 0.01077206605651583,
         2.0495540839058504, 2.0495540839059037),
        (2.1470524297264415, 3.87654899071044, 0.15328985759081848,
         1.010469948513112, 1.0104699485131123),
    ],
}


@pytest.mark.parametrize("selector", sorted(PINNED_ROWS))
def test_dyadic_rows_pinned(space21, selector):
    kind = PhaseKind.from_selector(selector)
    triples = sample_claim_triples(kind, space21, 3, seed=0)
    rep = dyadic_sum_check(kind, space21, triples, big_k=20)
    np.testing.assert_allclose(rep.rows, PINNED_ROWS[selector], rtol=1e-12, atol=0.0)


def test_dyadic_rows_independent_of_batching(space21):
    # the triples are worked in fixed blocks; how a call's triples fall
    # into blocks does not change any row
    triples = sample_claim_triples(K15, space21, 40, seed=3)
    whole = dyadic_sum_check(K15, space21, triples, big_k=10).rows
    parts = np.vstack([dyadic_sum_check(K15, space21, triples[i:i + 10], big_k=10).rows
                       for i in range(0, 40, 10)])
    np.testing.assert_allclose(parts, whole, rtol=1e-14, atol=0.0)


def test_dyadic_small_gap_dominated_by_first_windows(space21):
    # s' - s = 1e-3, d = 0.5: the low-k windows carry most of the sum
    s, sp, d = 2.0, 2.0 + 1e-3, 0.5
    vals = [window_integral(K2U, space21, k, s, sp, d).value for k in range(1, 21)]
    assert sum(vals[:5]) > 0.8 * sum(vals)


def test_dyadic_sum_bounded_and_stable(space21):
    triples = sample_claim_triples(K2U, space21, 30, seed=7)
    rep = dyadic_sum_check(K2U, space21, triples, big_k=20)
    assert rep.passed
    assert np.isfinite(rep.max_normalized)
    assert rep.max_rel_change < 0.01


def test_dyadic_validation(space21):
    with pytest.raises(DomainError):
        dyadic_sum_check(K2, space21, [(2.0, 2.5, 0.0)], big_k=2)
    with pytest.raises(DomainError):
        dyadic_sum_check(K2, space21, [(2.0, 2.0, 0.5)], big_k=2)
    with pytest.raises(ValidationError):
        dyadic_sum_check(K2, space21, np.zeros((2, 2)), big_k=2)
    for s, s_prime in ((math.nan, 3.0), (2.0, math.nan), (math.inf, 3.0), (2.0, math.inf)):
        with pytest.raises(DomainError):
            dyadic_sum_check(K2, space21, [(s, s_prime, 0.5)], big_k=2)


def test_sample_triples_cover_three_cases(space21):
    trips = sample_claim_triples(K2U, space21, 30, seed=1)
    c6 = proof_constants(K2U, space21)["C6"]
    gaps = np.abs(trips[:, 1] - trips[:, 0])
    thr = trips[:, 2] ** (1.0 / K2U.delta2) / c6
    assert np.any(gaps <= thr)
    assert np.any((gaps > thr) & (gaps < 1.0))
    assert np.any(gaps >= 1.0)


@pytest.mark.parametrize("selector", ["frac:1.001", "frac-shifted:1.001"])
def test_sample_triples_when_c6_underflows(space21, selector):
    # just above delta2 = 1, C6 = C5^(1/(delta2-1)) is 0 in doubles: the
    # first threshold is infinite and the annulus width caps it, so the
    # sampling and the dyadic check run instead of dividing by 0
    kind = PhaseKind.from_selector(selector)
    assert proof_constants(kind, space21)["C6"] == 0.0
    triples = sample_claim_triples(kind, space21, 3, seed=0)
    lo, hi = oscillatory._ANNULUS
    assert np.all((triples[:, :2] >= lo) & (triples[:, :2] <= hi))
    assert np.all(triples[:, 1] > triples[:, 0])
    rep = dyadic_sum_check(kind, space21, triples, big_k=20)
    assert rep.passed


# ---------------------------------------------------------------------------
# van der Corput sweep
# ---------------------------------------------------------------------------

def van_der_corput(curvatures, halfwidth=1.0):
    """M^(1/2) |int e^{i M xi^2} zeta(xi/h) dxi| / 3 per curvature M, zeta
    the unit bump and 3 = ||zeta||_inf + ||zeta'||_1: the second-derivative
    test bounds it by one constant."""
    m = np.asarray(curvatures, dtype=float)
    v = _integrate(lambda xi: bump_unit(xi / halfwidth), QuadraticPhases(m),
                   np.full(m.size, -halfwidth), np.full(m.size, halfwidth),
                   np.full((m.size, 1), 1e-10))
    return np.sqrt(m) * np.abs(v[:, 0]) / 3.0


def test_van_der_corput_bounded():
    vals = van_der_corput(np.geomspace(10.0, 1e5, 11))
    assert np.max(vals) / np.min(vals) < 20.0


def test_van_der_corput_domain():
    # a NaN curvature makes every probe of theta' NaN
    with pytest.raises(DomainError):
        van_der_corput(np.array([math.nan, 100.0]))


def test_van_der_corput_window_scaling():
    # doubling the support: the normalized values stay within the scale set
    # by ||zeta||_inf + ||zeta'||_1 (equal for the two windows)
    grid = np.geomspace(10.0, 1e4, 7)
    narrow = van_der_corput(grid, halfwidth=1.0)
    wide = van_der_corput(grid, halfwidth=2.0)
    assert np.max(wide) <= 4.0 * np.max(narrow)
    assert np.max(narrow) <= 4.0 * np.max(wide)


def test_a_singular_system_is_marked_alone():
    # the stacked solve fails on the one singular system; each is then
    # solved alone, and only that one reads 0 and is marked
    systems = np.array([2.0 * np.eye(2), np.ones((2, 2)), [[1.0, 2.0], [3.0, 4.0]]],
                       dtype=complex)
    rhs = np.array([[2.0, 4.0], [1.0, 1.0], [5.0, 6.0]], dtype=complex)
    p, singular = oscillatory._solve_stacked(systems, rhs)
    assert singular.tolist() == [False, True, False]
    assert p[0].tolist() == [1.0, 2.0] and p[1].tolist() == [0.0, 0.0]
    np.testing.assert_allclose(systems[2] @ p[2], rhs[2], rtol=1e-14)


def test_disagreeing_tolerance_columns_raise(monkeypatch, space21):
    # the two tolerance columns of a window moved apart by 1e-3 relative
    monkeypatch.setattr(oscillatory, "_integrate",
                        lambda g, ph, a, b, tol: np.tile([1.0, 1.001], (a.size, 1)))
    with pytest.raises(ResolutionError, match="window integral k=3 unresolved"):
        window_integral(PhaseKind("frac", a=2.0), space21, 3, 2.0, 2.5, 0.3)
