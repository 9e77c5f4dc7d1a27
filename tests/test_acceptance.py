"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines as they complete.  Tolerances are fixed here, not tuned at run time.
"""

import math
import time

import numpy as np

from drwave.bumps import bump_unit
from drwave.cli import run as cli_run
from drwave.dispersive import PhaseKind, phase, phase_derivs
from drwave.experiments import case1_run, case2_run, implied_p_bound, transference_check
from drwave.oscillatory import dyadic_sum_check, sample_claim_triples
from drwave.profiles import RadialProfile, SpectralProfile
from drwave.quadrature import grid_integral
from drwave.space import density, new_space
from drwave.special import plancherel_density
from drwave.spherical import phi_matrix
from drwave.transform import (
    _plancherel_ratio,
    calibrate_inversion_constant,
    sft_forward,
    sft_inverse,
    sobolev_norm,
)
from oracles import phi_hyp, plancherel_envelope_ratio, verify_phase_asymptotics

SPACES = [new_space(2, 1), new_space(4, 3), new_space(8, 1)]
LAMBDAS = [0.5, 2.0, 10.0, 50.0]


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_spherical_cross_oracle():
    t0 = time.time()
    s_bessel = np.linspace(0.05, 0.75, 8)
    s_hc = np.linspace(2.0, 5.0, 6)
    worst = 0.0
    for params in SPACES:
        for lam in LAMBDAS:
            ref_b = np.array([phi_hyp(params, lam, s) for s in s_bessel])
            got_b = phi_matrix(params, [lam], s_bessel)[0]
            worst = max(worst, float(np.max(np.abs(got_b - ref_b) / np.abs(ref_b))))
            ref_h = np.array([phi_hyp(params, lam, s) for s in s_hc])
            got_h = phi_matrix(params, [lam], s_hc)[0]
            worst = max(worst, float(np.max(np.abs(got_h - ref_h) / np.abs(ref_h))))
    elapsed = time.time() - t0
    _verdict(1, "spherical cross-oracle 1e-6", worst < 1e-6 and elapsed < 60.0,
             f"max rel err {worst:.2e}, {elapsed:.0f} s")


def test_criterion_02_phi_bounds_and_decay():
    lam = np.geomspace(1.0, 100.0, 24)
    s = np.linspace(1.0, 5.0, 160)
    bound_ok = True
    spread_worst = 0.0
    for params in SPACES:
        mat = phi_matrix(params, lam, s)
        bound_ok &= bool(np.max(np.abs(mat)) <= 1.0 + 1e-9)
        # bounded both ways: per-lambda envelope of the normalized quantity
        weight = np.exp(0.5 * float(params.Q) * s)[None, :] * lam[:, None] ** (
            (params.n - 1) / 2.0
        )
        env = np.max(np.abs(mat) * weight, axis=1)
        spread_worst = max(spread_worst, float(env.max() / env.min()))
        # |phi| <= 1 + 1e-9 also near the identity
        near = phi_matrix(params, lam, np.linspace(0.0, 1.0, 60))
        bound_ok &= bool(np.max(np.abs(near)) <= 1.0 + 1e-9)
    _verdict(2, "phi bound and pointwise decay", bound_ok and spread_worst < 1e3,
             f"envelope max/min {spread_worst:.1f}")


def test_criterion_03_plancherel_envelopes():
    lam = np.geomspace(0.01, 100.0, 400)
    lam_d = np.geomspace(1.0, 100.0, 150)
    h = 1e-3
    ok = True
    detail = []
    for params in SPACES:
        ratio = plancherel_envelope_ratio(params, lam)
        spread = float(np.max(ratio) / np.min(ratio))
        ok &= spread < 50.0
        pd = lambda x: plancherel_density(params, x)
        d1 = (pd(lam_d + h) - pd(lam_d - h)) / (2 * h)
        d2 = (pd(lam_d + h) - 2 * pd(lam_d) + pd(lam_d - h)) / h**2
        r1 = float(np.max(np.abs(d1) / (1 + lam_d) ** (params.n - 2)))
        r2 = float(np.max(np.abs(d2) / (1 + lam_d) ** (params.n - 3)))
        ok &= r1 < 50.0 and r2 < 50.0
        detail.append(f"(m_v={params.m_v},m_z={params.m_z}): C/c {spread:.1f}, "
                      f"d1 {r1:.1f}, d2 {r2:.1f}")
    _verdict(3, "Plancherel density envelopes", ok, "; ".join(detail))


def test_criterion_04_transform_roundtrip_isometry():
    t0 = time.time()
    params = SPACES[0]
    c_const = calibrate_inversion_constant(params)
    s = np.linspace(0.0, 12.0, 1536)
    # the held-out profiles' closed forms: the roundtrip is read against the
    # form itself on s_out, so that the gate sees the transform's own error
    held_out = [
        lambda x: np.exp(-1.5 * x**2),
        lambda x: (1.0 + x**2) * np.exp(-1.2 * x**2),
        lambda x: x**4 * np.exp(-(x**2)),
    ]
    lam_grid = np.linspace(0.0, 24.0, 512)
    s_out = np.linspace(0.0, 8.0, 320)
    w_out = density(params, s_out)
    worst_rt = worst_iso = 0.0
    for form in held_out:
        f = RadialProfile(s, form(s))
        fh = sft_forward(params, f, lam_grid)
        back = sft_inverse(params, fh, s_out)
        ref = form(s_out)
        err = math.sqrt(
            grid_integral(np.abs(back.values - ref) ** 2 * w_out, s_out)
            / grid_integral(ref**2 * w_out, s_out)
        )
        worst_rt = max(worst_rt, err)
        worst_iso = max(worst_iso, abs(_plancherel_ratio(params, f) / c_const - 1.0))
    elapsed = time.time() - t0
    _verdict(4, "roundtrip and isometry",
             worst_rt < 1e-6 and worst_iso < 1e-3 and elapsed < 120.0,
             f"roundtrip {worst_rt:.2e}, isometry {worst_iso:.2e}, {elapsed:.0f} s")


def test_criterion_05_case1_threshold():
    t0 = time.time()
    params = SPACES[0]
    n_list = [2**k for k in range(6, 13)]
    ok = True
    detail = []
    for a in (1.5, 2.0):
        for shifted in (False, True):
            rep = case1_run(params, a, [0.1, 0.25, 0.4], n_list, shifted=shifted)
            ok &= rep.verdict == "pass"
            tag = f"a={a}{'s' if shifted else ''}"
            worst = max(abs(f.slope - f.expected) for f in rep.fitted_slopes)
            detail.append(f"{tag}: {rep.verdict} (slope dev {worst:.3f})")
    elapsed = time.time() - t0
    ok &= elapsed < 600.0
    _verdict(5, "case-1 threshold probe", ok, "; ".join(detail) + f", {elapsed:.0f} s")


def test_criterion_06_case2_exponent():
    params = SPACES[0]
    n_list = [8, 11, 16, 23, 32, 45, 64]
    ok = True
    detail = []
    for beta in (0.25, 0.5):
        rep = case2_run(params, beta, n_list)
        scalars = dict(rep.scalars)
        p_got = scalars["implied_p_bound"]
        p_want = implied_p_bound(params.n, beta)
        ok &= rep.verdict == "pass"
        ok &= abs(p_got - p_want) <= scalars["p_bound_tolerance"]
        detail.append(f"beta={beta}: p {p_got:.3f} vs {p_want:.3f}")
    _verdict(6, "case-2 exponent probe", ok, "; ".join(detail))


def test_criterion_07_oscillatory_claim():
    t0 = time.time()
    params = SPACES[0]
    ok = True
    detail = []
    for kind in (PhaseKind("frac", shifted=True, a=2.0), PhaseKind("frac", a=1.5)):
        triples = sample_claim_triples(kind, params, 200, seed=11)
        rep = dyadic_sum_check(kind, params, triples, big_k=20)
        ok &= rep.passed and math.isfinite(rep.max_normalized)
        detail.append(f"{kind.name} a={kind.a}: max {rep.max_normalized:.2f}, "
                      f"K-change {rep.max_rel_change:.2e}")
    elapsed = time.time() - t0
    ok &= elapsed < 300.0
    _verdict(7, "oscillatory claim", ok, "; ".join(detail) + f", {elapsed:.0f} s")


def test_criterion_08_phase_asymptotics():
    params = SPACES[0]
    kinds = [PhaseKind("frac", shifted=sh, a=1.5) for sh in (False, True)] + [
        PhaseKind(family, shifted=sh) for family in ("boussinesq", "beam") for sh in (False, True)]
    ok = True
    worst_fd = 0.0
    for kind in kinds:
        ok &= verify_phase_asymptotics(kind, params).passed
        for lam in (0.5, 2.0, 50.0):
            d1, d2 = phase_derivs(kind, params, lam)
            h = 1e-3 * lam
            f = lambda x: phase(kind, params, x)
            fd1 = (f(lam - 2 * h) - 8 * f(lam - h) + 8 * f(lam + h) - f(lam + 2 * h)) / (12 * h)
            fd2 = (-f(lam - 2 * h) + 16 * f(lam - h) - 30 * f(lam)
                   + 16 * f(lam + h) - f(lam + 2 * h)) / (12 * h * h)
            worst_fd = max(worst_fd, abs(d1 - fd1) / abs(fd1), abs(d2 - fd2) / abs(fd2))
    _verdict(8, "phase asymptotics", ok and worst_fd < 1e-6,
             f"fd worst {worst_fd:.2e}")


def test_criterion_09_transference_hypotheses():
    sq = PhaseKind("frac", shifted=True, a=2.0)
    comparable_pairs = [
        (PhaseKind("frac", a=1.5), PhaseKind("frac", shifted=True, a=1.5)),
        (PhaseKind("frac", a=2.0), sq),
        (PhaseKind("boussinesq"), sq),
        (PhaseKind("beam"), sq),
        (PhaseKind("boussinesq", shifted=True), sq),
        (PhaseKind("beam", shifted=True), sq),
    ]
    ok = all(transference_check(k1, k2).verdict == "comparable"
             for k1, k2 in comparable_pairs)
    rep = transference_check(PhaseKind("frac", a=3.0), PhaseKind("frac", shifted=True, a=3.0))
    growth = dict(rep.scalars).get("growth_exponent", math.nan)
    ok &= rep.verdict == "not-comparable" and abs(growth - 1.0) <= 0.05
    _verdict(9, "transference hypotheses", ok, f"a=3 growth exponent {growth:.4f}")


def test_criterion_10_sobolev_comparison():
    params = SPACES[0]
    rng = np.random.default_rng(5)
    violations = 0
    for _ in range(100):
        lo = float(rng.uniform(0.2, 6.0))
        width = float(rng.uniform(0.4, 8.0))
        n = int(rng.integers(120, 300))
        lam = np.linspace(lo, lo + width, n)
        vals = (rng.normal(size=n) + 1j * rng.normal(size=n)) * bump_unit(
            2.0 * (lam - lo) / width - 1.0
        )
        fh = SpectralProfile(lam, vals, support_hint=(lo, lo + width))
        b1 = float(rng.uniform(0.0, 2.0))
        b2 = b1 + float(rng.uniform(0.0, 2.0))
        # ||f||_b1 <= lo^-(b2-b1) ||f||_b2 for spectra supported in (lo, inf)
        n1, n2 = sobolev_norm(params, fh, b1), sobolev_norm(params, fh, b2)
        if not n1 <= lo ** (-(b2 - b1)) * n2 * (1.0 + 1e-12):
            violations += 1
    _verdict(10, "Sobolev comparison", violations == 0, f"{violations} violations")


def test_criterion_11_determinism(tmp_path, monkeypatch):
    outputs = []
    for sub in ("first", "second"):
        root = tmp_path / sub
        monkeypatch.setenv("DRWAVE_OUT_ROOT", str(root))
        assert cli_run(["experiment", "transference"]) == 0
        assert cli_run(["experiment", "case2", "--beta", "0.25",
                        "--n-list", "8,11,16,23,32"]) == 0
        assert cli_run(["cfun", "--lambda-max", "30"]) == 0
        outputs.append(root)
    identical = True
    compared = 0
    for run_dir in sorted(p.name for p in outputs[0].iterdir()):
        for art in sorted((outputs[0] / run_dir).iterdir()):
            other = outputs[1] / run_dir / art.name
            a = art.read_text(encoding="utf-8")
            b = other.read_text(encoding="utf-8")
            if art.suffix == ".json":
                scrub = lambda t: [ln for ln in t.splitlines() if '"timestamp"' not in ln]
                identical &= scrub(a) == scrub(b)
            else:
                identical &= a == b
            compared += 1
    _verdict(11, "byte-identical reruns", identical and compared >= 6,
             f"{compared} artifacts compared")
