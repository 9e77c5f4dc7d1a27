"""Command-line entry point: every module behind one reproducible command.

Runs are driven by a resolved configuration (defaults, then an optional
flat dotted-key config file, then flags); its SHA-256 hash names the
output directory, so identical configurations land in identical paths
with byte-identical artifacts (a JSON timestamp field is the one
run-dependent value, and it is excluded from the hash by construction).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import dispersive, experiments, oscillatory, spherical, transform
from .bumps import bump_unit
from .errors import DrwaveError, ValidationError
from .profiles import SpectralProfile, RadialProfile
from .space import density, log_density_derivative, new_space
from .special import c_function, plancherel_density

__all__ = ["main", "run"]

_F = "%.17g"

DEFAULTS: dict[str, str] = {
    "space.m_v": "2",
    "space.m_z": "1",
    "grids.s_max": "12",
    "grids.s_points": "4096",
    "grids.lambda_max": "256",
    "grids.lambda_points": "0",          # 0 = derive from the pi/8 phase rule
    "grids.t_points": "512",
    "equation": "frac:2",
    "profile": "gaussian:1",
    "spectrum": "bump:2,8",
    "time": "0.1",
    "lambda": "2",
    "s": "0.5",
    "experiment.a": "2",
    "experiment.beta": "0.25",
    "experiment.beta_list": "0.1,0.25,0.4",
    "experiment.n_list": "",
    "experiment.epsilon": "0",           # 0 = per-experiment default
    "experiment.shifted": "0",
    "experiment.k_levels": "20",
    "experiment.n_triples": "60",
    "experiment.seed": "0",
    "experiment.lambda_threshold": "1",
    "experiment.lambda_max_sweep": "1000",
    "experiment.equation2": "frac-shifted:2",
    "tolerances.slope": "0.05",
    "tolerances.slope_case2": "0.1",
    "output_dir": "drwave-out",
}


def parse_config_file(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for ln, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValidationError(f"{path}:{ln}: expected 'key = value'")
            key, val = (tok.strip() for tok in line.split("=", 1))
            if key not in DEFAULTS:
                raise ValidationError(f"{path}:{ln}: unknown config key {key!r}")
            out[key] = val
    return out


def config_hash(cfg: dict[str, str], subcommand: str) -> str:
    blob = subcommand + "\n" + "\n".join(
        f"{k} = {cfg[k]}" for k in sorted(cfg)
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _resolve(subcommand: str, args: argparse.Namespace) -> tuple[dict[str, str], str]:
    cfg = dict(DEFAULTS)
    if getattr(args, "config", None):
        cfg.update(parse_config_file(args.config))
    for key, attr in _FLAG_KEYS.items():
        val = getattr(args, attr, None)
        if val is not None:
            cfg[key] = str(val)
    return cfg, config_hash(cfg, subcommand)


_FLAG_KEYS = {
    "space.m_v": "m_v",
    "space.m_z": "m_z",
    "grids.s_max": "s_max",
    "grids.s_points": "s_points",
    "grids.lambda_max": "lambda_max",
    "grids.lambda_points": "lambda_points",
    "grids.t_points": "t_points",
    "equation": "equation",
    "profile": "profile",
    "spectrum": "spectrum",
    "time": "time",
    "lambda": "lam",
    "s": "s",
    "experiment.a": "a",
    "experiment.beta": "beta",
    "experiment.beta_list": "beta_list",
    "experiment.n_list": "n_list",
    "experiment.epsilon": "epsilon",
    "experiment.shifted": "shifted",
    "experiment.k_levels": "k_levels",
    "experiment.n_triples": "n_triples",
    "experiment.seed": "seed",
    "experiment.lambda_threshold": "lambda_threshold",
    "experiment.lambda_max_sweep": "lambda_max_sweep",
    "experiment.equation2": "equation2",
    "tolerances.slope": "slope_tol",
    "tolerances.slope_case2": "slope_tol_case2",
    "output_dir": "output_dir",
}


def _out_dir(cfg: dict[str, str], subcommand: str, chash: str) -> Path:
    root = os.environ.get("DRWAVE_OUT_ROOT", cfg["output_dir"])
    path = Path(root) / f"{subcommand}-{chash}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _emit_csv(path: Path, chash: str, columns: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# config-hash: {chash}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            cells = []
            for cell in row:
                if isinstance(cell, str):
                    cells.append(cell)
                else:
                    cells.append(_F % float(cell))
            fh.write(",".join(cells) + "\n")


def _emit_json(path: Path, chash: str, payload: dict) -> None:
    doc = dict(payload)
    doc["config_hash"] = chash
    doc["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _ints(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _space_from(cfg):
    return new_space(int(cfg["space.m_v"]), int(cfg["space.m_z"]))


def _lambda_grid(cfg) -> np.ndarray:
    lam_max = float(cfg["grids.lambda_max"])
    n = int(cfg["grids.lambda_points"])
    if n <= 0:
        s_max = float(cfg["grids.s_max"])
        n = int(math.ceil(lam_max * s_max * 8.0 / math.pi)) + 1
        n = max(n, 64)
    return np.linspace(0.0, lam_max, n)


def _builtin_profile(cfg) -> RadialProfile:
    name, _, arg = cfg["profile"].partition(":")
    s = np.linspace(0.0, float(cfg["grids.s_max"]), int(cfg["grids.s_points"]))
    if name == "gaussian":
        alpha = float(arg or "1")
        return RadialProfile(s, np.exp(-alpha * s**2))
    if name == "sech":
        alpha = float(arg or "1")
        return RadialProfile(s, 1.0 / np.cosh(alpha * s) ** 4)
    raise ValidationError(f"unknown profile selector {cfg['profile']!r}")


def _builtin_spectrum(cfg) -> SpectralProfile:
    name, _, arg = cfg["spectrum"].partition(":")
    lam = _lambda_grid(cfg)
    if name == "bump":
        lo, hi = _floats(arg or "2,8")
        vals = bump_unit(2.0 * (lam - lo) / (hi - lo) - 1.0)
        return SpectralProfile(lam, vals.astype(complex), support_hint=(lo, hi))
    if name == "gaussian":
        center, sigma = _floats(arg or "4,1")
        vals = np.exp(-((lam - center) ** 2) / (2.0 * sigma**2))
        return SpectralProfile(lam, vals.astype(complex))
    raise ValidationError(f"unknown spectrum selector {cfg['spectrum']!r}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_space(cfg, chash, out):
    params = _space_from(cfg)
    s = np.linspace(0.0, float(cfg["grids.s_max"]), 257)[1:]
    rows = [(x, density(params, x), log_density_derivative(params, x)) for x in s]
    _emit_csv(out / "space.csv", chash, ["s", "density", "log_density_derivative"], rows)
    print(f"space m_v={params.m_v} m_z={params.m_z} n={params.n} Q={params.Q} -> {out}")
    return 0


def _cmd_cfun(cfg, chash, out):
    params = _space_from(cfg)
    lam = np.geomspace(0.01, float(cfg["grids.lambda_max"]), 512)
    rows = []
    for x in lam:
        c = c_function(params, float(x))
        rows.append((x, c.real, c.imag, plancherel_density(params, float(x))))
    _emit_csv(out / "cfun.csv", chash, ["lambda", "re_c", "im_c", "plancherel"], rows)
    print(f"cfun: 512 rows on [0.01, {cfg['grids.lambda_max']}] -> {out}")
    return 0


def _cmd_phi(cfg, chash, out):
    params = _space_from(cfg)
    lams = _floats(cfg["lambda"])
    ss = _floats(cfg["s"])
    rows = []
    for lam in lams:
        for s in ss:
            val, method = spherical.phi_with_method(params, lam, s)
            rows.append((lam, s, val, method))
    _emit_csv(out / "phi.csv", chash, ["lambda", "s", "value", "method"], rows)
    for lam, s, val, method in rows:
        print(f"phi(lambda={_F % lam}, s={_F % s}) = {_F % val}  [{method}]")
    return 0


def _cmd_transform(cfg, chash, out):
    params = _space_from(cfg)
    f = _builtin_profile(cfg)
    lam = _lambda_grid(cfg)
    fh = transform.sft_forward(params, f, lam)
    _emit_csv(out / "forward.csv", chash, ["lambda", "re", "im", "abs"],
              [(x, v.real, v.imag, abs(v)) for x, v in zip(lam, fh.values)])
    s_out = np.linspace(0.0, 0.75 * float(cfg["grids.s_max"]), 384)
    back = transform.sft_inverse(params, fh, s_out)
    ref = _builtin_profile(cfg)
    ref_vals = np.interp(s_out, ref.s_grid, np.real(ref.values))
    w = density(params, s_out)
    num = np.sqrt(np.trapezoid(np.abs(back.values - ref_vals) ** 2 * w, s_out))
    den = np.sqrt(np.trapezoid(ref_vals**2 * w, s_out))
    rel = float(num / den)
    _emit_csv(out / "roundtrip.csv", chash, ["s", "re", "im", "reference"],
              [(x, v.real, v.imag, r) for x, v, r in zip(s_out, back.values, ref_vals)])
    print(f"transform roundtrip relative L2 error: {rel:.3e} -> {out}")
    return 0 if rel < 1e-3 else 1


def _cmd_propagate(cfg, chash, out):
    params = _space_from(cfg)
    kind = dispersive.PhaseKind.from_selector(cfg["equation"])
    fh = _builtin_spectrum(cfg)
    t = float(cfg["time"])
    s_out = np.linspace(0.0, float(cfg["grids.s_max"]) / 2.0, 384)
    prof = dispersive.propagate(params, fh, kind, t, s_out)
    _emit_csv(out / "propagate.csv", chash, ["s", "re", "im"],
              [(x, v.real, v.imag) for x, v in zip(prof.s_grid, prof.values)])
    print(f"propagate t={_F % t} equation={cfg['equation']} -> {out}")
    return 0


def _cmd_maximal(cfg, chash, out):
    params = _space_from(cfg)
    kind = dispersive.PhaseKind.from_selector(cfg["equation"])
    fh = _builtin_spectrum(cfg)
    lam_hi = fh.support_hint[1] if fh.support_hint else float(fh.lambda_grid[-1])
    t_grid = dispersive.default_t_grid(params, kind, lam_hi,
                                       n_points=int(cfg["grids.t_points"]))
    s_out = np.linspace(0.0, float(cfg["grids.s_max"]) / 2.0, 256)
    sup = dispersive.maximal_function(params, fh, kind, t_grid, s_out)
    _emit_csv(out / "maximal.csv", chash, ["s", "sup"],
              list(zip(sup.s_grid, sup.values)))
    print(f"maximal over {t_grid.size} times, equation={cfg['equation']} -> {out}")
    return 0


def _cmd_oscillatory(cfg, chash, out):
    params = _space_from(cfg)
    kind = dispersive.PhaseKind.from_selector(cfg["equation"])
    triples = oscillatory.sample_claim_triples(
        kind, params, int(cfg["experiment.n_triples"]), seed=int(cfg["experiment.seed"])
    )
    rep = oscillatory.dyadic_sum_check(kind, params, triples,
                                       big_k=int(cfg["experiment.k_levels"]))
    rows = [(r[0], r[1], r[2], rep.k_levels, r[3]) for r in rep.rows]
    _emit_csv(out / "oscillatory.csv", chash,
              ["s", "s_prime", "d", "K", "normalized_sum"], rows)
    verdict = "pass" if rep.passed else "fail"
    print(f"oscillatory-claim: max normalized sum {rep.max_normalized:.4f}, "
          f"K-stability change {rep.max_rel_change:.2e} -> {verdict}")
    return 0 if rep.passed else 1


def _default_n_list(name: str) -> list[int]:
    if name == "case1":
        return [2**k for k in range(6, 13)]
    # spans [2^3, 2^6]; intermediate points keep the slope fit >= 5 samples
    return [8, 11, 16, 23, 32, 45, 64]


def _cmd_experiment(cfg, chash, out, which):
    params = _space_from(cfg)
    if which == "case1":
        n_list = _ints(cfg["experiment.n_list"]) or _default_n_list("case1")
        eps = float(cfg["experiment.epsilon"]) or 0.05
        rep = experiments.case1_run(
            params, float(cfg["experiment.a"]), _floats(cfg["experiment.beta_list"]),
            n_list, epsilon=eps, shifted=bool(int(cfg["experiment.shifted"])),
            slope_tol=float(cfg["tolerances.slope"]),
        )
    elif which == "case2":
        n_list = _ints(cfg["experiment.n_list"]) or _default_n_list("case2")
        eps = float(cfg["experiment.epsilon"]) or 0.25
        rep = experiments.case2_run(
            params, float(cfg["experiment.beta"]), n_list, epsilon=eps,
            slope_tol=float(cfg["tolerances.slope_case2"]),
        )
    else:
        rep = experiments.transference_check(
            dispersive.PhaseKind.from_selector(cfg["equation"]),
            dispersive.PhaseKind.from_selector(cfg["experiment.equation2"]),
            big_lambda=float(cfg["experiment.lambda_threshold"]),
            lambda_max=float(cfg["experiment.lambda_max_sweep"]),
            params=params,
        )
    _emit_json(out / f"{which}.json", chash, rep.to_dict())
    slope_rows = [(f.quantity, f.slope, f.expected, f.tolerance, f.residual_rms)
                  for f in rep.fitted_slopes]
    if slope_rows:
        _emit_csv(out / f"{which}-slopes.csv", chash,
                  ["quantity", "slope", "expected", "tolerance", "residual_rms"],
                  slope_rows)
    _emit_csv(out / f"{which}-scalars.csv", chash, ["quantity", "value"], rep.scalars)
    print(f"experiment {which}: verdict {rep.verdict} -> {out}")
    if which == "transference":
        return 0
    return 0 if rep.verdict == "pass" else 1


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drwave",
        description="Spherical Fourier analysis and dispersive propagators "
                    "on Damek-Ricci spaces",
    )
    sub = parser.add_subparsers(dest="subcommand")

    def add(name, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--config", help="flat dotted-key config file")
        p.add_argument("--m-v", dest="m_v", type=int)
        p.add_argument("--m-z", dest="m_z", type=int)
        p.add_argument("--s-max", dest="s_max", type=float)
        p.add_argument("--s-points", dest="s_points", type=int)
        p.add_argument("--lambda-max", dest="lambda_max", type=float)
        p.add_argument("--lambda-points", dest="lambda_points", type=int)
        p.add_argument("--output-dir", dest="output_dir")
        return p

    add("space", help="structure constants and density table")
    add("cfun", help="c-function and Plancherel density table")
    p = add("phi", help="spherical function values")
    p.add_argument("--lambda", dest="lam")
    p.add_argument("--s", dest="s")
    p = add("transform", help="forward transform and roundtrip of a profile")
    p.add_argument("--profile", dest="profile")
    p = add("propagate", help="dispersive evolution of a spectrum")
    p.add_argument("--equation", dest="equation")
    p.add_argument("--spectrum", dest="spectrum")
    p.add_argument("--t", dest="time", type=float)
    p = add("maximal", help="discretized maximal function")
    p.add_argument("--equation", dest="equation")
    p.add_argument("--spectrum", dest="spectrum")
    p.add_argument("--t-points", dest="t_points", type=int)
    p = add("oscillatory-claim", help="dyadic window sum check")
    p.add_argument("--equation", dest="equation")
    p.add_argument("--k-levels", dest="k_levels", type=int)
    p.add_argument("--n-triples", dest="n_triples", type=int)
    p.add_argument("--seed", dest="seed", type=int)
    p = add("experiment", help="scaling experiments")
    p.add_argument("which", choices=["case1", "case2", "transference"])
    p.add_argument("--a", dest="a", type=float)
    p.add_argument("--beta", dest="beta", type=float)
    p.add_argument("--beta-list", dest="beta_list")
    p.add_argument("--n-list", dest="n_list")
    p.add_argument("--epsilon", dest="epsilon", type=float)
    p.add_argument("--shifted", dest="shifted", action="store_const", const=1)
    p.add_argument("--equation", dest="equation")
    p.add_argument("--equation2", dest="equation2")
    p.add_argument("--lambda-threshold", dest="lambda_threshold", type=float)
    p.add_argument("--lambda-max-sweep", dest="lambda_max_sweep", type=float)
    p.add_argument("--slope-tol", dest="slope_tol", type=float)
    p.add_argument("--slope-tol-case2", dest="slope_tol_case2", type=float)
    return parser


_HANDLERS = {
    "space": _cmd_space,
    "cfun": _cmd_cfun,
    "phi": _cmd_phi,
    "transform": _cmd_transform,
    "propagate": _cmd_propagate,
    "maximal": _cmd_maximal,
    "oscillatory-claim": _cmd_oscillatory,
}


def run(argv) -> int:
    """Execute one CLI invocation; returns the process exit status."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if not args.subcommand:
        parser.print_usage(sys.stderr)
        return 2
    sub = args.subcommand
    key = sub if sub != "experiment" else f"experiment-{args.which}"
    try:
        cfg, chash = _resolve(key, args)
        out = _out_dir(cfg, key, chash)
        if sub == "experiment":
            return _cmd_experiment(cfg, chash, out, args.which)
        return _HANDLERS[sub](cfg, chash, out)
    except DrwaveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
