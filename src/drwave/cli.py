"""Command-line entry point: every module behind one reproducible command.

Each config key is one row of `_OPTIONS`: its default, flag, type and the
subcommands that read the key, the only ones that take its flag or its
line of a config file.  A run resolves its configuration from the
defaults, then an optional flat dotted-key config file, then the flags,
and holds each value as the str of what the key's type reads, so a value
hashes the same whichever source set it.  The SHA-256 hash of the
subcommand and the values, never of the output location, names the output
directory: identical configurations land in identical paths with
byte-identical artifacts (a JSON timestamp field is the one run-dependent
value, and it is kept out of the hash).  A malformed or non-finite value,
in a config file's line for any key too, exits 2 with an `error:` line.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import astuple, fields
from pathlib import Path

import numpy as np

from . import dispersive, experiments, oscillatory, spherical, transform
from .bumps import bump_unit
from .errors import DrwaveError, ResolutionError, ValidationError
from .profiles import SpectralProfile, RadialProfile
from .space import density, log_density_derivative, new_space
from .special import c_function, plancherel_density

__all__ = ["main", "run"]

_F = "%.17g"
_LAMBDA_STEPS_CAP = 2**22   # most grid steps the unset --lambda-points rule may ask for


def _switch(text: str) -> int:
    """Type of an on/off key (0 or 1); its flag takes no value and stores 1."""
    return int(int(text) != 0)


# key: (default, flag, type, subcommands), subcommands None meaning all of them
_EXPERIMENT = ("experiment",)
_LAMBDA_GRID = ("transform", "propagate", "maximal")   # the callers of _lambda_grid
_OPTIONS: dict[str, tuple] = {
    "space.m_v": ("2", "--m-v", int, None),
    "space.m_z": ("1", "--m-z", int, None),
    "grids.s_max": ("12", "--s-max", float, ("space",) + _LAMBDA_GRID),
    "grids.s_points": ("4096", "--s-points", int, ("transform",)),
    "grids.lambda_max": ("256", "--lambda-max", float, ("cfun",) + _LAMBDA_GRID),
    "grids.lambda_points": ("0", "--lambda-points", int, _LAMBDA_GRID),  # 0: the pi/8 phase rule
    "grids.t_points": ("512", "--t-points", int, ("maximal",)),
    "equation": ("frac:2", "--equation", str,
                 ("propagate", "maximal", "oscillatory-claim", "experiment")),
    "profile": ("gaussian:1", "--profile", str, ("transform",)),
    "spectrum": ("bump:2,8", "--spectrum", str, ("propagate", "maximal")),
    "time": ("0.1", "--t", float, ("propagate",)),
    "lambda": ("2", "--lambda", str, ("phi",)),
    "s": ("0.5", "--s", str, ("phi",)),
    "experiment.a": ("2", "--a", float, _EXPERIMENT),
    "experiment.beta": ("0.25", "--beta", float, _EXPERIMENT),
    "experiment.beta_list": ("0.1,0.25,0.4", "--beta-list", str, _EXPERIMENT),
    "experiment.n_list": ("", "--n-list", str, _EXPERIMENT),
    "experiment.epsilon": ("0", "--epsilon", float, _EXPERIMENT),  # 0: per experiment
    "experiment.shifted": ("0", "--shifted", _switch, _EXPERIMENT),
    "experiment.k_levels": ("20", "--k-levels", int, ("oscillatory-claim",)),
    "experiment.n_triples": ("60", "--n-triples", int, ("oscillatory-claim",)),
    "experiment.seed": ("0", "--seed", int, ("oscillatory-claim",)),
    "experiment.lambda_threshold": ("1", "--lambda-threshold", float, _EXPERIMENT),
    "experiment.lambda_max_sweep": ("1000", "--lambda-max-sweep", float, _EXPERIMENT),
    "experiment.equation2": ("frac-shifted:2", "--equation2", str, _EXPERIMENT),
    "tolerances.slope": ("0.05", "--slope-tol", float, _EXPERIMENT),
    "tolerances.slope_case2": ("0.1", "--slope-tol-case2", float, _EXPERIMENT),
    "output_dir": ("drwave-out", "--output-dir", str, None),
}

# every value is held as the str of what its type reads, whichever source set it
DEFAULTS: dict[str, str] = {key: str(typ(default))
                            for key, (default, _, typ, _) in _OPTIONS.items()}


def _parse(typ, text: str, what: str):
    try:
        val = typ(text)
    except ValueError:
        raise ValidationError(f"{what}: cannot read {text!r}") from None
    if isinstance(val, float) and not math.isfinite(val):
        raise ValidationError(f"{what}: {text!r} is not a finite number")
    return val


def _numbers(text: str, what: str, typ=float) -> list:
    return [_parse(typ, tok, what) for tok in text.split(",") if tok.strip()]


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
            out[key] = str(_parse(_OPTIONS[key][2], val, f"{path}:{ln}: {key}"))
    return out


def config_hash(cfg: dict[str, str], subcommand: str) -> str:
    """Names a run by its values alone: the output location is not hashed."""
    blob = subcommand + "\n" + "\n".join(
        f"{k} = {cfg[k]}" for k in sorted(cfg) if k != "output_dir"
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _reads(subcommand: str, key: str) -> bool:
    """Whether the subcommand reads the key, and so takes its flag."""
    readers = _OPTIONS[key][3]
    return readers is None or subcommand in readers


def _resolve(run_key: str, args: argparse.Namespace) -> tuple[dict[str, str], str]:
    """The run's values and their hash.  A config file sets only the keys
    that the subcommand reads; every key it names is still checked."""
    cfg = dict(DEFAULTS)
    if getattr(args, "config", None):
        cfg.update((key, val) for key, val in parse_config_file(args.config).items()
                   if _reads(args.subcommand, key))
    for key, (_, _, typ, _) in _OPTIONS.items():
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = str(_parse(typ, str(val), key))
    return cfg, config_hash(cfg, run_key)


def _out_dir(cfg: dict[str, str], subcommand: str, chash: str) -> Path:
    """The run's directory; the first artifact written creates it."""
    root = os.environ.get("DRWAVE_OUT_ROOT", cfg["output_dir"])
    return Path(root) / f"{subcommand}-{chash}"


def _open_artifact(path: Path):
    """Open an artifact for writing, creating the run's directory first."""
    path.parent.mkdir(parents=True, exist_ok=True)
    return open(path, "w", encoding="utf-8", newline="\n")


def _emit_csv(path: Path, chash: str, names: list[str], columns) -> None:
    """The table of the given columns (arrays or sequences of one length),
    each converted once to Python values, written in one call: one `%` per
    row, %s for a str column and _F for a number."""
    cols = [c.tolist() if isinstance(c, np.ndarray) else list(c) for c in columns]
    fmt = ",".join("%s" if col and isinstance(col[0], str) else _F for col in cols) + "\n"
    body = "".join(fmt % row for row in zip(*cols))
    with _open_artifact(path) as fh:
        fh.write(f"# config-hash: {chash}\n" + ",".join(names) + "\n" + body)


def _emit_json(path: Path, chash: str, payload: dict) -> None:
    doc = dict(payload)
    doc["config_hash"] = chash
    doc["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    with _open_artifact(path) as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _space_from(cfg):
    return new_space(int(cfg["space.m_v"]), int(cfg["space.m_z"]))


def _lambda_grid(cfg, rate: float = 0.0) -> np.ndarray:
    """--lambda-points points on [0, lambda_max]; unset, enough that a phase
    of rate max(s_max, rate) turns by at most pi/8 per step.  Raises
    ResolutionError where that needs more than _LAMBDA_STEPS_CAP steps,
    and ValidationError for a count below 0."""
    lam_max = float(cfg["grids.lambda_max"])
    n = int(cfg["grids.lambda_points"])
    if n < 0:
        raise ValidationError(f"--lambda-points must be 0 (unset) or above, got {n}")
    if n == 0:
        rate = max(float(cfg["grids.s_max"]), rate)
        steps = lam_max * rate * 8.0 / math.pi
        if not steps <= _LAMBDA_STEPS_CAP:
            raise ResolutionError(
                f"resolving a phase of rate {rate:.3g} on [0, {lam_max:g}] takes more "
                f"than {_LAMBDA_STEPS_CAP} lambda steps; set --lambda-points"
            )
        n = max(int(math.ceil(steps)) + 1, 64)
    return np.linspace(0.0, lam_max, n)


def _builtin_profile(cfg):
    """The --profile selector's samples on --s-points points of [0, s_max],
    and the closed form they sample: (RadialProfile, closed_form)."""
    name, _, arg = cfg["profile"].partition(":")
    if name not in ("gaussian", "sech"):
        raise ValidationError(f"unknown profile selector {cfg['profile']!r}")
    alpha = _parse(float, arg or "1", "profile")
    if not alpha > 0:
        raise ValidationError(f"profile {cfg['profile']!r} needs a width alpha > 0")
    n = int(cfg["grids.s_points"])
    if n < 2:
        raise ValidationError(f"--s-points must be 2 or above, got {n}")
    s = np.linspace(0.0, float(cfg["grids.s_max"]), n)

    def closed_form(x):
        # a wide alpha: exp(-inf) = 1/inf = 0, where a zero norm is rejected
        with np.errstate(over="ignore"):
            return np.exp(-alpha * x**2) if name == "gaussian" else 1.0 / np.cosh(alpha * x) ** 4
    return RadialProfile(s, closed_form(s)), closed_form


def _builtin_spectrum(cfg, params, kind, t_max: float) -> SpectralProfile:
    """The --spectrum selector on _lambda_grid, which also resolves the
    multiplier e^{i t psi} up to t_max at the spectrum's top, as
    PropagatorKernel demands."""
    name, _, arg = cfg["spectrum"].partition(":")
    default_arg = {"bump": "2,8", "gaussian": "4,1"}.get(name)
    if default_arg is None:
        raise ValidationError(f"unknown spectrum selector {cfg['spectrum']!r}")
    pair = _numbers(arg or default_arg, "spectrum")
    if len(pair) != 2:
        raise ValidationError(f"spectrum {cfg['spectrum']!r} takes two numbers, "
                              f"e.g. {name}:{default_arg}")
    if name == "bump":
        lo, hi = pair
        if not lo < hi:
            raise ValidationError(f"spectrum {cfg['spectrum']!r} needs lo < hi")
        top, hint = hi, (lo, hi)
        shape = lambda lam: bump_unit(2.0 * (lam - lo) / (hi - lo) - 1.0)
    else:
        center, sigma = pair
        if not (sigma > 0 and sigma * sigma > 0):
            raise ValidationError(f"spectrum {cfg['spectrum']!r} needs a width sigma > 0 "
                                  f"whose square is not 0 in double precision")
        top, hint = float(cfg["grids.lambda_max"]), None

        def shape(lam):
            # a far center or a wide sigma squares to inf: exp(-inf) = 0, exp(-0) = 1
            with np.errstate(over="ignore"):
                return np.exp(-((lam - center) ** 2) / (2.0 * (sigma * sigma)))
    dpsi = abs(dispersive.phase_derivs(kind, params, max(top, 1e-3))[0])
    lam = _lambda_grid(cfg, t_max * dpsi)
    vals = shape(lam)
    if hint is None:
        # the Gaussian's support: a step past the first and last lambda where
        # |fh| |c|^-2 reaches 1e-16 of its peak (any one step if it is all 0);
        # the samples beyond it are set to 0
        w = vals * plancherel_density(params, lam)
        keep = np.flatnonzero(w >= 1e-16 * np.max(w)) if np.max(w) > 0 else [0]
        lo, hi = max(keep[0] - 1, 0), min(keep[-1] + 1, lam.size - 1)
        vals[:lo], vals[hi + 1:] = 0.0, 0.0
        hint = (float(lam[lo]), float(lam[hi]))
    return SpectralProfile(lam, vals, support_hint=hint)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_space(cfg, chash, out):
    params = _space_from(cfg)
    s = np.linspace(0.0, float(cfg["grids.s_max"]), 257)[1:]
    with np.errstate(over="ignore"):     # a column reads inf past the double range
        cols = (s, density(params, s), log_density_derivative(params, s))
    _emit_csv(out / "space.csv", chash, ["s", "density", "log_density_derivative"], cols)
    print(f"space m_v={params.m_v} m_z={params.m_z} n={params.n} Q={params.Q} -> {out}")
    return 0


def _cmd_cfun(cfg, chash, out):
    params = _space_from(cfg)
    lam_max = float(cfg["grids.lambda_max"])
    if not lam_max > 0.01:
        raise ValidationError(f"cfun needs --lambda-max above 0.01, the table's first "
                              f"lambda; got {lam_max:g}")
    lam = np.geomspace(0.01, lam_max, 512)
    with np.errstate(over="ignore"):     # a column reads inf past the double range
        c = c_function(params, lam)
        cols = (lam, c.real, c.imag, plancherel_density(params, lam))
    _emit_csv(out / "cfun.csv", chash, ["lambda", "re_c", "im_c", "plancherel"], cols)
    print(f"cfun: 512 rows on [0.01, {cfg['grids.lambda_max']}] -> {out}")
    return 0


def _cmd_phi(cfg, chash, out):
    params = _space_from(cfg)
    lams = _numbers(cfg["lambda"], "lambda")
    ss = _numbers(cfg["s"], "s")
    if not (lams and ss):
        raise ValidationError("phi needs at least one lambda and one s")
    vals = spherical.phi_matrix(params, lams, ss)
    methods = np.empty(len(ss), dtype=object)
    for name, cells in spherical._route_plan(np.asarray(ss, dtype=float)):
        methods[cells] = name
    cols = (np.repeat(lams, len(ss)), np.tile(ss, len(lams)), vals.ravel(),
            np.tile(methods, len(lams)))
    _emit_csv(out / "phi.csv", chash, ["lambda", "s", "value", "method"], cols)
    for lam, s, val, method in zip(*(c.tolist() for c in cols)):
        print(f"phi(lambda={_F % lam}, s={_F % s}) = {_F % val}  [{method}]")
    return 0


def _cmd_transform(cfg, chash, out):
    params = _space_from(cfg)
    f, closed_form = _builtin_profile(cfg)
    s_out = np.linspace(0.0, 0.75 * float(cfg["grids.s_max"]), 384)
    # the error is read against the closed form; roundtrip.csv's reference
    # column stays the samples' piecewise-linear interpolant, which
    # bench/outputs.py checks against its stored references
    exact = closed_form(s_out)
    with np.errstate(over="ignore"):        # A(s) past the double range reads inf
        w = density(params, s_out)
    if not np.all(np.isfinite(w)):
        raise ValidationError(f"the volume density A(s) passes the double range on the roundtrip "
                              f"grid [0, {s_out[-1]:g}]; lower --s-max")
    den = np.sqrt(np.trapezoid(exact**2 * w, s_out))
    if not 0.0 < den < math.inf:
        raise ValidationError(f"profile {cfg['profile']!r} has norm {den:g} on the roundtrip "
                              f"grid [0, {s_out[-1]:g}]; it needs a positive finite one")
    lam = _lambda_grid(cfg)
    fh = transform.sft_forward(params, f, lam)
    _emit_csv(out / "forward.csv", chash, ["lambda", "re", "im", "abs"],
              (lam, fh.values.real, fh.values.imag, np.abs(fh.values)))
    back = transform.sft_inverse(params, fh, s_out)
    num = np.sqrt(np.trapezoid(np.abs(back.values - exact) ** 2 * w, s_out))
    rel = float(num / den)
    _emit_csv(out / "roundtrip.csv", chash, ["s", "re", "im", "reference"],
              (s_out, back.values.real, back.values.imag,
               np.interp(s_out, f.s_grid, np.real(f.values))))
    print(f"transform roundtrip relative L2 error: {rel:.3e} -> {out}")
    return 0 if rel < 1e-3 else 1


def _cmd_propagate(cfg, chash, out):
    params = _space_from(cfg)
    kind = dispersive.PhaseKind.from_selector(cfg["equation"])
    t = float(cfg["time"])
    fh = _builtin_spectrum(cfg, params, kind, abs(t))
    s_out = np.linspace(0.0, float(cfg["grids.s_max"]) / 2.0, 384)
    prof = dispersive.propagate(params, fh, kind, t, s_out)
    _emit_csv(out / "propagate.csv", chash, ["s", "re", "im"],
              (prof.s_grid, prof.values.real, prof.values.imag))
    print(f"propagate t={_F % t} equation={cfg['equation']} -> {out}")
    return 0


def _cmd_maximal(cfg, chash, out):
    params = _space_from(cfg)
    kind = dispersive.PhaseKind.from_selector(cfg["equation"])
    fh = _builtin_spectrum(cfg, params, kind, 1.0)   # every t of the grid is below 1
    t_grid = dispersive.default_t_grid(params, kind, fh.top, n_points=int(cfg["grids.t_points"]))
    s_out = np.linspace(0.0, float(cfg["grids.s_max"]) / 2.0, 256)
    sup = dispersive.maximal_function(params, fh, kind, t_grid, s_out)
    _emit_csv(out / "maximal.csv", chash, ["s", "sup"], (sup.s_grid, sup.values))
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
    r = rep.rows.T
    _emit_csv(out / "oscillatory.csv", chash, ["s", "s_prime", "d", "K", "normalized_sum"],
              (r[0], r[1], r[2], [rep.k_levels] * len(rep.rows), r[3]))
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
    n_list = (_numbers(cfg["experiment.n_list"], "experiment.n_list", int)
              or _default_n_list(which))
    eps = float(cfg["experiment.epsilon"])   # 0: each experiment's own default
    eps_kw = {"epsilon": eps} if eps else {}
    if which == "case1":
        rep = experiments.case1_run(
            params, float(cfg["experiment.a"]),
            _numbers(cfg["experiment.beta_list"], "experiment.beta_list"),
            n_list, shifted=bool(int(cfg["experiment.shifted"])),
            slope_tol=float(cfg["tolerances.slope"]), **eps_kw,
        )
    elif which == "case2":
        rep = experiments.case2_run(
            params, float(cfg["experiment.beta"]), n_list,
            slope_tol=float(cfg["tolerances.slope_case2"]), **eps_kw,
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
    if rep.fitted_slopes:
        _emit_csv(out / f"{which}-slopes.csv", chash, [f.name for f in fields(experiments.SlopeFit)],
                  zip(*map(astuple, rep.fitted_slopes)))
    _emit_csv(out / f"{which}-scalars.csv", chash, ["quantity", "value"], zip(*rep.scalars))
    print(f"experiment {which}: verdict {rep.verdict} -> {out}")
    if which == "transference":
        return 0
    return 0 if rep.verdict == "pass" else 1


# ---------------------------------------------------------------------------

_SUBCOMMANDS = {
    "space": ("structure constants and density table", _cmd_space),
    "cfun": ("c-function and Plancherel density table", _cmd_cfun),
    "phi": ("spherical function values", _cmd_phi),
    "transform": ("forward transform and roundtrip of a profile", _cmd_transform),
    "propagate": ("dispersive evolution of a spectrum", _cmd_propagate),
    "maximal": ("discretized maximal function", _cmd_maximal),
    "oscillatory-claim": ("dyadic window sum check", _cmd_oscillatory),
    "experiment": ("scaling experiments", _cmd_experiment),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: parse_args
    keeps its results in a fresh namespace and leaves the parser as it was.
    A flag is taken only as written, never as the prefix of a longer one,
    which would set a key the user did not name (`experiment --lambda-max`
    as `--lambda-max-sweep`)."""
    parser = argparse.ArgumentParser(
        prog="drwave",
        description="Spherical Fourier analysis and dispersive propagators "
                    "on Damek-Ricci spaces",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="subcommand")
    for name, (help_text, _) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        if name == "experiment":
            p.add_argument("which", choices=["case1", "case2", "transference"])
        p.add_argument("--config", help="flat dotted-key config file")
        for key, (_, flag, typ, _) in _OPTIONS.items():
            if _reads(name, key):
                kind = {"action": "store_const", "const": 1} if typ is _switch else {}
                p.add_argument(flag, dest=key, **kind)
    return parser


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
    which = getattr(args, "which", None)
    key = f"{args.subcommand}-{which}" if which else args.subcommand
    handler = _SUBCOMMANDS[args.subcommand][1]
    try:
        cfg, chash = _resolve(key, args)
        out = _out_dir(cfg, key, chash)
        return handler(cfg, chash, out, which) if which else handler(cfg, chash, out)
    except (DrwaveError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
