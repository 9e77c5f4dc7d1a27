import json
import re
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drwave import dispersive, experiments, spherical
from drwave.cli import (
    _OPTIONS,
    _SUBCOMMANDS,
    DEFAULTS,
    _build_parser,
    _builtin_spectrum,
    _emit_csv,
    _lambda_grid,
    _resolve,
    _switch,
    config_hash,
    parse_config_file,
    run,
)
from drwave.errors import ValidationError
from drwave.profiles import SpectralProfile
from drwave.space import density, log_density_derivative, new_space
from drwave.special import c_function, plancherel_density


@pytest.fixture()
def out_root(tmp_path, monkeypatch):
    root = tmp_path / "runs"
    monkeypatch.setenv("DRWAVE_OUT_ROOT", str(root))
    return root


def _read(path):
    return path.read_text(encoding="utf-8")


def test_no_arguments_is_usage_error(capsys, out_root):
    assert run([]) == 2


def test_unknown_subcommand(out_root):
    assert run(["melt"]) == 2


def test_phi_subcommand(out_root, capsys):
    code = run(["phi", "--m-v", "2", "--m-z", "1", "--lambda", "2", "--s", "0.5"])
    assert code == 0
    msg = capsys.readouterr().out
    assert "bessel" in msg
    (run_dir,) = list(out_root.iterdir())
    text = _read(run_dir / "phi.csv")
    assert text.startswith("# config-hash: ")
    assert "lambda,s,value,method" in text


def test_phi_subcommand_labels_unsorted_lists_from_the_route_plan(out_root):
    # s in no order, on both sides of the seam at 2 and on it: each row's
    # method is its column's route and its value phi_matrix's, to the bit
    lams, s = [0.0, 0.5, 3.0], [2.5, 0.5, 2.0, 1.999, 0.0]
    assert run(["phi", "--m-v", "16", "--m-z", "7", "--lambda", "0,0.5,3",
                "--s", "2.5,0.5,2,1.999,0"]) == 0
    (run_dir,) = list(out_root.iterdir())
    rows = [line.split(",") for line in _read(run_dir / "phi.csv").splitlines()[2:]]
    assert [row[3] for row in rows] == ["hc", "bessel", "hc", "bessel", "bessel"] * 3
    want = spherical.phi_matrix(new_space(16, 7), lams, s).ravel()
    assert [float(row[2]) for row in rows] == want.tolist()


def test_space_subcommand_and_hash_naming(out_root, capsys):
    assert run(["space", "--m-v", "4", "--m-z", "3"]) == 0
    (run_dir,) = list(out_root.iterdir())
    assert re.fullmatch(r"space-[0-9a-f]{12}", run_dir.name)
    out = capsys.readouterr().out
    assert "n=8" in out and "Q=5" in out


def test_cfun_columns(out_root):
    assert run(["cfun", "--lambda-max", "10"]) == 0
    (run_dir,) = list(out_root.iterdir())
    lines = _read(run_dir / "cfun.csv").splitlines()
    assert lines[1] == "lambda,re_c,im_c,plancherel"


@pytest.mark.parametrize("m_v,m_z", [(2, 1), (4, 3), (16, 7)])
def test_table_columns_match_per_row_evaluation(out_root, m_v, m_z):
    # each column of the default cfun and space tables is one array call;
    # it agrees with the scalar call of its row to rounding
    space = ["--m-v", str(m_v), "--m-z", str(m_z)]
    assert run(["cfun", *space]) == 0 and run(["space", *space]) == 0
    cfun_dir, space_dir = sorted(out_root.iterdir())
    params = new_space(m_v, m_z)
    _, cfun = _table(cfun_dir / "cfun.csv")
    _, tab = _table(space_dir / "space.csv")
    c = np.array([c_function(params, x) for x in cfun[:, 0]])
    checks = [(cfun[:, 1], c.real), (cfun[:, 2], c.imag),
              (cfun[:, 3], [plancherel_density(params, x) for x in cfun[:, 0]]),
              (tab[:, 1], [density(params, x) for x in tab[:, 0]]),
              (tab[:, 2], [log_density_derivative(params, x) for x in tab[:, 0]])]
    for got, ref in checks:
        ref = np.asarray(ref)
        assert np.all(np.abs(got - ref) <= 4e-16 * np.abs(ref))


@pytest.mark.parametrize("argv,name,column", [
    (["cfun", "--lambda-max", "1e200"], "cfun.csv", 3),
    (["space", "--s-max", "2000"], "space.csv", 1),
])
def test_table_overflow_reads_inf_without_warning(out_root, argv, name, column):
    # where a value passes the double range, its column reads inf, and
    # the run prints no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv) == 0
    (run_dir,) = list(out_root.iterdir())
    col = _table(run_dir / name)[1][:, column]
    assert np.isinf(col[-1]) and np.all(np.isfinite(col[:10]))


def test_float_serialization_is_lossless(out_root):
    assert run(["phi", "--lambda", "2.7", "--s", "0.123456789012345678"]) == 0
    (run_dir,) = list(out_root.iterdir())
    data_line = _read(run_dir / "phi.csv").splitlines()[2]
    cells = data_line.split(",")
    value = float(cells[2])
    # 17 significant digits reproduce the double exactly
    assert float("%.17g" % value) == value


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=8))
def test_csv_round_trip_is_bit_exact(tmp_path_factory, values):
    # %.17g writes every finite double, subnormals and -0.0 included, so
    # that it reads back bit for bit
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    _emit_csv(path, "0" * 12, [f"c{i}" for i in range(len(values))], [[v] for v in values])
    cells = _read(path).splitlines()[2].split(",")
    got = np.array([float(c) for c in cells])
    assert got.view(np.uint64).tolist() == np.array(values).view(np.uint64).tolist()


def test_config_file_and_flag_override(tmp_path, out_root):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "space.m_v = 4\nspace.m_z = 3   # comment\nlambda = 1.5\ns = 0.25\n",
        encoding="utf-8",
    )
    assert run(["phi", "--config", str(cfg), "--m-z", "1"]) == 0
    dirs = sorted(p.name for p in out_root.iterdir())
    assert len(dirs) == 1
    parsed = parse_config_file(str(cfg))
    assert parsed["space.m_v"] == "4"


def test_config_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("space.m_w = 3\n", encoding="utf-8")
    with pytest.raises(ValidationError):
        parse_config_file(str(cfg))


@pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
def test_config_rejects_non_finite_numbers(tmp_path, text):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"time = {text}\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="time"):
        parse_config_file(str(cfg))


def test_config_error_exit_code(tmp_path, out_root):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("space.m_w = 3\n", encoding="utf-8")
    assert run(["phi", "--config", str(cfg)]) == 2


def test_config_skips_blank_and_comment_only_lines(tmp_path):
    cfg = tmp_path / "sparse.cfg"
    cfg.write_text("\n   \n# a comment\n  # another\nspace.m_v = 4\n\n", encoding="utf-8")
    assert parse_config_file(str(cfg)) == {"space.m_v": "4"}


def test_config_line_without_equals_exits_2(tmp_path, out_root, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("space.m_v 4\n", encoding="utf-8")
    assert run(["phi", "--config", str(cfg)]) == 2
    assert "expected 'key = value'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["phi", "--lambda", "x"],
    ["experiment", "case1", "--beta-list", "a"],
    ["experiment", "case1", "--beta-list", ",", "--n-list", "64,91,128,181,256"],
    ["propagate", "--equation", "frac:x"],
    ["propagate", "--spectrum", "bump:2"],
    ["transform", "--profile", "gaussian:q"],
    ["phi", "--config", "BAD_CFG"],
    # a spectrum whose support lies beyond the lambda grid
    ["propagate", "--spectrum", "bump:2,8", "--lambda-max", "1", "--lambda-points", "64"],
    ["maximal", "--spectrum", "bump:2,8", "--lambda-max", "1", "--lambda-points", "64"],
    ["maximal", "--t-points", "0"],
    ["maximal", "--t-points", "1"],
    # a Gaussian spectrum of zero or negative width, a bump with lo >= hi
    ["propagate", "--spectrum", "gaussian:4,0"],
    ["propagate", "--spectrum", "gaussian:4,-1"],
    ["propagate", "--spectrum", "bump:3,3"],
    # non-finite numbers, as a flag or a list item, and counts below 1
    ["propagate", "--t", "nan", "--lambda-points", "128", "--lambda-max", "8", "--s-max", "3"],
    ["maximal", "--lambda-max", "nan"],
    ["phi", "--lambda", "1,inf"],
    ["oscillatory-claim", "--n-triples", "0"],
    ["oscillatory-claim", "--n-triples", "-2"],
    ["oscillatory-claim", "--k-levels", "0", "--n-triples", "3"],
    ["oscillatory-claim", "--seed", "-1", "--n-triples", "3", "--k-levels", "2"],
    ["transform", "--lambda-points", "-5"],
    ["transform", "--s-points", "-5"],
    # a selector exponent that is not a finite number above 1
    ["propagate", "--equation", "frac:nan", "--lambda-points", "128", "--lambda-max", "8",
     "--s-max", "3"],
    ["propagate", "--equation", "frac:inf", "--lambda-points", "128", "--lambda-max", "8",
     "--s-max", "3"],
    ["oscillatory-claim", "--equation", "frac-shifted:nan", "--n-triples", "3",
     "--k-levels", "2"],
    ["experiment", "transference", "--equation", "frac:nan"],
    # a profile of zero or negative width, an unknown profile, unreadable lists
    ["transform", "--profile", "gaussian:0"],
    ["transform", "--profile", "gaussian:-1"],
    ["transform", "--profile", "sech:0"],
    ["transform", "--profile", "cosh:1"],
    ["phi", "--lambda", "1,x"],
    ["experiment", "case1", "--n-list", "64,abc"],
    # a sweep threshold above lambda_max/10 leaves no first decade
    ["experiment", "transference", "--lambda-threshold", "1e4"],
    # a cfun table that would start at or above its end, lambda = 0.01
    ["cfun", "--lambda-max", "0"],
    ["cfun", "--lambda-max", "-1"],
    ["cfun", "--lambda-max", "0.01"],
    # fewer than 5 distinct N leave the slope fits rank-deficient
    ["experiment", "case1", "--n-list", "64,64,64,64,64", "--beta-list", "0.25"],
    ["experiment", "case2", "--n-list", "8,8,8,8,8"],
    # psi ~ N^a past the double range; an empty lambda or s list
    ["experiment", "case1", "--a", "100"],
    # a case-1 exponent at or below 1, or not a number
    ["experiment", "case1", "--a", "1"],
    ["experiment", "case1", "--a", "0.5"],
    ["experiment", "case1", "--a", "nan"],
    ["phi", "--lambda", ","],
    ["phi", "--s", ""],
    # a profile with no positive finite norm on the roundtrip grid
    ["transform", "--profile", "gaussian:1e300"],
    ["transform", "--s-max", "1e-300"],
    # a profile whose exponent passes the float range; a Sobolev weight that does
    ["transform", "--profile", "gaussian:1e307"],
    ["experiment", "case1", "--beta-list", "1e300", "--n-list", "64,128,256,512,1024"],
    # lambda^2 past the double range, a width whose square is 0, a volume
    # density past the double range, psi' past it
    ["propagate", "--spectrum", "bump:0,1e300"],
    ["maximal", "--spectrum", "bump:1e300,2e300"],
    ["propagate", "--spectrum", "gaussian:0,1e-300"],
    ["transform", "--s-max", "1e300"],
    ["oscillatory-claim", "--equation", "frac:50"],
    ["experiment", "transference", "--lambda-max-sweep", "1e300"],
    # Beam and Boussinesq past lambda ~ 1.16e77, where u^2 (not psi) leaves
    # the double range: the rate psi' sizes the grid and is refused
    ["propagate", "--equation", "beam", "--spectrum", "bump:0,1e80"],
    ["propagate", "--equation", "beam-shifted", "--spectrum", "bump:0,1e80"],
    ["propagate", "--equation", "boussinesq", "--spectrum", "bump:0,1e80"],
    ["maximal", "--equation", "beam", "--spectrum", "bump:1e80,2e80"],
    # psi' or psi'' past the double range at a finite lambda
    ["propagate", "--equation", "frac:5", "--spectrum", "bump:0,1e80"],
    ["maximal", "--equation", "frac:5", "--spectrum", "bump:1e80,2e80"],
    ["oscillatory-claim", "--equation", "frac:100", "--n-triples", "3"],
    # a lambda step below the smallest normal double
    ["transform", "--lambda-max", "1e-310", "--s-max", "6", "--s-points", "256",
     "--lambda-points", "64"],
    # a case-2 list whose bands ask for more than 2^22 panels in all, each N
    # alone within the cap: refused before any band is worked
    ["experiment", "case2", "--n-list", "1000000,2000000,3000000,4000000,5000000"],
    # an unknown spectrum selector, an exponent on a family that takes none,
    # a lambda grid of one point
    ["propagate", "--spectrum", "foo:1,2"],
    ["propagate", "--equation", "beam:2"],
    ["transform", "--lambda-points", "1"],
    # a sech profile whose cosh passes the float range: 1/inf = 0, norm 0
    ["transform", "--profile", "sech:1e300"],
])
def test_malformed_input_is_a_usage_error(tmp_path, out_root, capsys, argv):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("space.m_v = x\n", encoding="utf-8")
    assert run([str(cfg) if a == "BAD_CFG" else a for a in argv]) == 2
    err = capsys.readouterr().err.splitlines()
    assert any(line.startswith("error:") for line in err), err
    # a failed run leaves no output directory behind
    assert not out_root.exists() or list(out_root.iterdir()) == []


@pytest.mark.parametrize("a", ["20", "40", "60", "85"])
def test_case1_at_large_exponent_ends_with_a_verdict(out_root, capsys, a):
    # the case-1 rule follows psi' at the bump's edge: a rule sized by
    # 2^(a-1) needed from 1e6 panels (a = 20, minutes) to a count past int64
    assert run(["experiment", "case1", "--a", a]) in (0, 1)
    assert " verdict " in capsys.readouterr().out.splitlines()[-1]


@pytest.mark.parametrize("selector", ["gaussian:0", "gaussian:-1", "sech:0"])
def test_profile_width_must_be_positive(out_root, capsys, selector):
    assert run(["transform", "--profile", selector]) == 2
    err = capsys.readouterr().err
    assert f"profile {selector!r} needs a width alpha > 0" in err, err


def _flag_cases():
    # every key on every subcommand, the ones that do not take its flag too
    for key in _OPTIONS:
        for sub in _SUBCOMMANDS:
            yield pytest.param(key, sub, id=f"{key}@{sub}")


@pytest.mark.parametrize("key,sub", list(_flag_cases()))
def test_flag_and_config_file_set_the_same_value(tmp_path, key, sub):
    default, flag, typ, subcommands = _OPTIONS[key]
    argv = [sub, "case1"] if sub == "experiment" else [sub]
    run_key = "-".join(argv)
    parser = _build_parser()

    def resolved(*extra):
        return _resolve(run_key, parser.parse_args(argv + list(extra)))

    # integer-looking text for floats: the flag reads 3.0, the file says 3
    value = {int: "3", float: "3", str: "other", _switch: "1"}[typ]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {value}\n", encoding="utf-8")
    by_file = resolved("--config", str(cfg))
    with_flag = [flag] if typ is _switch else [flag, value]
    if subcommands is not None and sub not in subcommands:
        # a subcommand that never reads the key has no flag for it, and
        # takes nothing for it from the config file: the key keeps its default
        assert by_file == resolved()
        with pytest.raises(SystemExit):
            parser.parse_args(argv + with_flag)
        return
    assert by_file[0][key] != DEFAULTS[key]
    by_flag = resolved(*with_flag)
    assert by_flag == by_file
    if typ is not _switch:
        # the default stated by flag is the default
        assert resolved(flag, default) == resolved()
    if key == "output_dir":
        # the output location is not hashed
        assert by_flag[1] == resolved()[1]


@pytest.mark.parametrize("argv", [["cfun", "--lambda-points", "-2"],
                                  ["space", "--s-points", "-5"],
                                  ["experiment", "transference", "--lambda-max", "3"]],
                         ids=" ".join)
def test_flag_the_subcommand_does_not_read_is_a_usage_error(out_root, capsys, argv):
    # refused by argparse, as `cfun --t 1` is, before any run directory
    # exists; nor is it read as the prefix of a flag the subcommand has
    assert run(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out_root.exists()


def test_config_key_the_subcommand_does_not_read_is_not_taken(tmp_path, out_root):
    # the file is still checked, but cfun never reads grids.s_points, so the
    # run lands in the directory of the plain run
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("grids.s_points = -5\n", encoding="utf-8")
    assert run(["cfun", "--config", str(cfg)]) == 0
    assert run(["cfun"]) == 0
    assert [p.name for p in out_root.iterdir()] == [f"cfun-{config_hash(DEFAULTS, 'cfun')}"]
    cfg.write_text("grids.s_points = x\n", encoding="utf-8")
    assert run(["cfun", "--config", str(cfg)]) == 2


def test_hash_depends_on_config():
    h1 = config_hash(DEFAULTS, "phi")
    override = dict(DEFAULTS, **{"space.m_v": "4"})
    h2 = config_hash(override, "phi")
    assert h1 != h2
    assert config_hash(DEFAULTS, "phi") == h1  # deterministic


def test_experiment_case1_cli(out_root, capsys):
    code = run([
        "experiment", "case1", "--a", "2", "--beta-list", "0.1,0.25",
        "--n-list", "64,91,128,181,256",
    ])
    assert code == 0
    (run_dir,) = list(out_root.iterdir())
    doc = json.loads(_read(run_dir / "case1.json"))
    assert doc["verdict"] == "pass"
    assert "timestamp" in doc and "config_hash" in doc
    slopes = _read(run_dir / "case1-slopes.csv")
    assert "quantity,slope,expected,tolerance,residual_rms" in slopes


def test_slope_tol_case2_flag(out_root, monkeypatch):
    seen = []

    def stub(*args, slope_tol, **kwargs):
        seen.append(slope_tol)
        return experiments.ExperimentReport("case2")

    monkeypatch.setattr(experiments, "case2_run", stub)
    assert run(["experiment", "case2"]) == 0
    assert run(["experiment", "case2", "--slope-tol-case2", "0.3"]) == 0
    assert seen == [0.1, 0.3]
    # the flag is hashed; a run without it keeps its directory name
    plain = f"experiment-case2-{config_hash(DEFAULTS, 'experiment-case2')}"
    assert plain == "experiment-case2-4a6f52991205"
    dirs = sorted(p.name for p in out_root.iterdir())
    assert len(dirs) == 2 and plain in dirs


def test_experiment_transference_cli(out_root):
    code = run(["experiment", "transference", "--equation", "boussinesq",
                "--equation2", "frac-shifted:2"])
    assert code == 0
    (run_dir,) = list(out_root.iterdir())
    doc = json.loads(_read(run_dir / "transference.json"))
    assert doc["verdict"] == "comparable"


def _table(path):
    """(header, float rows) of a CLI CSV artifact."""
    lines = _read(path).splitlines()
    return lines[1], np.array([[float(c) for c in ln.split(",")] for ln in lines[2:]])


@pytest.mark.parametrize("profile,lambda_max", [("gaussian:1", "7"), ("sech:1", "12")])
def test_transform_cli_small_grid(out_root, capsys, profile, lambda_max):
    argv = ["transform", "--profile", profile, "--lambda-max", lambda_max, "--s-max", "6",
            "--s-points", "256"]
    assert run(argv) == 0
    (run_dir,) = list(out_root.iterdir())
    header, fwd = _table(run_dir / "forward.csv")
    assert header == "lambda,re,im,abs" and np.all(np.isfinite(fwd))
    header, back = _table(run_dir / "roundtrip.csv")
    assert header == "s,re,im,reference" and np.all(np.isfinite(back))
    rel = float(capsys.readouterr().out.split("error: ")[1].split()[0])
    assert rel < 1e-3
    # the printed error is the transform's own, read against the closed form
    s, back = back[:, 0], back[:, 1] + 1j * back[:, 2]
    exact = np.exp(-s**2) if profile.startswith("gaussian") else 1.0 / np.cosh(s) ** 4
    w = density(new_space(2, 1), s)
    recomputed = np.sqrt(np.trapezoid(np.abs(back - exact) ** 2 * w, s)
                         / np.trapezoid(exact**2 * w, s))
    assert recomputed == pytest.approx(rel, rel=1e-3)
    assert max(recomputed, rel) < 1e-4


@pytest.mark.parametrize("spectrum", ["bump:1,2", "gaussian:2,0.5"])
def test_propagate_and_maximal_cli_small_grid(out_root, spectrum):
    grid = ["--spectrum", spectrum, "--s-max", "2", "--lambda-max", "4",
            "--lambda-points", "128"]
    assert run(["propagate", "--t", "0.01", *grid]) == 0
    assert run(["maximal", "--t-points", "16", *grid]) == 0
    prop, maxi = (next(out_root.glob(f"{sub}-*")) for sub in ("propagate", "maximal"))
    header, rows = _table(prop / "propagate.csv")
    assert header == "s,re,im" and rows.shape == (384, 3) and np.all(np.isfinite(rows))
    header, rows = _table(maxi / "maximal.csv")
    assert header == "s,sup" and rows.shape == (256, 2) and np.all(np.isfinite(rows))
    assert np.all(rows[:, 1] >= 0.0)


def test_far_gaussian_spectrum_propagates_without_warning(out_root):
    # (lambda - 1e300)^2 overflows to inf, and exp(-inf) = 0 is the spectrum
    assert run(["propagate", "--spectrum", "gaussian:1e300,1", "--s-max", "2",
                "--lambda-max", "4", "--lambda-points", "128"]) == 0


def test_wide_gaussian_spectrum_propagates_without_warning(out_root):
    # sigma^2 passes the float range, and the spectrum is flat
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["propagate", "--spectrum", "gaussian:4,1e300", "--lambda-points", "128",
                    "--lambda-max", "8", "--s-max", "3"]) == 0


def test_gaussian_spectrum_maximal_runs_at_defaults(out_root):
    # the Gaussian's support ends near lambda = 13, not at the grid's 256
    assert run(["maximal", "--spectrum", "gaussian"]) == 0


def test_flat_gaussian_maximal_ends_at_the_kernel_cap(out_root, capsys):
    # a flat spectrum covers all of [0, 256]: 1,350,736 lambda nodes, whose
    # multipliers alone are 86 M cells per block of times; the propagator
    # screens its cells before it forms any kernel, weight or multiplier and
    # ends with a usage error, in well under a second
    start = time.perf_counter()
    assert run(["maximal", "--spectrum", "gaussian:4,1e300"]) == 2
    assert time.perf_counter() - start < 10.0
    err = capsys.readouterr().err.splitlines()
    assert any(line.startswith("error:") and "cap" in line for line in err), err


@pytest.mark.parametrize("argv", [
    # the 51,784 nodes of `maximal --spectrum bump:2,50` (226 lattice rows)
    ["propagate", "--spectrum", "bump:2,50", "--t", "0.999"],
    # 25,960 nodes, 363 lattice rows
    ["propagate", "--spectrum", "bump:2,100", "--t", "0.1"],
])
def test_wide_spectrum_propagates_under_the_kernel_cap(out_root, argv):
    # nodes x 384 s passes the cap, but the kernel is formed on the lattice
    # rows: the cap counts what is allocated, and these still run
    assert run(argv) == 0


@pytest.mark.parametrize("m_v,m_z", [(2, 1), (4, 3), (16, 7)])
def test_gaussian_support_keeps_the_maximal_function(m_v, m_z):
    # the support cut where |fh| |c|^-2 falls below 1e-16 of its peak moves
    # the maximal function by under 1e-12 of its max, on the same t and s grids
    params = new_space(m_v, m_z)
    kind = dispersive.PhaseKind.from_selector("frac:2")
    cfg = dict(DEFAULTS, spectrum="gaussian:4,1", **{"grids.lambda_max": "16"})
    cut = _builtin_spectrum(cfg, params, kind, 1.0)
    lam = cut.lambda_grid
    whole = SpectralProfile(lam, np.exp(-0.5 * (lam - 4.0) ** 2).astype(complex))
    assert cut.support_hint[1] < 16.0
    t_grid = dispersive.default_t_grid(params, kind, 16.0, n_points=64)
    s = np.linspace(0.0, 6.0, 32)
    got, ref = (dispersive.maximal_function(params, fh, kind, t_grid, s).values
                for fh in (cut, whole))
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(ref)


def test_phi_far_out_reads_its_small_value(out_root, capsys):
    # the density passes the float range at s = 700; phi_0(700) = 2.755e-301
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["phi", "--lambda", "0", "--s", "700"]) == 0
    assert "= 2.755242066654" in capsys.readouterr().out


def test_miller_start_past_the_float_range_is_an_error(out_root, capsys):
    # lambda s = 114 on a Miller cell of (200, 0): the terms of the start's
    # Neumann sum pass the float range, where its search never ended
    assert run(["phi", "--m-v", "200", "--m-z", "0", "--lambda", "60", "--s", "1.9"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "float range" in err, err


def test_kernel_products_rerun_byte_identical(tmp_path, monkeypatch):
    # the runs whose columns come from the real-kernel products write the
    # same bytes when run again in the same process
    runs = [["transform", "--lambda-max", "7", "--s-max", "6", "--s-points", "256"],
            ["propagate", "--spectrum", "bump:1,2", "--t", "0.01", "--s-max", "2",
             "--lambda-max", "4", "--lambda-points", "128"],
            ["maximal", "--spectrum", "bump:1,2", "--t-points", "16", "--s-max", "2",
             "--lambda-max", "4", "--lambda-points", "128"]]
    texts = []
    for sub in ("a", "b"):
        root = tmp_path / sub
        monkeypatch.setenv("DRWAVE_OUT_ROOT", str(root))
        for argv in runs:
            assert run(argv) == 0
        texts.append({p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*.csv"))})
    assert len(texts[0]) == 4 and texts[0] == texts[1]


@pytest.mark.parametrize("argv", [[name] for name in _SUBCOMMANDS
                                  if name not in ("transform", "experiment")]
                         + [["experiment", which] for which in ("case1", "case2", "transference")],
                         ids=" ".join)
def test_every_subcommand_runs_at_its_defaults(out_root, argv):
    # transform at its defaults takes tens of seconds and is left out
    assert run(argv) == 0


def test_lambda_grid_sizing(out_root, capsys):
    # unset --lambda-points: the grid resolves s_max and, for propagate and
    # maximal, the multiplier at the spectrum's top; set, it is taken as is
    cfg = dict(DEFAULTS)
    assert np.array_equal(_lambda_grid(cfg), _lambda_grid(cfg, 1.0))
    assert np.array_equal(_lambda_grid(dict(cfg, **{"grids.lambda_points": "100"}), 1e6),
                          np.linspace(0.0, 256.0, 100))
    assert _lambda_grid(cfg, 16.0).size > _lambda_grid(cfg).size
    # a grid too large to build is refused, not allocated
    assert run(["maximal", "--spectrum", "bump:2,1e6"]) == 2
    assert "set --lambda-points" in capsys.readouterr().err
    assert not out_root.exists()


def test_cached_parser_keeps_no_state_between_runs(out_root):
    # the parser is built once per process; one run's subcommand and flags
    # do not reach the next
    assert _build_parser() is _build_parser()
    assert run(["phi", "--lambda", "3", "--s", "0.25"]) == 0
    assert run(["space", "--m-v", "4", "--m-z", "3"]) == 0
    assert run(["phi"]) == 0
    expected = {
        "phi-" + config_hash(dict(DEFAULTS, **{"lambda": "3", "s": "0.25"}), "phi"),
        "space-" + config_hash(dict(DEFAULTS, **{"space.m_v": "4", "space.m_z": "3"}), "space"),
        "phi-" + config_hash(DEFAULTS, "phi"),
    }
    assert {p.name for p in out_root.iterdir()} == expected
    args = _build_parser().parse_args(["phi"])
    assert getattr(args, "lambda") is None and getattr(args, "space.m_v") is None


def test_oscillatory_cli_exit_reflects_verdict(out_root, capsys):
    code = run(["oscillatory-claim", "--n-triples", "6", "--k-levels", "10"])
    assert code == 0
    (run_dir,) = list(out_root.iterdir())
    lines = _read(run_dir / "oscillatory.csv").splitlines()
    assert lines[1] == "s,s_prime,d,K,normalized_sum"
    assert len(lines) == 8


def test_determinism_byte_identical(tmp_path, monkeypatch):
    """Identical configs produce byte-identical artifacts (timestamp aside)."""
    outputs = []
    for sub in ("a", "b"):
        root = tmp_path / sub
        monkeypatch.setenv("DRWAVE_OUT_ROOT", str(root))
        assert run(["experiment", "transference"]) == 0
        (run_dir,) = list(root.iterdir())
        outputs.append(run_dir)
    assert outputs[0].name == outputs[1].name  # same config -> same directory
    for name in ("transference-scalars.csv",):
        assert _read(outputs[0] / name) == _read(outputs[1] / name)
    strip = lambda text: [ln for ln in text.splitlines() if '"timestamp"' not in ln]
    a = strip(_read(outputs[0] / "transference.json"))
    b = strip(_read(outputs[1] / "transference.json"))
    assert a == b
