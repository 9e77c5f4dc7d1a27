import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drwave import experiments
from drwave.cli import DEFAULTS, _emit_csv, config_hash, parse_config_file, run
from drwave.errors import DrwaveError, ValidationError


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
    _emit_csv(path, "0" * 12, [f"c{i}" for i in range(len(values))], [values])
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


def test_config_error_exit_code(tmp_path, out_root):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("space.m_w = 3\n", encoding="utf-8")
    assert run(["phi", "--config", str(cfg)]) == 2


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
        raise DrwaveError("stub")

    monkeypatch.setattr(experiments, "case2_run", stub)
    assert run(["experiment", "case2"]) == 2
    assert run(["experiment", "case2", "--slope-tol-case2", "0.3"]) == 2
    assert seen == [0.1, 0.3]
    # the flag is hashed; a run without it keeps its directory name
    plain = f"experiment-case2-{config_hash(DEFAULTS, 'experiment-case2')}"
    assert plain == "experiment-case2-0bd7863043d4"
    dirs = sorted(p.name for p in out_root.iterdir())
    assert len(dirs) == 2 and plain in dirs


def test_experiment_transference_cli(out_root):
    code = run(["experiment", "transference", "--equation", "boussinesq",
                "--equation2", "frac-shifted:2"])
    assert code == 0
    (run_dir,) = list(out_root.iterdir())
    doc = json.loads(_read(run_dir / "transference.json"))
    assert doc["verdict"] == "comparable"


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
