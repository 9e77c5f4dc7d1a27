import ast
import importlib
import importlib.util
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import drwave

MODULES = ["drwave"] + [f"drwave.{m.name}" for m in pkgutil.iter_modules(drwave.__path__)]
ROOT = Path(__file__).resolve().parent.parent
CI = ROOT / ".github" / "workflows" / "tier1.yml"


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    mod = importlib.import_module(name)
    exported = getattr(mod, "__all__", [])
    assert len(exported) == len(set(exported)), f"{name}.__all__ repeats a name"
    assert [n for n in exported if not hasattr(mod, n)] == []


def _bench(name: str):
    """bench/<name>.py, loaded from its path without patching anything."""
    spec = importlib.util.spec_from_file_location(f"_bench_{name}",
                                                  ROOT / "bench" / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod       # dataclasses looks its module up here
    try:
        spec.loader.exec_module(mod)
    finally:
        del sys.modules[spec.name]
    return mod


def test_every_traced_name_resolves():
    # the benchmark's traced mode patches each layer at its home module
    # (a method or property on its class) and reads spherical's zone bounds
    missing = []
    for layer in _bench("tracing").LAYERS:
        home = importlib.import_module(layer.home)
        owner, _, attr = layer.attr.rpartition(".")
        if owner:
            found = getattr(home, owner, None)
            found = None if found is None else found.__dict__.get(attr)
        else:
            found = getattr(home, attr, None)
        if not callable(found) and not isinstance(found, property):
            missing.append(f"{layer.home}.{layer.attr}")
        if layer.attr == "SpaceParams.q2_over_4":
            assert isinstance(found, property)
    assert missing == []
    spherical = importlib.import_module("drwave.spherical")
    for name in ("S_BESSEL_MAX", "S_HC_MIN", "LAMBDA_HC_MIN"):
        assert isinstance(getattr(spherical, name, None), (int, float)), name


def test_benchmark_and_ci_invocations_parse_to_their_run_keys():
    # every job and warm-up of the benchmark's workloads at seed 0 and every
    # experiment run of the CI steps parses as its command, with the handler
    # and run key of that command; a CI run naming a flag its experiment
    # kind does not read is refused instead
    from drwave.cli import _OPTIONS, _SUBCOMMANDS, _build_parser, _reads
    workloads = _bench("workloads")
    bench_runs = [job.argv for name in workloads.WORKLOADS
                  for w in [workloads.make(name, 0)] for job in w.warmup + w.jobs]
    ci_runs = [tuple(run.split()) for run in re.findall(
        r"experiment (?:case1|case2|transference)[^\"\n\\]*", CI.read_text(encoding="utf-8"))]
    assert len(bench_runs) == 26 and len(ci_runs) == 4
    refused = 0
    for argv in bench_runs + ci_runs:
        command = " ".join(argv[:2]) if argv[0] == "experiment" else argv[0]
        run_key = command.replace(" ", "-")
        read = {_OPTIONS[key][1] for key in _OPTIONS if _reads(run_key, key)}
        if argv in ci_runs and not {a for a in argv if a.startswith("--")} <= read:
            refused += 1
            with pytest.raises(SystemExit):
                _build_parser().parse_args(argv)
            continue
        args = _build_parser().parse_args(argv)
        assert args.handler is _SUBCOMMANDS[command][1] and args.run_key == run_key, argv
    assert refused == 1


def _referenced_names(node: ast.AST, out: set[str]) -> None:
    """Add to out every name an ast.Name or ast.Attribute under node refers
    to, annotations (of arguments, returns and annotated assignments) not
    counted."""
    if isinstance(node, ast.Name):
        out.add(node.id)
    elif isinstance(node, ast.Attribute):
        out.add(node.attr)
    for field, value in ast.iter_fields(node):
        if field in ("annotation", "returns"):
            continue
        for child in value if isinstance(value, list) else [value]:
            if isinstance(child, ast.AST):
                _referenced_names(child, out)


def test_every_public_name_has_a_library_caller():
    # a public name stays only where a function or class body of the library
    # uses it, the benchmark wraps it by name, or it is a console script; a
    # helper that only the tests call lives in tests/oracles.py
    used = set()
    for path in sorted(Path(drwave.__file__).resolve().parent.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                for stmt in top.body:
                    _referenced_names(stmt, used)
    traced = {layer.attr.partition(".")[0] for layer in _bench("tracing").LAYERS}
    # (module, name) of each console script in pyproject.toml's [project.scripts]
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    scripts = pyproject.partition("[project.scripts]")[2].partition("\n[")[0]
    entry_points = set(re.findall(r'=\s*"([\w.]+):(\w+)"', scripts))
    assert ("drwave.cli", "main") in entry_points
    orphans = [f"{name}.{public}" for name in MODULES
               for public in getattr(importlib.import_module(name), "__all__", [])
               if public not in used | traced and (name, public) not in entry_points]
    assert orphans == []


def _loaded_after(script: str, out_root: Path, package: str) -> list[str]:
    """The modules of `package` (itself and its submodules) loaded once
    `script` has run in a fresh interpreter that imports drwave from this
    checkout, with CLI artifacts under out_root and the script's own output
    discarded."""
    probe = ("import contextlib, io, sys\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             + "".join(f"    {line}\n" for line in script.splitlines())
             + f"print(*sorted(m for m in sys.modules"
               f" if m == {package!r} or m.startswith({package + '.'!r})))\n")
    root = os.path.dirname(os.path.dirname(os.path.abspath(drwave.__file__)))
    env = dict(os.environ, DRWAVE_OUT_ROOT=str(out_root), PYTHONPATH=os.pathsep.join(
        p for p in (root, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


@pytest.mark.parametrize("module", ["drwave", "drwave.cli"])
def test_import_loads_no_scipy(module, tmp_path):
    # scipy serves script_j alone, which imports it on its first call
    assert _loaded_after(f"import {module}", tmp_path, "scipy") == []


def test_phi_paths_load_no_scipy(tmp_path):
    # phi_matrix on both routes, lambda = 0 and s = 0 included, a forward
    # transform, an array c-function and four CLI runs load no scipy
    script = """
import numpy as np
from drwave import RadialProfile, c_function, new_space, phi_matrix, sft_forward
from drwave.cli import run
lams = np.array([0.0, 0.5, 9.0, 40.0, 3e3])
s = np.array([0.0, 1e-3, 0.3, 1.9, 2.0, 2.5, 6.0])
for m_v, m_z in [(2, 0), (2, 1), (4, 3), (16, 7)]:
    got = phi_matrix(new_space(m_v, m_z), lams, s)
    assert np.all(got[:, 0] == 1.0) and np.all(np.abs(got) <= 1.0 + 1e-9)
s_grid = np.linspace(0.0, 12.0, 241)
fh = sft_forward(new_space(2, 1), RadialProfile(s_grid, np.exp(-s_grid**2)),
                 np.linspace(0.0, 8.0, 33))
assert np.all(np.isfinite(fh.values))
assert np.all(np.isfinite(c_function(new_space(4, 3), np.geomspace(1e-3, 1e3, 50))))
for argv in (["cfun"], ["phi"], ["oscillatory-claim"], ["experiment", "case2"]):
    assert run(argv) == 0, argv
"""
    assert _loaded_after(script, tmp_path, "scipy") == []


def test_experiments_load_no_numpy_ma(tmp_path):
    # np.unique imports numpy.ma (13 ms and 1.7 MB on a cold start); the
    # slope fits of both scaling experiments count distinct x without it
    script = """
from drwave import new_space
from drwave.experiments import case1_run, case2_run
params = new_space(2, 1)
case1_run(params, 2.0, [0.25], [64, 65, 66, 67, 68])
case2_run(params, 0.25, [8, 9, 10, 11, 12])
"""
    assert _loaded_after(script, tmp_path, "numpy.ma") == []
