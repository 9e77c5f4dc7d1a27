import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import drwave

MODULES = ["drwave"] + [f"drwave.{m.name}" for m in pkgutil.iter_modules(drwave.__path__)]
TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    mod = importlib.import_module(name)
    exported = getattr(mod, "__all__", [])
    assert len(exported) == len(set(exported)), f"{name}.__all__ repeats a name"
    assert [n for n in exported if not hasattr(mod, n)] == []


def _bench_tracing():
    """bench/tracing.py, loaded from its path without patching anything."""
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
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
    for layer in _bench_tracing().LAYERS:
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


@pytest.mark.parametrize("module", ["drwave", "drwave.cli"])
def test_import_takes_only_scipy_special(module):
    # each of these scipy packages pulls in the others and about doubles a
    # fresh import's cost; the library needs none of them
    heavy = ("scipy.interpolate", "scipy.integrate", "scipy.linalg", "scipy.optimize")
    script = f"import sys, {module}; print(*[m for m in {heavy!r} if m in sys.modules])"
    root = os.path.dirname(os.path.dirname(os.path.abspath(drwave.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (root, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []
