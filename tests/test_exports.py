import importlib
import importlib.util
import pkgutil
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
