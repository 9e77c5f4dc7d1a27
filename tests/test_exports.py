import importlib
import pkgutil

import pytest

import drwave

MODULES = ["drwave"] + [f"drwave.{m.name}" for m in pkgutil.iter_modules(drwave.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    mod = importlib.import_module(name)
    exported = getattr(mod, "__all__", [])
    assert len(exported) == len(set(exported)), f"{name}.__all__ repeats a name"
    assert [n for n in exported if not hasattr(mod, n)] == []
