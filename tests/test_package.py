"""Package-level checks: every exported name exists."""

import importlib
import pkgutil

import pytest

import sdiqrng

MODULES = sorted(m.name for m in pkgutil.iter_modules(sdiqrng.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_resolve(name):
    module = importlib.import_module(f"sdiqrng.{name}")
    exported = getattr(module, "__all__", ())
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"sdiqrng.{name}.__all__ names missing attributes: {missing}"
