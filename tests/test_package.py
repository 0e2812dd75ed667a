import importlib
import pkgutil

import pytest

import klconc


@pytest.mark.parametrize("name", sorted(f"klconc.{m.name}" for m in pkgutil.iter_modules(klconc.__path__)))
def test_every_name_in_all_exists(name):
    # a stale __all__ entry would otherwise fail only under `from klconc.<module> import *`
    module = importlib.import_module(name)
    assert hasattr(module, "__all__")
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []


@pytest.mark.parametrize("name", ["bounds", "distributions", "harness", "losses", "sampling"])
def test_package_exports_every_module_name(name):
    # `from klconc import X` reaches every public name of the five library modules
    module = importlib.import_module(f"klconc.{name}")
    assert [attr for attr in module.__all__ if getattr(klconc, attr, None) is not getattr(module, attr)] == []
