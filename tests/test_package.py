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
