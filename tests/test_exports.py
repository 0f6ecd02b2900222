import importlib
import pkgutil

import pytest

import sandsmooth

MODULES = ["sandsmooth"] + [f"sandsmooth.{m.name}"
                            for m in pkgutil.iter_modules(sandsmooth.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    # a stale __all__ entry breaks `from module import *` only when run
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_every_module_is_checked():
    assert {"sandsmooth.binning", "sandsmooth.fda", "sandsmooth.glam"} <= set(MODULES)
